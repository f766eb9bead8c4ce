"""Time the program's set-up in a fresh interpreter: importing roughmerton's
CLI and loading a config, before any layer is called.  Prints seconds."""

import sys
import time

start = time.perf_counter()
import roughmerton.cli  # noqa: E402

roughmerton.cli.load_config(sys.argv[1])
print(repr(time.perf_counter() - start))
