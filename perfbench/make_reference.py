"""Write sweep_reference.json: the analytic sweep's summary values, from one
untraced pass of the program in ``src/``.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Only a change that defines or corrects the benchmark may rewrite the file.
"""

import json
import os
import shutil
import sys
import tempfile

import checks
import workloads
from run import RUNS_DIR
from worker import REFERENCE_PATH, call_main


def main() -> int:
    import roughmerton.cli

    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="reference-", dir=RUNS_DIR)
    try:
        refs = {}
        invocations = workloads.pass_invocations(workloads.WORKLOADS["analytic_sweep"], 0, 0, run_dir)
        for inv in invocations:
            _, _, raised, stderr, _ = call_main(roughmerton.cli.main, inv.argv, None)
            problems, loaded = checks.check_invocation(inv, raised, stderr, None)
            if problems:
                print(f"{inv.reference_key}: {problems}", file=sys.stderr)
                return 1
            refs[inv.reference_key] = checks.summary_values(loaded)
    finally:
        shutil.rmtree(run_dir)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {os.path.relpath(REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
