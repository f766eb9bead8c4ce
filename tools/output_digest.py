"""Digest every file the CLI emits, to check that a change leaves outputs byte-identical.

Every subcommand runs under both utilities on each given config (default: the
packaged config), in one process, into a temporary directory.  The script
prints each invocation's exit code, one ``sha256 path`` line per emitted file,
one ``sha256 bundle/<case>/<field>`` line per array of ``simulate_variance``'s
bundle in two fixed cases on the packaged config (``BUNDLE_CASES``), so that
the stored route is covered too, and, last, the code-line count of
``src/roughmerton`` (lines that are not blank, comment or docstring).  Run
from the repository root:

    PYTHONPATH=src python tools/output_digest.py > after.txt
    PYTHONPATH=src python tools/output_digest.py --sweep > after.txt

``--sweep`` adds the benchmark's 18 analytic-sweep configs, each under its own
utility and only with the analytic subcommands.  Run the same command on the
parent commit's checkout; ``diff before.txt after.txt`` then shows every moved
output, and the change in code lines.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import tokenize

from roughmerton import cli
from roughmerton.simulate import SimGrid, simulate_variance

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UTILITIES = ("power", "exponential")
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

# name: (n_steps, simulate_variance keywords); three path blocks, the last
# partial, and three time blocks, the last partial; then one path block with
# V_0 pinned at its mean and no dBperp
BUNDLE_CASES = {
    "p45_b20_n70": (70, {"n_paths": 45, "seed": 19, "block_size": 20}),
    "p700_n130_mean": (130, {"n_paths": 700, "seed": 5, "v0_mode": "mean", "store_bperp": False}),
}


def code_lines(path: str) -> int:
    """Lines of ``path`` holding code: not blank, comment or docstring lines."""
    with open(path) as fh:
        src = fh.read()
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docs.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def sweep_runs(tmp: str) -> list:
    """(label, config path, subcommands, utility) of the benchmark's analytic sweep."""
    sys.path.insert(0, REPO)
    from perfbench.workloads import SWEEP_SUBCOMMANDS, sweep_configs

    with open(cli._default_config_path()) as fh:
        base = json.load(fh)
    runs = []
    for key, cfg in sweep_configs(base).items():
        path = os.path.join(tmp, f"{key}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        runs.append((key, path, SWEEP_SUBCOMMANDS, cfg["utility"]["kind"]))
    return runs


def digest_lines(configs: list, sweep: bool) -> list:
    """The exit-code and digest lines of every run, in a fixed order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = [
            (os.path.splitext(os.path.basename(path))[0], path, cli.SUBCOMMANDS, kind)
            for path in configs
            for kind in UTILITIES
        ]
        if sweep:
            runs += sweep_runs(tmp)
        for label, path, subcommands, kind in runs:
            for sub in subcommands:
                rel = os.path.join("out", label, f"{sub}_{kind}")
                argv = [sub, "--config", path, "--out", os.path.join(tmp, rel), "--utility", kind]
                # ``value`` also prints its payload, which value.json holds
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                out.append(f"exit {code} {rel}")
                run_dir = os.path.join(tmp, rel)
                for name in sorted(os.listdir(run_dir)) if os.path.isdir(run_dir) else []:
                    with open(os.path.join(run_dir, name), "rb") as fh:
                        out.append(f"{hashlib.sha256(fh.read()).hexdigest()} {rel}/{name}")
    return out


def bundle_lines() -> list:
    """One digest line per stored array of each ``BUNDLE_CASES`` bundle."""
    config = cli.load_config(cli._default_config_path())
    params, tabs = config.params, cli._stab_tables(config)
    out = []
    for case, (n, kw) in BUNDLE_CASES.items():
        bundle = simulate_variance(params, tabs, SimGrid(params.T, n), **kw)
        for field in ("V", "dB", "dBperp", "v0"):
            array = getattr(bundle, field)
            if array is not None:
                out.append(f"{hashlib.sha256(array.tobytes()).hexdigest()} bundle/{case}/{field}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("configs", nargs="*", default=[cli._default_config_path()])
    parser.add_argument("--sweep", action="store_true", help="add the 18 analytic-sweep configs")
    args = parser.parse_args(argv)

    for line in digest_lines(args.configs, args.sweep) + bundle_lines():
        print(line)
    pkg = os.path.dirname(cli.__file__)
    total = sum(code_lines(os.path.join(pkg, name)) for name in sorted(os.listdir(pkg)) if name.endswith(".py"))
    print(f"code lines in src/roughmerton: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
