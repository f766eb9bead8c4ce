"""Digest every file the CLI emits, to check that a change leaves outputs byte-identical.

Every subcommand runs under both utilities on each given config (default: the
packaged config), in one process, into a temporary directory.  The script
prints each invocation's exit code, one ``sha256 path`` line per emitted file,
one ``sha256 bundle/<case>/<field>`` line per array of ``simulate_variance``'s
bundle in three fixed cases on the packaged config (``BUNDLE_CASES``), so that
the stored route is covered too, and, last, the code-line count of each
module of ``src/roughmerton`` and their total (lines that are not blank,
comment or docstring).  Run from the repository root:

    PYTHONPATH=src python tools/output_digest.py > after.txt
    PYTHONPATH=src python tools/output_digest.py --sweep > after.txt

``--sweep`` adds the benchmark's 18 analytic-sweep configs, each under its own
utility and only with the analytic subcommands.  Run the same command on the
parent commit's checkout; ``diff before.txt after.txt`` then shows every moved
output, and the change in code lines, module by module.

A changed hash does not say by how much a file moved.  ``--keep DIR`` writes
the emitted files under DIR (new or empty) as well, and ``--compare A B``
then prints, for every file of two kept trees, its largest relative
difference |b - a| / |a| over the numbers it holds (0 where a == b, so a file
that did not move reads 0), or says that the file is missing from one tree or
differs in something other than its numbers:

    PYTHONPATH=src python tools/output_digest.py --sweep --keep before > before.txt
    PYTHONPATH=src python tools/output_digest.py --compare before after
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

import numpy as np

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
# V_0 pinned at its mean; then one path block so large that a
# slot of normals holds fewer steps than a time block (12-14 of 32)
BUNDLE_CASES = {
    "p45_b20_n70": (70, {"n_paths": 45, "seed": 19, "block_size": 20}),
    "p700_n130_mean": (130, {"n_paths": 700, "seed": 5, "v0_mode": "mean"}),
    "p6000_n70": (70, {"n_paths": 6000, "seed": 23}),
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


def digest_lines(configs: list, sweep: bool, keep: str | None = None) -> list:
    """The exit-code and digest lines of every run, in a fixed order; the
    emitted files go under ``keep`` if given, else into a temporary directory."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        root = keep or tmp
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
                argv = [sub, "--config", path, "--out", os.path.join(root, rel), "--utility", kind]
                # ``value`` also prints its payload, which value.json holds
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                out.append(f"exit {code} {rel}")
                run_dir = os.path.join(root, rel)
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
            out.append(f"{hashlib.sha256(getattr(bundle, field).tobytes()).hexdigest()} bundle/{case}/{field}")
    return out


def _numbers_and_rest(path: str) -> tuple:
    """The numbers a CSV or JSON output holds, in file order, and everything
    else in it (CSV header lines; JSON keys, strings, booleans and nulls)."""
    numbers, rest = [], []

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                rest.append(key)
                walk(node[key])
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append(float(node))
        else:
            rest.append(node)

    with open(path) as fh:
        if path.endswith(".json"):
            walk(json.load(fh))
        else:
            for line in fh:
                if line.startswith("#"):
                    rest.append(line)
                else:
                    numbers += [float(x) for x in line.split(",")]
    return numbers, rest


def compare_lines(tree_a: str, tree_b: str) -> list:
    """One line per file of either tree: the file's largest relative difference
    |b - a| / |a| (a from ``tree_a``), or why its numbers cannot be compared."""

    def files(root):
        return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}

    in_a, in_b = files(tree_a), files(tree_b)
    out = []
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            out.append(f"only in {tree_a if rel in in_a else tree_b} {rel}")
            continue
        (num_a, rest_a), (num_b, rest_b) = (_numbers_and_rest(os.path.join(t, rel)) for t in (tree_a, tree_b))
        if rest_a != rest_b or len(num_a) != len(num_b):
            out.append(f"differs beyond its numbers {rel}")
            continue
        a, b = np.array(num_a), np.array(num_b)
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_diff = np.where(same, 0.0, np.abs(b - a) / np.abs(a))
        out.append(f"{np.nan_to_num(rel_diff, nan=np.inf).max(initial=0.0):.3g} {rel}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("configs", nargs="*", default=[cli._default_config_path()])
    parser.add_argument("--sweep", action="store_true", help="add the 18 analytic-sweep configs")
    parser.add_argument("--keep", metavar="DIR", help="also write the emitted files under DIR (new or empty)")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="print each file's largest relative difference between two kept trees"
    )
    args = parser.parse_args(argv)

    if args.compare:
        lines = compare_lines(*args.compare)
        for line in lines:
            print(line)
        return 1 if any(line.startswith(("only in ", "differs ")) for line in lines) else 0
    if args.keep and os.path.exists(args.keep) and os.listdir(args.keep):
        parser.error(f"--keep {args.keep}: directory is not empty")
    for line in digest_lines(args.configs, args.sweep, args.keep) + bundle_lines():
        print(line)
    pkg = os.path.dirname(cli.__file__)
    counts = {name: code_lines(os.path.join(pkg, name)) for name in sorted(os.listdir(pkg)) if name.endswith(".py")}
    for name, count in counts.items():
        print(f"code lines in src/roughmerton/{name}: {count}")
    print(f"code lines in src/roughmerton: {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
