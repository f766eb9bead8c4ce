"""Replay every gate of ``roughmerton verify`` over a range of seeds, in one process.

Each seed runs ``cli._verify_gates`` on the configured bundle, which writes no
file.  The script prints, per gate, on how many seeds it failed and the range
of its statistic against its threshold, and on how many seeds ``verify``
would exit 1.  Run from the repository root:

    PYTHONPATH=src python tools/replay_gates.py --seeds 2000 2049
    PYTHONPATH=src python tools/replay_gates.py --seeds 2000 2009 --wrong psi

``--wrong`` swaps a known-wrong model into the pipeline, solved at
theta = 0.3 for every asset in place of the config's own theta:

    psi       psi and the value integrands (a + F) only; the rule keeps the
              config's theta, so mostly the value and the profile see it
    solution  the whole Riccati solution, whose optimal rule holds too much
              of every asset
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import defaultdict

import numpy as np

from roughmerton import cli

WRONG_THETA = 0.3


def mismatched(solve, what: str):
    """``cli._solve`` with the solutions at theta = WRONG_THETA swapped in."""

    def wrong(config, tabs, gammas):
        params = dataclasses.replace(config.params, theta=np.full(config.params.d, WRONG_THETA))
        sols = solve(dataclasses.replace(config, params=params), tabs, gammas)
        if what == "solution":
            return sols
        own = solve(config, tabs, gammas)
        return {g: dataclasses.replace(own[g], psi=sols[g].psi, rhs_values=sols[g].rhs_values) for g in gammas}

    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=cli._default_config_path())
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), default=(2000, 2049))
    parser.add_argument("--wrong", choices=("psi", "solution"), default=None)
    args = parser.parse_args(argv)

    config = cli.load_config(args.config)
    if args.wrong is not None:
        cli._solve = mismatched(cli._solve, args.wrong)
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    stats, thresholds, fails = defaultdict(list), defaultdict(list), defaultdict(list)
    exits = []
    for seed in seeds:
        _, gates, _ = cli._verify_gates(dataclasses.replace(config, seed=seed))
        for g in gates:
            stats[g.name].append(g.stat)
            thresholds[g.name].append(g.threshold)
            if not g.passed:
                fails[g.name].append(seed)
        exits.append(not all(g.passed for g in gates))
        print(f"seed {seed}: {'exit 1' if exits[-1] else 'exit 0'}", file=sys.stderr, flush=True)

    print(f"seeds {seeds.start}-{seeds.stop - 1}, wrong model: {args.wrong or 'none'}")
    print(f"{'gate':44s} {'fails':>5s}  statistic range (threshold range)")
    for name, values in stats.items():
        low, high = min(thresholds[name]), max(thresholds[name])
        print(f"{name:44s} {len(fails[name]):5d}  {min(values):.4g} .. {max(values):.4g} ({low:.4g} .. {high:.4g})")
        if fails[name]:
            print(f"{'':44s}        failing seeds: {' '.join(map(str, fails[name]))}")
    print(f"{'verify exits 1':44s} {sum(exits):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
