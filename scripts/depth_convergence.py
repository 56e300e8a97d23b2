#!/usr/bin/env python3
"""Depth-convergence study for the preimage-tree growth estimators.

Runs the level sums on the uniform two- and four-branch maps and on the
golden tent, prints the per-depth estimates, and contrasts the averaged
tail estimate with the regression slope. The uniform maps factorize and
converge instantly; the golden tent's preimage count carries a prefactor,
so the averaged estimate is biased like -c/n while the slope of the log
level sums recovers the rate to a few decimal places at modest depth.

Usage: python3 scripts/depth_convergence.py [--depth 18] [--out out/]
"""

import argparse
from pathlib import Path

import numpy as np

from thermomap import (
    full_linear_map,
    golden_tent_map,
    level_sums,
    pressure_report,
    transition_parameter,
)
from thermomap.cli import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=18)
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    cases = [
        ("two_branch", full_linear_map(2), np.log(2.0)),
        ("four_branch", full_linear_map(4), np.log(4.0)),
        ("golden_tent", golden_tent_map(), np.log((1 + np.sqrt(5.0)) / 2.0)),
    ]
    rows = []
    for name, imap, exact in cases:
        depth = args.depth if len(imap.branches) < 3 else min(args.depth, 10)
        sums = level_sums(imap, None, 0.3, depth)
        rep = pressure_report(sums, depth)
        trans = transition_parameter(sums)
        print(f"\n{name} (exact rate {exact:.6f})")
        print(f"  averaged tail : {rep.estimate:.6f}  "
              f"err {abs(rep.estimate - exact):.2e}")
        print(f"  slope fit     : {trans.c:.6f}  "
              f"err {abs(trans.c - exact):.2e}")
        for n, p in zip(rep.depths, rep.p_values):
            rows.append((name, n, p, rep.estimate, trans.c, exact))
    path = args.out / "depth_convergence.csv"
    write_csv(
        path, ("map", "n", "p_n", "averaged_tail", "slope", "exact"), rows
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
