#!/usr/bin/env python3
"""Resolution study for pushforward correlation estimates.

Correlations are computed by iterating the atoms of a finite measure, so
each lag doubles the number of cells whose boundary is miscounted. For a
step observable on the doubling map the true sequence decays geometrically
at rate 1/2, but the measured sequence turns around near lag log2(M)/2 and
climbs back up. This script sweeps the atom count, locates the turning
point, and fits the rate on the clean window, making the usable-window
law visible directly.

Usage: python3 scripts/correlation_floor.py [--max-power 22] [--out out/]
"""

import argparse
from pathlib import Path

import numpy as np

from thermomap import correlation, full_linear_map, uniform_atoms
from thermomap.transfer import fit_decay

MIN_POWER = 14  # log2 of the smallest atom count in the sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-power", type=int, default=22)
    ap.add_argument("--lags", type=int, default=20)
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()
    if args.max_power < MIN_POWER:
        ap.error(f"--max-power must be at least {MIN_POWER} (the sweep starts "
                 f"at 2^{MIN_POWER} atoms)")
    args.out.mkdir(parents=True, exist_ok=True)

    imap = full_linear_map(2)

    def obs(x):
        return (np.asarray(x, dtype=float) <= 1.0 / 3.0).astype(float)
    rows = ["log2_atoms,n,c_n,turn_lag,clean_rho"]
    print(f"{'atoms':>10} {'turn lag':>8} {'clean-window rate':>18} "
          f"{'full-window rate':>17}")
    for power in range(MIN_POWER, args.max_power + 1, 2):
        atoms = uniform_atoms(2**power)
        rep = correlation(imap, obs, obs, atoms, n_max=args.lags)
        turn = int(rep.ns[np.argmin(rep.c_values)])
        window = max(5, turn - 2)
        # the first `window` lags of the same pushforward, refitted
        clean = fit_decay(rep.ns[:window], rep.c_values[:window])
        clean_rho = clean.rho if clean.rho is not None else float("nan")
        full_rho = rep.rho if rep.rho is not None else float("nan")
        print(f"{2**power:>10} {turn:>8} {clean_rho:>18.4f} {full_rho:>17.4f}")
        for n, c in zip(rep.ns, rep.c_values):
            rows.append(f"{power},{n},{c:.17g},{turn},{clean_rho:.17g}")
    path = args.out / "correlation_floor.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"\nthe turning point moves right by one lag per 4x atoms;")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
