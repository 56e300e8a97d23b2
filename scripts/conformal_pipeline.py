#!/usr/bin/env python3
"""End-to-end pipeline demo on the weighted doubling map.

Builds the weak-limit measure for branch weights (1, e^-1), runs the
scaling audit on single-branch intervals, extracts the leading eigenpair
of the discretized operator, forms the equilibrium measure, and reports
entropy against the closed form. Every stage prints its own diagnostics
so the output doubles as a worked example of the API.

Usage: python3 scripts/conformal_pipeline.py [--depth 16] [--out out/]
"""

import argparse
from pathlib import Path

import numpy as np

from thermomap import (
    BranchConstantPotential,
    atom_audit,
    conformality_audit,
    equilibrium_state,
    full_linear_map,
    level_sums,
    power_iteration,
    pressure_report,
    transition_parameter,
    weak_limit,
)
from thermomap.cli import write_csv
from thermomap.conformal import window


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=16)
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    imap = full_linear_map(2)
    phi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
    p_left = 1.0 / (1.0 + np.exp(-1.0))

    # one walk of the preimage tree feeds all three tree estimators
    sums = level_sums(imap, phi, 0.3, args.depth, retain=window(args.depth))
    tree = pressure_report(sums, min(args.depth, 14))
    print(f"tree pressure      : {tree.estimate:.10f} "
          f"(exact {np.log(1 + np.exp(-1.0)):.10f})")

    trans = transition_parameter(sums)
    limit = weak_limit(sums, trans.c)
    m = limit.measure
    print(f"weak limit         : {m.points.size} atoms, "
          f"converged={limit.converged}, stability={limit.stability:.2e}")
    print(f"mass on [0, 1/2]   : {float(m.masses[m.points <= 0.5].sum()):.10f} "
          f"(exact {p_left:.10f})")

    intervals = [(a, a + 0.04) for a in np.linspace(0.05, 0.9, 18)]
    conf = conformality_audit(m, imap, phi, trans.c, intervals)
    atoms = atom_audit(m, (64, 256, 512))
    print(f"scaling audit      : max delta {conf.max_delta:.2e} "
          f"over {len(intervals)} intervals")
    print(f"atom audit         : max bin mass "
          + ", ".join(f"{b}:{v:.4f}" for b, v in
                      zip(atoms.levels, atoms.max_bin_masses)))

    eig = power_iteration(imap, phi, grid_size=4096)
    state = equilibrium_state(phi, m, eig, hyperbolic=True)
    expected = np.log(1 + np.exp(-1.0)) + (1.0 - p_left)
    print(f"leading eigenvalue : {eig.eigenvalue:.12f} "
          f"(exact {1 + np.exp(-1.0):.12f})")
    print(f"entropy            : {state.entropy:.10f} (exact {expected:.10f})")

    for name, measure in (("measure", m), ("equilibrium", state.nu)):
        write_csv(args.out / f"weighted_doubling_{name}.csv", ("point", "mass"),
                  np.column_stack((measure.points, measure.masses)))
    print(f"wrote {args.out}/weighted_doubling_measure.csv and "
          f"weighted_doubling_equilibrium.csv")


if __name__ == "__main__":
    main()
