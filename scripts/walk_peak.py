#!/usr/bin/env python3
"""Peak memory of a streaming tree walk, in deepest-level arrays.

Runs tree_pressure under tracemalloc on the doubling map with a cosine
potential, on the golden tent and on logistic4 with a cosine potential,
and pressure_curve on the doubling map with phi the same cosine, chi =
cos 6 pi x and 21 t values in [-1, 1], and reports the traced peak as a
number of float64 arrays the size of the deepest level, and as bytes per
deepest node. The doubling and logistic4 walks go to --depth; the golden
tent grows like its golden-ratio rate, so it goes to the depth where its
deepest level is about as large as 2^depth. The tree_pressure rows are the
figure behind maps.DEFAULT_NODE_BUDGET's memory estimate.

Usage: python3 scripts/walk_peak.py [--depth 20] [--out out/]
"""

import argparse
import math
import tracemalloc
from pathlib import Path

import numpy as np

from thermomap import (
    CosineSeriesPotential,
    full_linear_map,
    golden_tent_map,
    level_sums,
    logistic4_map,
    pressure_curve,
    tree_pressure,
)
from thermomap.cli import write_csv

X0 = 0.31


def peak_bytes(run):
    """Traced peak of one run() call above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=20)
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()
    if args.depth < 1:
        ap.error("--depth must be at least 1")
    args.out.mkdir(parents=True, exist_ok=True)

    cosine = CosineSeriesPotential((0.3, -0.2))
    golden_depth = math.ceil(
        args.depth * math.log(2.0) / math.log((1.0 + math.sqrt(5.0)) / 2.0)
    )
    chi = CosineSeriesPotential((0.0, 0.0, 1.0))
    ts = np.linspace(-1.0, 1.0, 21)
    doubling = full_linear_map(2)

    def tree(imap, potential, depth):
        return lambda: tree_pressure(imap, potential, X0, depth)

    cases = [
        ("doubling_cosine", doubling, args.depth, tree(doubling, cosine, args.depth)),
        ("golden_tent", golden_tent_map(), golden_depth,
         tree(golden_tent_map(), None, golden_depth)),
        ("logistic4_cosine", logistic4_map(), args.depth,
         tree(logistic4_map(), cosine, args.depth)),
        ("curve_doubling_cosine", doubling, args.depth,
         lambda: pressure_curve(doubling, cosine, chi, ts, X0, args.depth)),
    ]
    rows = []
    for name, imap, depth, run in cases:
        deepest = int(level_sums(imap, None, X0, depth).counts[-1])
        peak = peak_bytes(run)
        rows.append((name, depth, deepest, peak / (8 * deepest), peak / deepest))
        print(f"{name:21s} depth {depth:2d}  deepest {deepest:9d}  "
              f"peak {peak / (8 * deepest):.2f} arrays, "
              f"{peak / deepest:.1f} B per node")
    path = args.out / "walk_peak.csv"
    write_csv(
        path,
        ("map", "depth", "deepest_nodes", "peak_arrays", "bytes_per_node"),
        rows,
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
