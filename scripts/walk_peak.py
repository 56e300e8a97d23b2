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
figure behind maps.DEFAULT_NODE_BUDGET's memory estimate. The last row is
weak_limit on the doubling map with the cosine potential, from level sums
that retain its window, built before tracing starts: the window holds
about two deepest levels, so each window-sized array counts as two.

Usage: python3 scripts/walk_peak.py [--depth 20] [--out out/]
"""

import argparse
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

from thermomap import (
    CosineSeriesPotential,
    full_linear_map,
    golden_tent_map,
    level_sums,
    logistic4_map,
    pressure_curve,
    transition_parameter,
    tree_pressure,
    weak_limit,
)
from thermomap.cli import write_csv
from thermomap.conformal import window

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
    if args.depth < 4:
        ap.error("--depth must be at least 4")
    args.out.mkdir(parents=True, exist_ok=True)

    cosine = CosineSeriesPotential((0.3, -0.2))
    golden_depth = math.ceil(
        args.depth * math.log(2.0) / math.log((1.0 + math.sqrt(5.0)) / 2.0)
    )
    chi = CosineSeriesPotential((0.0, 0.0, 1.0))
    ts = np.linspace(-1.0, 1.0, 21)
    doubling = full_linear_map(2)

    # each case makes its run when its turn comes, so no input outlives it
    def tree(imap, potential, depth):
        return lambda: tree_pressure(imap, potential, X0, depth)

    def curve():
        return lambda: pressure_curve(doubling, cosine, chi, ts, X0, args.depth)

    def limit():
        sums = level_sums(doubling, cosine, X0, args.depth, retain=window(args.depth))
        c = transition_parameter(sums).c
        return lambda: weak_limit(sums, c)

    cases = [
        ("doubling_cosine", doubling, args.depth,
         partial(tree, doubling, cosine, args.depth)),
        ("golden_tent", golden_tent_map(), golden_depth,
         partial(tree, golden_tent_map(), None, golden_depth)),
        ("logistic4_cosine", logistic4_map(), args.depth,
         partial(tree, logistic4_map(), cosine, args.depth)),
        ("curve_doubling_cosine", doubling, args.depth, curve),
        ("weak_limit_doubling_cosine", doubling, args.depth, limit),
    ]
    rows = []
    for name, imap, depth, make_run in cases:
        deepest = int(level_sums(imap, None, X0, depth).counts[-1])
        peak = peak_bytes(make_run())
        rows.append((name, depth, deepest, peak / (8 * deepest), peak / deepest))
        print(f"{name:26s} depth {depth:2d}  deepest {deepest:9d}  "
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
