#!/usr/bin/env python3
"""Column-by-column difference of two scripts/cli_sweep.py outputs.

A and B are two --out directories of scripts/cli_sweep.py (each holds
cli_sweep.csv and the cli_sweep/ run directories). For every file name
and column the table gives the runs that wrote the file, how many of them
differ in that column, and the worst absolute and relative difference
|a - b| / max(|a|, |b|) over their cells; a cell whose texts differ but do
not both parse as numbers counts as a text difference. Files whose sha256
agree are not opened. The exit code is 1 when the exit codes, the sets of
written files, the headers or the row counts differ, and 0 otherwise:

    PYTHONPATH=src python3 scripts/cli_sweep.py --depth 10 --out a/
    PYTHONPATH=../other/src python3 scripts/cli_sweep.py --depth 10 --out b/
    python3 scripts/sweep_diff.py a/ b/

Usage: python3 scripts/sweep_diff.py A B
"""

import argparse
import csv
import math
import sys
from pathlib import Path


def read_index(root):
    """{run: (exit_code, {file: sha256})} from root/cli_sweep.csv."""
    runs = {}
    with open(root / "cli_sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            code, files = runs.setdefault(row["run"], (row["exit_code"], {}))
            if code != row["exit_code"]:
                raise SystemExit(f"{root}: run {row['run']} lists two exit codes")
            if row["file"]:
                files[row["file"]] = row["sha256"]
    return runs


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def cell_diff(a, b):
    """(absolute, relative) difference of two numeric cells, or None when
    either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0, 0.0
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf, math.inf
    gap = abs(x - y)
    return gap, gap / max(abs(x), abs(y))


class Column:
    """Per (file, column) tally over the runs that wrote the file."""

    def __init__(self):
        self.runs = 0
        self.differ = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.text = 0

    def add(self, pairs):
        self.runs += 1
        differs = False
        for a, b in pairs:
            if a == b:
                continue
            differs = True
            diff = cell_diff(a, b)
            if diff is None:
                self.text += 1
            else:
                self.max_abs = max(self.max_abs, diff[0])
                self.max_rel = max(self.max_rel, diff[1])
        self.differ += differs


def compare(root_a, root_b):
    """(table, problems): table maps (file, column) to its Column."""
    runs_a, runs_b = read_index(root_a), read_index(root_b)
    problems = []
    table = {}
    for run in sorted(set(runs_a) | set(runs_b)):
        if run not in runs_a or run not in runs_b:
            problems.append(f"run {run} only in {'B' if run not in runs_a else 'A'}")
            continue
        (code_a, files_a), (code_b, files_b) = runs_a[run], runs_b[run]
        if code_a != code_b:
            problems.append(f"{run}: exit code {code_a} vs {code_b}")
        if set(files_a) != set(files_b):
            problems.append(f"{run}: files {sorted(files_a)} vs {sorted(files_b)}")
        for name in sorted(set(files_a) & set(files_b)):
            rows_a = read_rows(root_a / "cli_sweep" / run / name)
            if files_a[name] == files_b[name]:
                rows_b = rows_a
            else:
                rows_b = read_rows(root_b / "cli_sweep" / run / name)
            header = rows_a[0] if rows_a else []
            if (rows_b[0] if rows_b else []) != header:
                problems.append(f"{run}/{name}: headers differ")
                continue
            if len(rows_a) != len(rows_b):
                problems.append(
                    f"{run}/{name}: {len(rows_a) - 1} vs {len(rows_b) - 1} rows")
                continue
            for j, column in enumerate(header):
                table.setdefault((name, column), Column()).add(
                    (ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:]))
    return table, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args()
    table, problems = compare(args.a, args.b)
    print(f"{'file':18s} {'column':22s} {'runs':>5s} {'differ':>6s} "
          f"{'max_abs':>9s} {'max_rel':>9s}")
    for (name, column), col in sorted(table.items()):
        text = f"  {col.text} text" if col.text else ""
        print(f"{name:18s} {column:22s} {col.runs:5d} {col.differ:6d} "
              f"{col.max_abs:9.2e} {col.max_rel:9.2e}{text}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
