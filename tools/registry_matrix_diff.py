#!/usr/bin/env python3
"""Compare two trees written by `tools/registry_matrix.py tree`:

    tools/registry_matrix_diff.py PARENT CHANGE [--rtol R]

Both trees must hold the same files, and every `exit` file must be the
same.  Every other file is split into numbers and the text between them:
that text must be the same (PASS/FAIL, `overall:`, regularity classes,
error messages), and each pair of numbers may differ by at most R relative
to the larger magnitude (default 0: equal as floats; NaN equals NaN).  R
must be a finite number >= 0.

Prints one line per file with the largest relative difference among its
numbers (and, for a CSV file, per column), then one line per mismatch.
Exits 0 when the trees match, 1 when they do not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

#: a decimal number, or inf/nan as Python and JSON write them; the captured
#: group makes re.split return text at even and numbers at odd positions
NUMBER = re.compile(r"([-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|(?<![A-Za-z_])[-+]?(?:inf|nan|Infinity|NaN)(?![A-Za-z_]))")


def relative_difference(a: str, b: str) -> float:
    """|a − b| / max(|a|, |b|) of two number tokens: 0 when they are equal
    as floats (or both NaN), inf when only one is NaN or infinite."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_text(a: str, b: str, where: str, rtol: float, problems: list) -> float:
    """The largest relative difference between the numbers of two pieces of
    text; appends a line to `problems` for text that differs and for each
    number off by more than rtol."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        problems.append(f"{where}: text differs: {a!r} vs {b!r}")
        return 0.0
    largest = 0.0
    for x, y in zip(pa[1::2], pb[1::2]):
        diff = relative_difference(x, y)
        largest = max(largest, diff)
        if diff > rtol:
            problems.append(f"{where}: {x} vs {y} (relative difference {diff:.3g})")
    return largest


def compare_file(path: str, a: str, b: str, rtol: float, problems: list) -> dict:
    """The largest relative difference in one file, under the key "" for
    the whole file and, for a CSV file, under each column's header."""
    largest = {"": 0.0}
    lines_a, lines_b = a.split("\n"), b.split("\n")
    if len(lines_a) != len(lines_b):
        problems.append(f"{path}: {len(lines_a)} lines vs {len(lines_b)}")
        return largest
    header = lines_a[0].split(",") if path.endswith(".csv") else []
    for n, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        where = f"{path}:{n}"
        cells_a, cells_b = la.split(","), lb.split(",")
        if n > 1 and len(header) == len(cells_a) == len(cells_b):
            for column, ca, cb in zip(header, cells_a, cells_b):
                diff = compare_text(ca, cb, f"{where} {column}", rtol, problems)
                largest[column] = max(largest.get(column, 0.0), diff)
        else:
            largest[""] = max(largest[""], compare_text(la, lb, where, rtol, problems))
    largest[""] = max(largest.values())
    return largest


def files(root: Path) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if not 0.0 <= args.rtol < math.inf:  # NaN fails both comparisons
        parser.error(f"--rtol must be a finite number >= 0, got {args.rtol}")
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")

    problems = []
    have_a, have_b = files(args.parent), files(args.change)
    for path in sorted(have_a - have_b):
        problems.append(f"{path}: only in {args.parent}")
    for path in sorted(have_b - have_a):
        problems.append(f"{path}: only in {args.change}")
    for path in sorted(have_a & have_b):
        a = (args.parent / path).read_text()
        b = (args.change / path).read_text()
        if Path(path).name == "exit":
            if a != b:
                problems.append(f"{path}: exit code {a.strip()} vs {b.strip()}")
            continue
        largest = compare_file(path, a, b, args.rtol, problems)
        columns = "".join(f"  {k}={v:.3g}" for k, v in largest.items() if k)
        print(f"{largest['']:.3g}  {path}{columns}")
    for p in problems:
        print(f"MISMATCH {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
