"""Compare two ``dsm`` output trees: every ``report.json`` and ``*.csv``.

Usage: ``python scripts/report_diff.py OLD NEW``

Both trees are walked recursively; ``timing.json`` holds wall-clock times
and is ignored.  A file present in one tree only, a key, a list length, a
check name, a ``pass`` flag, an integer, a string, a CSV header or a CSV
row count that differs is printed as a mismatch; in a CSV, a cell written
as an integer on both sides counts as an integer.  Floats are compared by
their relative change ``|a - b| / max(|a|, |b|)``: the largest change is
printed per ``report.json`` field and per CSV column.  Check and run
records are named by their ``check`` or ``label`` in a field's path, so
``runs[noise-sweep].checks[noise-gap].observed`` names one number.

Exit status: 0 when the trees hold the same values, 1 when anything
differs (a float included), 2 for bad usage.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _files(root: Path) -> set:
    paths = {*root.rglob("report.json"), *root.rglob("*.csv")}
    return {str(p.relative_to(root)) for p in paths if p.is_file()}


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _floats(x: str, y: str):
    """Two CSV cells as floats, or None when either is not a number or both
    are integers, which must match exactly."""
    if x.lstrip("-").isdigit() and y.lstrip("-").isdigit():
        return None
    try:
        return float(x), float(y)
    except ValueError:
        return None


def _item_name(item, index: int) -> str:
    if isinstance(item, dict):
        for key in ("check", "label"):
            if isinstance(item.get(key), str):
                return item[key]
    return "*" if not isinstance(item, (dict, list)) else str(index)


class Diff:
    """Mismatches and the largest relative float change per field."""

    def __init__(self):
        self.compared = 0  # files held by both trees
        self.mismatches = []
        self.floats = {}  # (file, field) -> largest relative change

    def change(self, where: tuple, a: float, b: float) -> None:
        self.floats[where] = max(self.floats.get(where, 0.0), _rel_change(a, b))

    def value(self, name: str, path: str, a, b) -> None:
        """Walk two parsed JSON values side by side."""
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                field = f"{path}.{key}" if path else key
                if key not in a or key not in b:
                    side = "new" if key in b else "old"
                    self.mismatches.append(f"{name}: {field}: only in the {side} tree")
                else:
                    self.value(name, field, a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatches.append(f"{name}: {path}: length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                ax, by = _item_name(x, i), _item_name(y, i)
                if ax != by:
                    self.mismatches.append(f"{name}: {path}[{i}]: {ax!r} != {by!r}")
                self.value(name, f"{path}[{ax}]", x, y)
        elif type(a) is float and type(b) is float:
            self.change((name, path), a, b)
        elif type(a) is not type(b) or a != b:
            self.mismatches.append(f"{name}: {path}: {a!r} != {b!r}")

    def table(self, name: str, a: list, b: list) -> None:
        """Compare two CSV files cell by cell, by column."""
        if a[:1] != b[:1]:
            self.mismatches.append(f"{name}: header {a[:1]} != {b[:1]}")
            return
        if len(a) != len(b):
            self.mismatches.append(f"{name}: {len(a) - 1} rows != {len(b) - 1} rows")
        columns = a[0] if a else []
        for r, (row_a, row_b) in enumerate(zip(a[1:], b[1:]), start=1):
            for col, x, y in zip(columns, row_a, row_b):
                if x == y:
                    continue
                pair = _floats(x, y)
                if pair is None:
                    self.mismatches.append(f"{name}: row {r} column {col}: {x!r} != {y!r}")
                else:
                    self.change((name, col), *pair)
            if len(row_a) != len(row_b):
                self.mismatches.append(f"{name}: row {r} has {len(row_a)} != {len(row_b)} cells")


def compare(old: Path, new: Path) -> Diff:
    diff = Diff()
    names_old, names_new = _files(old), _files(new)
    for name in sorted(names_old ^ names_new):
        side = "new" if name in names_new else "old"
        diff.mismatches.append(f"{name}: only in the {side} tree")
    for name in sorted(names_old & names_new):
        if name.endswith(".json"):
            diff.value(name, "", *(json.loads((root / name).read_text()) for root in (old, new)))
        else:
            diff.table(name, *(list(csv.reader((root / name).read_text().splitlines()))
                               for root in (old, new)))
        diff.compared += 1
    return diff


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: report_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    diff = compare(Path(args[0]), Path(args[1]))
    for line in diff.mismatches:
        print(f"mismatch: {line}")
    changed = {k: v for k, v in diff.floats.items() if v > 0.0}
    if changed:
        print("largest relative change per float field:")
        for (name, field), change in sorted(changed.items()):
            print(f"  {change:.3g}  {name}: {field}")
    print(f"{diff.compared} files compared: {len(diff.mismatches)} mismatches, "
          f"{len(changed)} float fields changed")
    return 1 if diff.mismatches or changed else 0


if __name__ == "__main__":
    sys.exit(main())
