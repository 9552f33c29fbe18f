#!/usr/bin/env python3
"""Say which fields of each moved chaos golden cell moved.

Usage::

    python tools/golden_diff.py                      # benchmarks/CHAOS_golden_mismatch.json
    python tools/golden_diff.py path/to/mismatch.json

The golden comparison (``tests/chaos_golden.py``) leaves an
expected/actual record pair per moved cell in the mismatch file.  This
prints one line per cell, sorted, naming every field that moved with its
old and new value — list fields by their length — and the hash fields
last, so a line reads from the cause to the fingerprint.  No
dependencies.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MISMATCH_PATH = ROOT / "benchmarks" / "CHAOS_golden_mismatch.json"
#: fields that only say *that* a run moved, never how
HASHES = ("campaign_fingerprint",)


def _show(value) -> str:
    if isinstance(value, list):
        return f"{len(value)} item(s)"
    return "absent" if value is None else str(value)


def cell_line(cell: str, expected: dict, actual: dict) -> str:
    """``cell: field old -> new, ...`` for the fields that differ."""
    moved = sorted(
        (name for name in {*expected, *actual} if expected.get(name) != actual.get(name)),
        key=lambda name: (name in HASHES, name),
    )
    changes = ", ".join(
        f"{name} {_show(expected.get(name))} -> {_show(actual.get(name))}" for name in moved
    )
    return f"{cell}: {changes}"


def main(argv) -> int:
    path = pathlib.Path(argv[0]) if argv else MISMATCH_PATH
    if not path.exists():
        print(f"{path}: no moved cells recorded")
        return 0
    pairs = json.loads(path.read_text())
    for cell in sorted(pairs):
        print(cell_line(cell, pairs[cell]["expected"], pairs[cell]["actual"]))
    print(f"{len(pairs)} moved cell(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
