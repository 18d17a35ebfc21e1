"""Are two JSON-lines outputs identical apart from each line's elapsed field?

    python3 tools/same_reports.py A.jsonl B.jsonl

Exits 0 when both files have the same lines once `elapsed` is dropped from
every line that is a JSON object (key order is kept, so a reordered line
differs); otherwise prints the first differing line number, then that line
of each file with `elapsed` dropped (or "(no line)" past a file's end), and
exits 1.
Exits 2 on a usage error or a file it cannot read.
"""

from __future__ import annotations

import json
import sys
from itertools import zip_longest


def _without_elapsed(line: str) -> str:
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return line
    if isinstance(record, dict):
        record.pop("elapsed", None)
    return json.dumps(record)


def first_difference(a: str, b: str) -> tuple[int, str | None, str | None] | None:
    """The 1-based number of the first line where the texts differ, with
    that line of each text without `elapsed` (None past its end), or None."""
    pairs = zip_longest(a.splitlines(), b.splitlines())
    for number, lines in enumerate(pairs, start=1):
        x, y = (None if line is None else _without_elapsed(line) for line in lines)
        if x != y:  # a line past one file's end is None
            return number, x, y
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as fa, open(argv[1]) as fb:
            difference = first_difference(fa.read(), fb.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"same_reports: {exc}", file=sys.stderr)
        return 2
    if difference is None:
        return 0
    number, *lines = difference
    print(f"first difference at line {number}")
    for path, line in zip(argv, lines):
        print(f"{path}: {'(no line)' if line is None else line}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
