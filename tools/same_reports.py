"""Are two JSON-lines outputs identical apart from each line's elapsed field?

    python3 tools/same_reports.py A.jsonl B.jsonl

Exits 0 when both files have the same lines once `elapsed` is dropped from
every line that is a JSON object (key order is kept, so a reordered line
differs); otherwise prints the first differing line number and exits 1.
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


def first_difference(a: str, b: str) -> int | None:
    """The 1-based number of the first line where the texts differ, or None."""
    pairs = zip_longest(a.splitlines(), b.splitlines())
    for number, (x, y) in enumerate(pairs, start=1):
        if x is None or y is None or _without_elapsed(x) != _without_elapsed(y):
            return number
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as fa, open(argv[1]) as fb:
            number = first_difference(fa.read(), fb.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"same_reports: {exc}", file=sys.stderr)
        return 2
    if number is None:
        return 0
    print(f"first difference at line {number}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
