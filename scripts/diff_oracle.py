"""Compare two ``check_oracle.py`` logs query by query.

Usage: python scripts/diff_oracle.py A B

A and B are each a log file, or several comma-separated logs of one
checkout merged by query name (a later log wins, so a rerun of some
queries can patch an interrupted run).  Timings are ignored.  Every
query's status (OK / FAIL / ROWS) and engine ``value_hash`` must be
identical on both sides, and every query must appear on both sides;
otherwise the differences are printed and the exit code is 1.
"""

from __future__ import annotations

import re
import sys

LINE = re.compile(r"^(OK|FAIL|ROWS)\s+(\S+?):.*?(?:value_hash=(\w+))?\s*$")


def parse(paths: str) -> dict:
    """query name -> (status, value_hash or None), merged over the
    comma-separated log ``paths`` in order."""
    out = {}
    for path in paths.split(","):
        with open(path, errors="replace") as f:
            for line in f:
                m = LINE.match(line)
                if m:
                    out[m.group(2)] = (m.group(1), m.group(3))
    return out


def diff(a: dict, b: dict) -> list:
    """One message per query that differs or is missing from a side."""
    msgs = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            msgs.append(f"{name}: only in {'B' if name not in a else 'A'}")
        elif a[name] != b[name]:
            msgs.append(f"{name}: A {a[name][0]} {a[name][1]} != B {b[name][0]} {b[name][1]}")
    return msgs


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip())
        return 2
    a, b = parse(argv[1]), parse(argv[2])
    if not a or not b:
        print("no OK / FAIL / ROWS line in", argv[1] if not a else argv[2])
        return 1
    msgs = diff(a, b)
    for m in msgs:
        print(m)
    print(f"{len(set(a) | set(b)) - len(msgs)} queries identical, {len(msgs)} differ")
    return 1 if msgs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
