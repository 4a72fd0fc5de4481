#!/usr/bin/env python3
"""Recompute the dimension sequences of all stock families and compare
them against the known closed forms where one exists.

Usage: python scripts/dimension_tables.py [--budget-secs N]
"""

import argparse
import sys
import time

from kmetric.families import expected_sequence, make_space, parse_family
from kmetric.solver import DEFAULT_BUDGET_SECS, dimension_sequence
from kmetric.spaces import max_k

TOKENS = [
    "complete:3", "complete:5", "complete:8",
    "path:2", "path:5", "path:10",
    "cycle:7", "cycle:8", "cycle:10", "cycle:11",
    "petersen",
    "lollipop:5,2", "lollipop:5,4",
    "sqrt-primes:5", "sqrt-primes:8",
    "interval:6", "interval:11",
    "grid-ball:2,2", "grid-ball:2,3",
    "free-ball:2,2",
    "ladder:4", "ladder:6",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-secs", type=float, default=DEFAULT_BUDGET_SECS)
    args = parser.parse_args()

    width = max(len(t) for t in TOKENS)
    failures = 0
    for token in TOKENS:
        spec = parse_family(token)
        space = make_space(spec)
        start = time.monotonic()
        seq = dimension_sequence(space, budget_secs=args.budget_secs)
        elapsed = time.monotonic() - start
        values = ",".join(str(v) for v in seq.as_values()) + ",inf"
        expected = expected_sequence(spec)
        if expected is None:
            verdict = "(no closed form)"
        else:
            ok = expected.judge(seq)[2] == "PASS"
            verdict = "PASS" if ok else f"FAIL expected {expected.entries}"
            failures += 0 if ok else 1
        print(f"{token:<{width}}  n={space.n:<3} max_k={max_k(space):<3} "
              f"({values})  {verdict}  [{elapsed:.2f}s]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
