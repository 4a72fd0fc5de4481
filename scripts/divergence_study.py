#!/usr/bin/env python3
"""How dim_1 behaves on growing truncations of three infinite graphs:
lattice balls and free-group balls (where the infinite object has no
finite generator at all) versus the two-sided ladder (where it does).

Usage: python scripts/divergence_study.py [--max-radius N]
"""

import argparse
import sys

from kmetric.families import divergence_evidence


def show(family: str, radii, rank: int | None = None) -> None:
    kwargs = {} if rank is None else {"rank": rank}
    report = divergence_evidence(family, radii, **kwargs)
    name = family if rank is None else f"{family}(rank {rank})"
    trend = "non-decreasing" if report.dim1_nondecreasing else "NOT monotone"
    print(f"{name}: dim_1 {trend}")
    for entry in report.per_radius:
        flags = []
        if not entry.containment_verified:
            flags.append("WITNESS-MISMATCH")
        if entry.boundary_distortions:
            flags.append(f"distorted-pairs={entry.boundary_distortions}")
        print(f"  r={entry.radius:<2} n={entry.size:<4} dim_1={entry.dim1:<3} "
              f"witness pairs={entry.witness_pairs} "
              f"bisector coverage={entry.witness_fraction} {' '.join(flags)}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-radius", type=int, default=4)
    args = parser.parse_args()
    if args.max_radius < 1:
        parser.error("--max-radius must be at least 1")
    # Each study needs at least two radii.  Free-group balls stop at
    # radius 3 and lattice balls start at 2, so small values are widened.
    show("free_ball", range(1, min(max(args.max_radius, 2), 3) + 1), rank=2)
    show("grid_ball", range(2, max(args.max_radius, 3) + 1), rank=2)
    show("ladder", range(2, args.max_radius + 3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
