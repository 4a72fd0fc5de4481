#!/usr/bin/env python3
"""Time the hard solves of the ROADMAP table and record them in a BENCH file.

Usage: python scripts/bench.py

Each row is one `dim_exact` call with no budget and no `prev_dim`, run 3
times on the source tree next to this script.  A row records the median
wall time, the node count, the optimum and the basis labels, and
`main_nodes`, the nodes of one more call with `lex_min=False`: the main
search alone, without the lex-min rebuild.  The file also records the
Python version and `os.cpu_count()`.  Before anything is
written, every optimum must equal its known value, every basis must be a
k-generator of that size, and both must equal those of the same row in the
newest BENCH_<m>.json at the repository root with m <= NUMBER, if there is
one; a rerun at the same NUMBER is thus checked against the file it is
about to replace.  On any disagreement nothing is written and the exit
code is 1.  A run takes about a minute.
"""

import json
import os
import platform
import random
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kmetric.families import expected_sequence, make_space, parse_family  # noqa: E402
from kmetric.graphs import shortest_path_metric  # noqa: E402
from kmetric.randgen import random_connected_graph  # noqa: E402
from kmetric.solver import dim_exact  # noqa: E402
from kmetric.spaces import is_k_generator  # noqa: E402

# The file this script writes is BENCH_<NUMBER>.json; when a solver change
# moves a row, raise NUMBER so the earlier file stays as the trajectory.
NUMBER = 22
RUNS = 3


def family(token):
    return lambda: make_space(parse_family(token))


def rand(n):
    """The ROADMAP's "rand n": a sparse random graph on seed 1."""
    return lambda: shortest_path_metric(random_connected_graph(n, random.Random(1), edge_prob=0.08))


# (row name, space builder, k, known optimum)
ROWS = (
    ("grid-ball:2,5 k=7", family("grid-ball:2,5"), 7, 14),
    ("grid-ball:2,5 k=8", family("grid-ball:2,5"), 8, 16),
    ("grid-ball:2,5 k=9", family("grid-ball:2,5"), 9, 18),
    ("cycle:30 k=15", family("cycle:30"), 15, expected_sequence(parse_family("cycle:30")).entries[14]),
    ("rand 60 k=1", rand(60), 1, 5),
)


def measure(name, build, k):
    space = build()
    walls = []
    answers = set()
    for _ in range(RUNS):
        start = time.perf_counter()
        report = dim_exact(space, k, budget_secs=None)
        walls.append(time.perf_counter() - start)
        answers.add((report.status, report.optimum.value, report.basis.indices, report.nodes_explored))
    if len(answers) != 1:
        raise SystemExit(f"error: {name}: the runs disagree: {sorted(answers)}")
    [(status, optimum, indices, nodes)] = answers
    if len(indices) != optimum or not is_k_generator(space, indices, k).valid:
        raise SystemExit(f"error: {name}: the basis {indices} is not an optimal {k}-generator")
    main = dim_exact(space, k, budget_secs=None, lex_min=False)
    if (main.status, main.optimum.value) != (status, optimum):
        raise SystemExit(f"error: {name}: the main search alone gives {main.status} {main.optimum}")
    return {
        "name": name,
        "k": k,
        "n": space.n,
        "status": status,
        "optimum": optimum,
        "basis": [space.labels[i] for i in indices],
        "nodes": nodes,
        "main_nodes": main.nodes_explored,
        "wall_s": round(statistics.median(walls), 4),
    }


def previous_file():
    """The newest BENCH_<m>.json at the repository root with m <= NUMBER, or None."""
    numbered = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) <= NUMBER:
            numbered.append((int(match.group(1)), path))
    return max(numbered)[1] if numbered else None


def main() -> int:
    rows = []
    for name, build, k, _ in ROWS:
        row = measure(name, build, k)
        rows.append(row)
        print(f"{name:<20} optimum {row['optimum']:>3}  nodes {row['nodes']:>8}"
              f"  main {row['main_nodes']:>8}  {row['wall_s']:.3f} s",
              file=sys.stderr)
    problems = []
    for (name, _, _, known), row in zip(ROWS, rows):
        if row["status"] != "optimal" or row["optimum"] != known:
            problems.append(f"{name}: {row['status']} {row['optimum']}, known optimum {known}")
    earlier = previous_file()
    if earlier is not None:
        before = {row["name"]: row for row in json.loads(earlier.read_text())["rows"]}
        for row in rows:
            old = before.get(row["name"])
            if old is not None and (old["optimum"], old["basis"]) != (row["optimum"], row["basis"]):
                problems.append(f"{row['name']}: optimum {row['optimum']} basis {row['basis']},"
                                f" but {earlier.name} has {old['optimum']} {old['basis']}")
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": RUNS,
        "compared_with": None if earlier is None else earlier.name,
        "rows": rows,
    }
    out = ROOT / f"BENCH_{NUMBER}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
