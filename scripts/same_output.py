#!/usr/bin/env python3
"""Check that two source trees give the same command-line output.

Usage: python scripts/same_output.py OLD_TREE NEW_TREE

Each run of a fixed list of `kmetric` invocations (every subcommand in
each of its formats, truncated inputs, unbudgeted runs whose levels need
search, runs bounded by a 1e-9 s budget, and input errors) is made in a
fresh interpreter against each tree's `src/`, from an empty working
directory.  Exit code, stdout and stderr are compared byte for byte.  One SAME or DIFF line is printed per run,
and the script exits 1 when any run differs.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

# The child puts the tree's src/ first on sys.path and runs the command line.
CHILD = "import sys; sys.path.insert(0, sys.argv.pop(1)); from kmetric.cli import main; sys.exit(main(sys.argv[1:]))"

BOUNDED = ["--budget-secs", "1e-9"]

RUNS = [
    ["analyze", "--family", "petersen", "--k", "2", "--format", "json"],
    ["analyze", "--family", "grid-ball:2,3", "--k", "1", "--format", "csv"],
    ["analyze", "--family", "sqrt-primes:8", "--k", "1", "--t", "1/2"],
    ["analyze", "--family", "grid-ball:2,5", "--k", "8", "--format", "json", *BOUNDED],
    ["analyze", "--family", "grid-ball:2,4", "--k", "5", *BOUNDED],
    ["sequence", "--family", "cycle:8", "--format", "json"],
    ["sequence", "--family", "ladder:6", "--format", "csv"],
    ["sequence", "--family", "petersen"],
    ["sequence", "--family", "cycle:10", "--t", "2", "--format", "json"],
    ["sequence", "--family", "grid-ball:2,3", "--format", "json"],
    ["sequence", "--family", "ladder:10", "--format", "json"],
    ["sequence", "--family", "grid-ball:2,4", "--format", "json"],
    ["sequence", "--family", "grid-ball:2,3", "--format", "json", *BOUNDED],
    ["sequence", "--family", "grid-ball:2,3", "--format", "csv", *BOUNDED],
    ["verify", "--suite", "monotonicity", "--random", "5", "--n", "7", "--format", "json"],
    ["verify", "--suite", "monotonicity", "--random", "20", "--n", "12", "--seed", "5", "--format", "json"],
    ["verify", "--suite", "monotonicity", "--random", "60", "--n", "12", "--seed", "7", "--format", "json"],
    ["verify", "--suite", "truncation", "--random", "4", "--n", "7", "--s", "1/2", "--t", "3/2"],
    ["verify", "--suite", "truncation", "--random", "13", "--n", "14", "--seed", "3", "--format", "json",
     *BOUNDED],
    ["verify", "--suite", "join", "--random", "5", "--n", "5", "--format", "json"],
    ["verify", "--suite", "join-trivial", "--random", "4", "--n", "5"],
    ["verify", "--suite", "bipartite", "--family", "grid-ball:2,3", "--format", "json"],
    ["verify", "--suite", "bipartite", "--random", "5", "--n", "8"],
    ["join", "--family", "interval:3", "--family2", "sqrt-primes:3", "--t", "1", "--k-max", "2",
     "--format", "json"],
    ["join", "--family", "path:4", "--family2", "interval:4", "--t", "1/2", "--k", "1", "--format", "csv"],
    ["join", "--family", "grid-ball:2,3", "--family2", "free-ball:2,2", "--t", "1", "--k-max", "2", *BOUNDED],
    ["join", "--family", "sqrt-primes:3", "--family2", "path:3", "--t", "1", "--format", "json"],
    ["join", "--family", "grid-ball:2,3", "--family2", "path:3", "--t", "1", "--k-max", "3", "--format", "json"],
    ["analyze", "--family", "free-ball:5,1", "--k", "1"],
    ["analyze", "--family", "cycle:2"],
    ["analyze", "--input", "missing.json", "--k", "1"],
    ["join", "--family", "path:3", "--family2", "complete:3", "--t", "1"],
    ["sequence", "--family", "cycle:5", "--k-max", "0"],
]


def run(tree: Path, argv: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-B", "-c", CHILD, str(tree / "src"), *argv],
                          cwd=cwd, capture_output=True, timeout=600)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree (holds src/kmetric)")
    parser.add_argument("new", type=Path, help="source tree to compare with it")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.old, args.new)]
    for tree in trees:
        if not (tree / "src" / "kmetric" / "__init__.py").is_file():
            raise SystemExit(f"error: no kmetric sources under {tree / 'src'}")
    differ = 0
    with tempfile.TemporaryDirectory() as cwd:
        for command in RUNS:
            old, new = (run(tree, command, cwd) for tree in trees)
            parts = [name for name, a, b in (("exit", old.returncode, new.returncode),
                                             ("stdout", old.stdout, new.stdout),
                                             ("stderr", old.stderr, new.stderr)) if a != b]
            differ += bool(parts)
            print(f"{'DIFF' if parts else 'SAME'} kmetric {' '.join(command)}"
                  + (f"  ({', '.join(parts)} differ)" if parts else ""), flush=True)
    print(f"{len(RUNS) - differ}/{len(RUNS)} runs the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
