#!/usr/bin/env python3
"""Interleaved, in-process A/B timing of two source trees on a perfbench workload.

Usage: python scripts/ab.py A_TREE B_TREE [--workload verify-many] [--rounds 12] [--seed 1]

Each tree's `src/kmetric` is copied into a temporary directory under a
package name of its own (`kmetric_a`, `kmetric_b`; the package imports
itself only relatively), so both load into one interpreter.  The job
lists are perfbench's own: `perfbench/run.py` next to this script is read
for the workload's seeded inputs, jobs and answer gate, and nothing under
`perfbench/` is changed.  The inputs are written to `.perfbench_work/` and
removed at the end.

After one untimed warm-up pass per tree, each round runs one pass of the
round's variant on each tree, the order alternating from round to round,
and measures the process CPU time of each pass.  Every answer is checked;
a failed job ends the run with exit code 1.  The script prints, per tree,
the median and the lowest-quartile CPU ms per pass and the rounds it won.
Interleaving puts both trees under the same machine drift, so an effect
of a few percent shows in about ten rounds on a noisy machine.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tree(tree: Path, name: str, into: Path):
    """Import `tree`'s kmetric sources as package `name` and return its cli module."""
    source = tree / "src" / "kmetric"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"error: no kmetric sources under {tree / 'src'}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_pass(bench, cli, jobs) -> tuple[float, list[str]]:
    """CPU seconds of one pass over `jobs`, and the problems of its answers."""
    gc.collect()
    problems = []
    start = time.process_time()
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job.argv)
        problems += [f"{job.label}: {p}" for p in bench.check(job.expect, code, json.loads(out.getvalue()))]
    return time.process_time() - start, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="source tree A (holds src/kmetric)")
    parser.add_argument("b", type=Path, help="source tree B")
    parser.add_argument("--workload", default="verify-many")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = load_perfbench()
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    bench.make_inputs(args.workload, "full", args.seed)
    refs = json.loads(bench.REFERENCES.read_text())
    variants = bench.build_jobs(args.workload, "full", args.seed, refs)
    names = ("a", "b")
    times = {name: [] for name in names}
    wins = dict.fromkeys(names, 0)
    with tempfile.TemporaryDirectory() as packages:
        sys.path.insert(0, packages)
        clis = {name: load_tree(tree.resolve(), f"kmetric_{name}", Path(packages))
                for name, tree in zip(names, (args.a, args.b))}
        try:
            for name in names:
                _, problems = run_pass(bench, clis[name], variants[0])
                if problems:
                    raise SystemExit(f"error: tree {name}: {'; '.join(problems)}")
            for round_ in range(args.rounds):
                jobs = variants[round_ % len(variants)]
                order = names if round_ % 2 == 0 else names[::-1]
                spent = {}
                for name in order:
                    spent[name], problems = run_pass(bench, clis[name], jobs)
                    if problems:
                        raise SystemExit(f"error: tree {name}: {'; '.join(problems)}")
                    times[name].append(spent[name])
                wins[min(names, key=spent.__getitem__)] += 1
        finally:
            shutil.rmtree(bench.workdir(args.workload, "full", args.seed), ignore_errors=True)

    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds: CPU ms per pass")
    for name, tree in zip(names, (args.a, args.b)):
        ms = sorted(1000 * t for t in times[name])
        low_quartile = statistics.quantiles(ms, n=4)[0] if len(ms) > 1 else ms[0]
        print(f"  {name} {str(tree):<40} median {statistics.median(ms):8.1f}"
              f"  q1 {low_quartile:8.1f}  won {wins[name]}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
