"""Answer-gated benchmark of the kmetric command line.

    python3 perfbench/run.py --workload sequence-search --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process, one thread, one closed-loop
client: a pass runs the workload's jobs in a fixed order, each one
``kmetric.cli.main([...argv, "--format", "json"])`` started after the
previous one returned, and checks every answer.  Passes repeat until the
next one would overrun ``--seconds``.  The seed makes a pool of input
variants (relabelings, random graphs, verify instance seeds) and pass i
runs variant i mod pool size, so a run's median covers many seeded inputs
rather than one draw.

``--trace 0`` prints the end-to-end metrics (medians over passes);
``--trace 1`` alternates plain and traced passes, all on variant 0 so
that counts repeat exactly, and prints the per-layer metrics of the traced
ones.  The last line of stdout is the result JSON;
the run record (machine, calibration, per-pass and per-job times, failures)
goes to stderr and to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

WORKLOADS = ("sequence-search", "analyze-large", "verify-many")

# Far above every job (the slowest takes a few seconds), so a level never
# runs out of budget; a `bounded` answer counts as a failure anyway.
BUDGET_SECS = "120"

# Setup runs in a fresh interpreter this many times per plain run; the
# median is setup_s.
SETUP_REPEATS = 5

# Job lists.  "full" is the benchmark; "smoke" is the same shape at a
# tiny size for the self-tests.  Every family named here has a reference
# in references.json (see record_references.py).  "variants" is the size
# of the per-seed pool of seeded inputs that passes cycle through.
SIZES = {
    "full": {
        "variants": 12,
        # sequence-search: the solver does nearly all the work.
        "sequence": ("cycle:18", "grid-ball:2,3", "ladder:10", "petersen", "sqrt-primes:8"),
        # Seeded relabelings, written as space JSON, per variant.  Small on
        # purpose: relabeled ladder:8 already takes 5-16 s against 0.5 s in
        # stock order, and one relabeled ladder:4 takes 0.1-0.5 s by seed.
        "relabel": ("ladder:4",) * 2,
        # analyze-large: validation, distinguishers and greedy on n = 53..80.
        "graph": (80, 0.08),
        "space_json": "sqrt-primes:60",
        "analyze": ("grid-ball:2,5", "free-ball:2,3"),
        # verify-many: thousands of n <= 12 spaces built through truncate/join.
        "verify": (("truncation", 100, 9), ("join", 100, 6), ("monotonicity", 60, 12)),
    },
    "smoke": {
        "variants": 2,
        "sequence": ("petersen", "sqrt-primes:8"),
        "relabel": ("ladder:4",),
        "graph": (16, 0.35),
        "space_json": "sqrt-primes:8",
        "analyze": ("grid-ball:2,2",),
        "verify": (("truncation", 3, 6), ("join", 3, 4), ("monotonicity", 3, 6)),
    },
}


# --- inputs ------------------------------------------------------------------

def import_kmetric():
    """Import kmetric from this checkout's src/, never from anywhere else."""
    if not (SRC / "kmetric" / "__init__.py").is_file():
        raise SystemExit(f"error: no kmetric sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kmetric
    import kmetric.cli

    if Path(kmetric.__file__).resolve().parent != (SRC / "kmetric").resolve():
        raise SystemExit(f"error: imported kmetric from {kmetric.__file__}, not {SRC}")
    return kmetric


def workdir(workload: str, size: str, seed: int) -> Path:
    return WORK / f"{workload}-{size}-{seed}"


def relabel_path(inputs: Path, variant: int, i: int) -> Path:
    return inputs / f"relabel-{variant}-{i}.json"


def graph_path(inputs: Path, variant: int) -> Path:
    return inputs / f"graph-{variant}.txt"


def instance_seed(seed: int, variant: int, size: str) -> int:
    """The `verify --seed` of one variant; distinct for every (seed, variant)."""
    return seed * SIZES[size]["variants"] + variant


def make_inputs(workload: str, size: str, seed: int) -> None:
    """Generate and write the workload's seeded input pool (the timed setup)."""
    kmetric = import_kmetric()
    from kmetric.graphs import format_edge_list
    from kmetric.randgen import random_connected_graph

    spec = SIZES[size]
    inputs = workdir(workload, size, seed)
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    rng = random.Random(seed)
    if workload == "sequence-search":
        stock = {member: kmetric.make_space(kmetric.parse_family(member)) for member in spec["relabel"]}
        for variant in range(spec["variants"]):
            for i, member in enumerate(spec["relabel"]):
                perm = list(range(stock[member].n))
                rng.shuffle(perm)
                relabel_path(inputs, variant, i).write_text(
                    kmetric.dump_space(kmetric.permute_space(stock[member], perm)))
    elif workload == "analyze-large":
        n, p = spec["graph"]
        for variant in range(spec["variants"]):
            graph_path(inputs, variant).write_text(
                format_edge_list(random_connected_graph(n, rng, edge_prob=p)))
        space = kmetric.make_space(kmetric.parse_family(spec["space_json"]))
        (inputs / "space.json").write_text(kmetric.dump_space(space))


def timed_setup(workload: str, size: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has written the inputs.

    The child prints its clock reading when the inputs are ready; both
    processes read the same system-wide monotonic clock.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--size", size, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup exited with {proc.returncode}")
    return float(proc.stdout.split()[-1]) - start


def graph_max_k(path: Path) -> tuple[int, int]:
    """(n, max_k) of an edge-list graph by this benchmark's own BFS and pair count."""
    index: dict[str, int] = {}
    edges = []
    for line in path.read_text().splitlines():
        if line.startswith("vertices:"):
            for label in line.split()[1:]:
                index.setdefault(label, len(index))
        elif line.strip():
            a, b = line.split()
            edges.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
    n = len(index)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for source in range(n):
        row = [-1] * n
        row[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist.append(row)
    # d is symmetric, so row u lists d(x, u) for every x.
    return n, min(sum(a != b for a, b in zip(dist[u], dist[v]))
                  for u in range(n) for v in range(u + 1, n))


# --- jobs and the answer gate --------------------------------------------------

@dataclass
class Job:
    """One CLI invocation and the answer fields it must reproduce."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


def build_jobs(workload: str, size: str, seed: int, refs: dict) -> list[list[Job]]:
    """One job list per variant of the seeded input pool.

    Every list has the same jobs at the same positions; only the seeded
    inputs differ."""
    return [variant_jobs(workload, size, seed, variant, refs)
            for variant in range(SIZES[size]["variants"])]


def variant_jobs(workload: str, size: str, seed: int, variant: int, refs: dict) -> list[Job]:
    spec = SIZES[size]
    inputs = workdir(workload, size, seed)
    tail = ["--format", "json", "--budget-secs", BUDGET_SECS]
    optimal = {"status": "optimal"}
    if workload == "sequence-search":
        jobs = [Job(member, ["sequence", "--family", member, *tail],
                    {**refs[f"sequence {member}"], **optimal})
                for member in spec["sequence"]]
        jobs += [Job(f"relabeled {member} #{i}",
                     ["sequence", "--input", str(relabel_path(inputs, variant, i)), *tail],
                     {**refs[f"sequence {member}"], **optimal})
                 for i, member in enumerate(spec["relabel"])]
        return jobs
    if workload == "analyze-large":
        n, p = spec["graph"]
        graph = graph_path(inputs, variant)
        graph_n, graph_cap = graph_max_k(graph)
        member = spec["space_json"]
        jobs = [
            Job(f"G({n},{p})", ["analyze", "--input", str(graph), *tail],
                {"n": graph_n, "max_k": graph_cap}),
            Job(f"{member} json", ["analyze", "--input", str(inputs / "space.json"), "--k", "1", *tail],
                {**refs[f"analyze {member} k=1"], **optimal}),
        ]
        jobs += [Job(member, ["analyze", "--family", member, "--k", "1", *tail],
                     {**refs[f"analyze {member} k=1"], **optimal})
                 for member in spec["analyze"]]
        return jobs
    if workload == "verify-many":
        return [Job(suite, ["verify", "--suite", suite, "--random", str(count), "--n", str(n),
                            "--seed", str(instance_seed(seed, variant, size)), *tail],
                    {"suite": suite, "cases": count, "passed": True})
                for suite, count, n in spec["verify"]]
    raise ValueError(f"unknown workload {workload!r}")


def check(expect: dict, code: int, payload: dict) -> list[str]:
    """Problems with one job's answer; empty when it is right."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if payload.get("status") == "bounded":
        problems.append("bounded: the budget ran out")
    for key, want in expect.items():
        if payload.get(key) != want:
            problems.append(f"{key}: got {payload.get(key)!r}, want {want!r}")
    basis = payload.get("basis")
    if basis is not None:
        if not (payload.get("certificate") or {}).get("valid"):
            problems.append("basis certificate is not valid")
        if len(basis) != payload.get("dim"):
            problems.append(f"|basis| = {len(basis)} but dim = {payload.get('dim')}")
    return problems


def run_job(job: Job, tracer=None) -> list[str]:
    import kmetric.cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = kmetric.cli.main(job.argv)
            else:
                with tracer.span(f"job:{job.label}"):
                    code = kmetric.cli.main(job.argv)
        payload = json.loads(out.getvalue())
    except SystemExit as exc:  # argparse rejected the arguments
        return [f"exit {exc.code} from argument parsing"]
    except Exception:  # any crash is a failed job, not a failed benchmark
        return ["uncaught exception:\n" + traceback.format_exc()]
    return check(job.expect, code, payload)


@dataclass
class Pass:
    wall: float
    cpu: float
    job_walls: list[float]
    failures: list[tuple[str, list[str]]]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(jobs: list[Job], tracer=None) -> Pass:
    gc.collect()
    if tracer is not None:
        tracer.reset()
    job_walls, failures = [], []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        problems = run_job(job, tracer)
        job_walls.append(time.perf_counter() - t0)
        if problems:
            failures.append((job.label, problems))
    wall = time.perf_counter() - start
    return Pass(wall, cpu_seconds() - cpu0, job_walls, failures)


def measure(variants: list[list[Job]], seconds: float, tracer=None):
    """A warm-up pass of variant 0, then plain passes (alternating with
    traced ones when tracing) until the next round would overrun `seconds`,
    warm-up included.  Plain pass i runs variant i mod len(variants); when
    tracing, every pass runs variant 0, so that traced counts repeat
    exactly and plain and traced passes do the same work.  Returns (warm-up,
    peak RSS after it, plain, traced, layer metrics of each traced pass);
    the warm-up's answers are gated, its times are not reported."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    warmup = run_pass(variants[0])
    warm_rss = peak_rss_mb()
    rounds_start = time.perf_counter()
    while True:
        jobs = variants[0 if tracer is not None else len(plain) % len(variants)]
        plain.append(run_pass(jobs))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
        now = time.perf_counter()
        if now - start + (now - rounds_start) / len(plain) > seconds:
            return warmup, warm_rss, plain, traced, layers


# --- run record ------------------------------------------------------------------

def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop, to tell machine drift from effect."""
    def loop():
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return time.perf_counter() - start
    return statistics.median(loop() for _ in range(5))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_job_medians(jobs: list[Job], passes: list[Pass]) -> dict[str, float]:
    return {job.label: statistics.median(p.job_walls[i] for p in passes)
            for i, job in enumerate(jobs)}


# --- main --------------------------------------------------------------------------

def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="smoke: tiny job lists for the self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        make_inputs(args.workload, args.size, args.seed)
        print(time.monotonic())
        return 0
    import_kmetric()
    calibration = [calibrate()]
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = [timed_setup(args.workload, args.size, args.seed) for _ in range(repeats)]
    refs = json.loads(REFERENCES.read_text())
    variants = build_jobs(args.workload, args.size, args.seed, refs)
    jobs = variants[0]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    warmup, warm_rss, plain, traced, layers = measure(variants, args.seconds, tracer)
    calibration.append(calibrate())

    passes = [warmup] + plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(jobs) * len(passes)
    if args.trace:
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(p.wall for p in plain))
        units = declared_units("per_layer")
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in plain),
            "cpu_s": statistics.median(p.cpu for p in plain),
            "setup_s": statistics.median(setups),
            # After a fixed amount of work, not after as many passes as the
            # machine's speed allowed: the high-water mark creeps up by
            # about 0.1 MB a pass.
            "peak_rss_mb": warm_rss,
        }
        units = declared_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(), "commit": git_commit(), "calibration_s": calibration,
        "setup_s": setups, "passes": len(plain), "pass_wall_s": [p.wall for p in plain],
        "pass_cpu_s": [p.cpu for p in plain], "job_wall_s": per_job_medians(jobs, plain),
        "variants": len(variants), "peak_rss_mb_after_warmup": warm_rss,
        "peak_rss_mb_at_end": peak_rss_mb(),
        "pass_job_wall_s": [p.job_walls for p in plain],
        "error_rate": len(failures) / attempted, "failures": failures,
    }
    if args.trace:
        record["traced_wall_s"] = [p.wall for p in traced]
        record["absent_spans"] = tracer.absent()
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-{args.seed}-trace{args.trace}"
    (WORK / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (WORK / f"spans-{stem}.json").write_text(json.dumps(tracer.spans))
    shutil.rmtree(workdir(args.workload, args.size, args.seed), ignore_errors=True)
    print(json.dumps(record), file=sys.stderr)
    for label, problems in failures:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
