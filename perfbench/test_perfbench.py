"""Self-tests of the benchmark, at the tiny "smoke" size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import TIME_METRICS, Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFS = json.loads(run.REFERENCES.read_text())


@pytest.fixture(scope="module", autouse=True)
def remove_smoke_inputs():
    yield
    for path in run.WORK.glob("*-smoke-*"):
        if path.is_dir():
            shutil.rmtree(path)


def smoke_variants(workload: str, seed: int) -> list[list[run.Job]]:
    run.make_inputs(workload, "smoke", seed)
    return run.build_jobs(workload, "smoke", seed, REFS)


def smoke_jobs(workload: str, seed: int) -> list[run.Job]:
    return smoke_variants(workload, seed)[0]


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_a_correct_result(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.declared_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_planted_wrong_reference_is_a_failure():
    jobs = smoke_jobs("sequence-search", 5)
    assert not run.run_pass(jobs).failures
    jobs[0].expect["entries"] = [1] + jobs[0].expect["entries"][1:]
    failures = run.run_pass(jobs).failures
    assert len(failures) / len(jobs) > 0
    assert failures[0][0] == jobs[0].label and "entries" in failures[0][1][0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times_fit_in_traced_wall(workload):
    jobs = smoke_jobs(workload, 7)
    tracer = Tracer()
    tracer.install()
    try:
        first = run.run_pass(jobs, tracer)
        metrics = tracer.layer_metrics()
        second = run.run_pass(jobs, tracer)
        again = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert not first.failures and not second.failures
    assert sum(tracer.self_times()) <= second.wall
    assert sum(metrics[name] for name in TIME_METRICS) <= first.wall
    assert set(run.declared_units("per_layer")) - {"trace.overhead_s"} == set(metrics)
    assert tracer.absent() == []
    for name in ("solver.nodes", "spaces.validate_cells", "spaces.distinguish_pairs"):
        assert metrics[name] == again[name]
    assert metrics["cli.self_s"] > 0 and metrics["spaces.validate_cells"] > 0


def test_uninstall_restores_the_package():
    import kmetric.solver
    import kmetric.spaces

    originals = (kmetric.spaces.build_space, kmetric.solver.dim_exact, kmetric.spaces.DistinguisherMap.masks)
    tracer = Tracer()
    tracer.install()
    assert kmetric.spaces.build_space is not originals[0]
    tracer.uninstall()
    assert (kmetric.spaces.build_space, kmetric.solver.dim_exact,
            kmetric.spaces.DistinguisherMap.masks) == originals


def test_new_seed_changes_relabeling_but_not_answers():
    jobs = {seed: smoke_jobs("sequence-search", seed) for seed in (1, 2)}
    texts = {seed: run.relabel_path(run.workdir("sequence-search", "smoke", seed), 0, 0).read_text()
             for seed in (1, 2)}
    assert texts[1] != texts[2]
    assert [j.expect for j in jobs[1]] == [j.expect for j in jobs[2]]
    assert not run.run_pass(jobs[1]).failures
    assert not run.run_pass(jobs[2]).failures


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_variants_change_inputs_but_not_answers(workload):
    first, second = smoke_variants(workload, 6)
    assert [j.label for j in first] == [j.label for j in second]
    inputs = run.workdir(workload, "smoke", 6)
    if workload == "sequence-search":
        assert run.relabel_path(inputs, 0, 0).read_text() != run.relabel_path(inputs, 1, 0).read_text()
    elif workload == "analyze-large":
        assert run.graph_path(inputs, 0).read_text() != run.graph_path(inputs, 1).read_text()
    else:
        assert [j.argv for j in first] != [j.argv for j in second]
    # The random graph's answer is recomputed per variant; the rest is fixed.
    seeded = {j.label for j in first if j.label.startswith("G(")}
    assert ([j.expect for j in first if j.label not in seeded]
            == [j.expect for j in second if j.label not in seeded])
    assert not run.run_pass(first).failures
    assert not run.run_pass(second).failures


def test_graph_max_k_matches_the_program():
    run.make_inputs("analyze-large", "smoke", 4)
    path = run.graph_path(run.workdir("analyze-large", "smoke", 4), 0)
    kmetric = run.import_kmetric()
    space = kmetric.shortest_path_metric(kmetric.parse_edge_list(path.read_text()))
    assert run.graph_max_k(path) == (space.n, kmetric.max_k(space))
