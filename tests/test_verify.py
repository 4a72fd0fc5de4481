import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from kmetric.errors import KMetricError
from kmetric.families import make, parse_family
from kmetric.graphs import is_bipartite
from kmetric.randgen import (
    random_bipartite_connected_graph,
    random_connected_graph,
    random_rational_metric,
)
from kmetric import solver, verify
from kmetric.solver import dim_exact
from kmetric.spaces import all_distinguishers, bisector, join, permute_space, truncate
from kmetric.verify import (
    SuiteResult,
    bipartite_suite,
    join_dimensions,
    join_suite,
    join_trivial_suite,
    monotonicity_suite,
    run_suite,
    truncation_suite,
)


class TestGenerators:
    @given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=10**6))
    def test_connected_graph_deterministic(self, n, seed):
        g1 = random_connected_graph(n, random.Random(seed))
        g2 = random_connected_graph(n, random.Random(seed))
        assert g1 == g2
        assert g1.n == n

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_rational_metric_valid(self, n, seed):
        space = random_rational_metric(n, random.Random(seed))
        assert space.n == n  # build_space already enforced the metric axioms
        assert random_rational_metric(n, random.Random(seed)) == space

    @given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=10**6))
    def test_bipartite_generator(self, n, seed):
        g = random_bipartite_connected_graph(n, random.Random(seed))
        assert is_bipartite(g).bipartite


class TestSuites:
    def test_monotonicity(self):
        result = monotonicity_suite(count=8, n=7, seed=0)
        assert result.passed and result.cases == 8

    def test_truncation(self):
        result = truncation_suite(count=4, n=6, seed=0)
        assert result.passed

    def test_truncation_custom_pair(self):
        result = truncation_suite(count=3, n=6, seed=1,
                                  st_pairs=((Fraction(1, 2), Fraction(3)),))
        assert result.passed

    @pytest.mark.parametrize("fake", [
        # d^1 stands in for d^2 and d^2 for d^1: a bisector under s may be
        # smaller than under t.
        lambda space, cap: truncate(space, 3 - cap),
        # relabeled copies: the bisectors of a pair need not nest either way
        lambda space, cap: permute_space(space, [(x + int(cap)) % space.n for x in range(space.n)]),
    ], ids=["swapped-caps", "rotated"])
    def test_truncation_reports_broken_nesting(self, monkeypatch, fake):
        # The suite must report exactly the pairs whose bisector sets fail
        # plain <= under t <= under s for the spaces it was given.
        monkeypatch.setattr(verify, "truncate", fake)
        result = truncation_suite(count=6, n=7, seed=0, st_pairs=((Fraction(1), Fraction(2)),))
        reported = sorted((f["case"], f["detail"]) for f in result.failures
                          if f["detail"].startswith("bisector nesting"))
        expected = []
        rng = random.Random(0)
        for case in range(6):
            space = random_rational_metric(rng.randint(3, 7), rng)
            under_t, under_s = fake(space, Fraction(2)), fake(space, Fraction(1))
            for u, v in space.pairs():
                plain, b_t, b_s = (set(bisector(x, u, v)) for x in (space, under_t, under_s))
                if not (plain <= b_t <= b_s):
                    expected.append((case, f"bisector nesting fails for pair ({u},{v}) at s=1, t=2"))
        assert expected and reported == sorted(expected)

    def test_join(self):
        result = join_suite(count=5, n=4, seed=0)
        assert result.passed

    def test_join_trivial(self):
        result = join_trivial_suite(count=5, n=4, seed=0)
        assert result.passed

    def test_bipartite_random(self):
        result = bipartite_suite(count=6, n=8, seed=0)
        assert result.passed and result.cases == 6

    def test_bipartite_family(self):
        grid = make(parse_family("grid-ball:2,3"))
        result = bipartite_suite(graphs=[grid])
        assert result.passed and result.cases == 1

    def test_given_graph_with_an_odd_cycle_rejected_before_any_case(self, monkeypatch):
        monkeypatch.setattr(verify, "check_odd_distance_bisectors", None)  # any case run would crash
        grid, petersen = make(parse_family("grid-ball:2,3")), make(parse_family("petersen"))
        with pytest.raises(KMetricError, match="odd cycle u1 u5 u4 u3 u2 u1"):
            bipartite_suite(graphs=[grid, petersen])

    def test_same_seed_same_result(self):
        a = monotonicity_suite(count=5, n=6, seed=3)
        b = monotonicity_suite(count=5, n=6, seed=3)
        assert a == b


class TestBudgetExhaustion:
    # A 1e-9 s budget has passed by the first search node, so every solve
    # the root bounds do not close is bounded, and its case fails.
    @pytest.mark.parametrize("suite, count, n", [("truncation", 13, 14), ("join", 60, 8),
                                                 ("join-trivial", 10, 14)])
    def test_a_bounded_solve_fails_its_case(self, suite, count, n):
        result = run_suite(suite, count=count, n=n, seed=3, budget_secs=1e-9)
        assert not result.passed
        assert {f["detail"] for f in result.failures} <= {
            "budget exhausted at k=1", "budget exhausted at k=2"}
        assert run_suite(suite, count=count, n=n, seed=3).passed


class TestMonotonicityBudget:
    def test_a_bounded_level_fails_its_case_and_ends_it(self, monkeypatch):
        # At cap 0 no cluster is solved exactly, so a level the root bounds
        # leave open searches, and a spent budget bounds it.
        monkeypatch.setattr(solver, "COMPONENT_SUPPORT_CAP", 0)
        levels = []
        monkeypatch.setattr(verify, "dim_exact", lambda space, k, **options: (
            levels.append(dim_exact(space, k, **options)) or levels[-1]))
        result = run_suite("monotonicity", count=5, n=6, seed=0, budget_secs=-1.0)
        assert [(f["case"], f["detail"]) for f in result.failures] == [
            (3, "budget exhausted at k=2"), (0, "budget exhausted at k=4")]
        # no level is solved past a bounded one: the next solve opens a case
        assert all(after.k == 1 for before, after in zip(levels, levels[1:]) if before.status == "bounded")
        assert run_suite("monotonicity", count=5, n=6, seed=0).passed


def _solve_every_space(budget_secs):
    """The case solver without its memo: one solve per space and k."""
    return lambda space, k: verify.dim_exact(space, k, budget_secs=budget_secs)


class TestOneSolvePerSystem:
    """Within a case, spaces with equal distinguisher masks share one solve per k."""

    SUITES = [("truncation", 12, 8), ("join", 12, 5), ("join-trivial", 12, 4)]

    @staticmethod
    def solves_per_case(monkeypatch, suite, count, n, seed):
        """The (masks, k) of each dim_exact call, grouped by case."""
        cases = []
        monkeypatch.setattr(verify, "dim_exact", lambda space, k, **options: (
            cases[-1].append((all_distinguishers(space).masks, k)) or dim_exact(space, k, **options)))
        case_solver = verify._case_solver
        monkeypatch.setattr(verify, "_case_solver", lambda budget_secs: (
            cases.append([]) or case_solver(budget_secs)))
        result = run_suite(suite, count=count, n=n, seed=seed)
        return result, cases

    @pytest.mark.parametrize("suite, count, n", SUITES)
    def test_each_distinct_system_is_solved_once_per_case(self, monkeypatch, suite, count, n):
        result, cases = self.solves_per_case(monkeypatch, suite, count, n, seed=5)
        monkeypatch.setattr(verify, "_case_solver", _solve_every_space)
        reference, every = self.solves_per_case(monkeypatch, suite, count, n, seed=5)
        assert result == reference and len(cases) == len(every) == count
        assert [list(dict.fromkeys(solves)) for solves in every] == cases
        # repeats within a case are common, so the memo is exercised
        assert sum(map(len, every)) > sum(map(len, cases))

    @pytest.mark.parametrize("budget_secs", [None, 1e-9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("suite, count, n", SUITES)
    def test_the_result_is_that_of_solving_every_space(self, monkeypatch, suite, count, n, seed,
                                                       budget_secs):
        result = run_suite(suite, count=count, n=n, seed=seed, budget_secs=budget_secs)
        monkeypatch.setattr(verify, "_case_solver", _solve_every_space)
        assert run_suite(suite, count=count, n=n, seed=seed, budget_secs=budget_secs) == result

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=2**20), st.integers(min_value=1, max_value=8))
    def test_join_dimensions_match_separate_solves(self, na, nb, seed, t2):
        rng = random.Random(seed)
        a = random_rational_metric(na, rng)
        b = replace(random_rational_metric(nb, rng), labels=tuple(f"y{i}" for i in range(nb)))
        t = Fraction(t2, 2)
        joined = join(a, b, t)
        spaces = (a, b, truncate(a, t), truncate(b, t), joined)
        assert join_dimensions(a, b, joined, t, (1, 2)) == [
            tuple(dim_exact(space, k) for space in spaces) for k in (1, 2)]


class TestRunSuite:
    def test_dispatch(self):
        result = run_suite("monotonicity", count=3, n=5, seed=0)
        assert result.suite == "monotonicity" and result.passed

    def test_custom_st_pair(self):
        result = run_suite("truncation", count=2, n=5, seed=0,
                           st_pair=(Fraction(1), Fraction(3)))
        assert result.passed

    def test_unknown(self):
        with pytest.raises(KMetricError):
            run_suite("nonsense")


class TestResultShape:
    def test_failure_serialization(self):
        result = SuiteResult("demo", 2, ({"n": 5, "detail": "broken"},))
        assert not result.passed
        payload = result.to_json_dict()
        assert payload["failures"][0]["detail"] == "broken"
        assert payload["passed"] is False
