"""Executable property suites for the theorems the toolkit relies on.

Every suite generates seeded instances, checks a universally quantified
statement exactly, and reports per-case pass/fail.  A failure here means
an implementation bug, so the smallest failing instance is serialized
into the result for debugging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import KMetricError, format_distance
from .graphs import Graph, check_odd_distance_bisectors, format_edge_list, is_bipartite
from .randgen import (
    random_bipartite_connected_graph,
    random_rational_metric,
    random_space,
)
from .solver import DimensionSequence, SolveReport, dim_exact
from .spaces import FiniteMetricSpace, all_distinguishers, join, max_k, space_to_json_dict, truncate

DEFAULT_ST_PAIRS = ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(4)), (Fraction(2), Fraction(4)))
SUITE_K_VALUES = (1, 2)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    cases: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def _sorted_failures(failures: list[dict]) -> tuple[dict, ...]:
    # smallest instance first so the reported counterexample is minimal
    return tuple(sorted(failures, key=lambda f: (f.get("n", 0), str(f))))


def _check_sizes(suite: str, count: int, n: int, smallest: int) -> None:
    """Reject, before any case runs, a case count below 1 or a largest
    instance size below the smallest size the suite draws."""
    if count < 1:
        raise KMetricError(f"the {suite} suite needs at least 1 case, got {count}")
    if n < smallest:
        raise KMetricError(f"the {suite} suite draws instances of {smallest} or more points, got n={n}")


def _run_cases(suite: str, count: int, n: int, smallest: int, seed: int,
               check: Callable[[random.Random], Iterable[tuple[FiniteMetricSpace, str]]]) -> SuiteResult:
    """Run `count` cases of a solving suite.  Each case draws its instance
    from one generator seeded with `seed`, before the next case draws, and
    `check` yields (space, detail) per failure; each is recorded with the
    space and the case number."""
    _check_sizes(suite, count, n, smallest)
    rng = random.Random(seed)
    failures = [{"n": space.n, "detail": detail, "space": space_to_json_dict(space), "case": case}
                for case in range(count) for space, detail in check(rng)]
    return SuiteResult(suite, count, _sorted_failures(failures))


def _case_solver(budget_secs: float | None) -> Callable[[FiniteMetricSpace, int], SolveReport]:
    """`dim_exact` for the spaces of one case, run once per distinct
    (distinguisher masks, k).  A report depends on nothing else: the solver
    reads a space only through its masks, whose count also fixes n.  No
    caller reads a basis, so the lex-min rebuild is skipped."""
    reports: dict[tuple[tuple[int, ...], int], SolveReport] = {}

    def solve(space: FiniteMetricSpace, k: int) -> SolveReport:
        key = (all_distinguishers(space).masks, k)
        report = reports.get(key)
        if report is None:
            report = reports[key] = dim_exact(space, k, budget_secs=budget_secs, lex_min=False)
        return report

    return solve


def monotonicity_suite(count: int = 100, n: int = 8, seed: int = 0, *,
                       budget_secs: float | None = None) -> SuiteResult:
    """Dimension sequences respect the floor dim_k >= k and step by at least
    one (so dim_k >= dim_1 + k - 1).

    Each level is solved alone, and a bounded solve fails the case at its
    k.  `DimensionSequence` checks both laws as the sequence is built; the
    case records its error message as the failure."""
    def check(rng: random.Random):
        space = random_space(rng.randint(3, n), rng)
        solve = _case_solver(budget_secs)
        entries = []
        for k in range(1, max_k(space) + 1):
            report = solve(space, k)
            if report.status == "bounded":
                yield space, f"budget exhausted at k={k}"
                return
            entries.append(report.optimum)
        try:
            DimensionSequence(tuple(entries), tail_start=None)
        except ValueError as exc:
            yield space, str(exc)

    return _run_cases("monotonicity", count, n, 3, seed, check)


def truncation_suite(count: int = 50, n: int = 8, seed: int = 0, *,
                     st_pairs: Sequence[tuple[Fraction, Fraction]] = DEFAULT_ST_PAIRS,
                     budget_secs: float | None = None) -> SuiteResult:
    """Capping distances can only grow dimensions, and more aggressive caps
    only grow bisectors: for s < t, every bisector of d sits inside the
    bisector of d^t, which sits inside the bisector of d^s.

    Bisectors grow exactly where distinguisher masks shrink, so the masks
    are compared.  Per case, each cap is applied once, and each space's
    masks are computed once, however many (s, t) pairs share it; dim_k is
    solved once per distinct masks, so a cap at or above the diameter, or
    two caps that leave the same masks, cost no second solve.  A solve that
    runs out of budget fails the case at its k.  A pair that is not
    0 < s < t is rejected before any case runs."""
    for s, t in st_pairs:
        if not 0 < s < t:
            raise KMetricError(f"the truncation suite needs 0 < s < t, got s={format_distance(s)},"
                               f" t={format_distance(t)}")

    def check(rng: random.Random):
        space = random_rational_metric(rng.randint(3, n), rng)
        spaces = {None: space}  # cap -> truncated space; None is the plain one
        for cap in dict.fromkeys(cap for pair in st_pairs for cap in pair):
            spaces[cap] = truncate(space, cap)
        masks = {cap: all_distinguishers(capped).masks for cap, capped in spaces.items()}
        solve = _case_solver(budget_secs)
        reports = {(cap, k): solve(capped, k) for cap, capped in spaces.items() for k in SUITE_K_VALUES}
        exhausted = [k for k in SUITE_K_VALUES if bounded(reports[cap, k] for cap in spaces)]
        for k in exhausted:
            yield space, f"budget exhausted at k={k}"
        for s, t in st_pairs:
            for (u, v), m_plain, m_t, m_s in zip(space.pairs(), masks[None], masks[t], masks[s]):
                if m_t & ~m_plain or m_s & ~m_t:
                    yield space, f"bisector nesting fails for pair ({u},{v}) at s={s}, t={t}"
            for k in SUITE_K_VALUES:
                if k in exhausted:
                    continue
                d_plain, d_t, d_s = (reports[cap, k].optimum for cap in (None, t, s))
                if not (d_s >= d_t >= d_plain):
                    yield space, f"dim chain fails at k={k}, s={s}, t={t}: {d_s} >= {d_t} >= {d_plain}"

    return _run_cases("truncation", count, n, 3, seed, check)


def _random_join_parts(rng: random.Random, n: int):
    na = rng.randint(2, n)
    nb = rng.randint(2, n)
    a = random_rational_metric(na, rng)
    b = random_rational_metric(nb, rng)
    b = replace(b, labels=tuple(f"y{i}" for i in range(b.n)))
    return a, b


def join_dimensions(a: FiniteMetricSpace, b: FiniteMetricSpace, joined: FiniteMetricSpace,
                    t: Fraction, k_values: Sequence[int], *,
                    budget_secs: float | None = None) -> list[tuple[SolveReport, ...]]:
    """Per k in k_values: the dim_k reports of a, of b, of a and b
    truncated at t, and of their join at t.  A report whose status is
    "bounded" holds only an interval, not the dimension.

    Spaces with equal distinguisher masks share one solve per k: a part
    whose diameter is at most 2t is its own truncation, and the two parts
    may have the same masks."""
    solve = _case_solver(budget_secs)
    spaces = (a, b, truncate(a, t), truncate(b, t), joined)
    return [tuple(solve(space, k) for space in spaces) for k in k_values]


def bounded(reports: Iterable[SolveReport]) -> bool:
    """Whether some solve ran out of budget before proving its optimum."""
    return any(report.status == "bounded" for report in reports)


def join_suite(count: int = 50, n: int = 5, seed: int = 0, *,
               budget_secs: float | None = None) -> SuiteResult:
    """Joining two spaces never loses dimension: the sum of the parts'
    dimensions bounds the joined dimension from below, through the
    truncated dimensions.  A solve that runs out of budget fails the case
    at its k."""
    def check(rng: random.Random):
        a, b = _random_join_parts(rng, n)
        t = Fraction(rng.randint(1, 10), rng.randint(1, 2))
        joined = join(a, b, t)
        rows = join_dimensions(a, b, joined, t, SUITE_K_VALUES, budget_secs=budget_secs)
        for k, reports in zip(SUITE_K_VALUES, rows):
            if bounded(reports):
                yield joined, f"budget exhausted at k={k}"
                continue
            da, db, dat, dbt, dj = (report.optimum for report in reports)
            if not (da + db <= dat + dbt and dat + dbt <= dj):
                yield joined, f"join chain fails at k={k}, t={t}: {da}+{db} <= {dat}+{dbt} <= {dj}"

    return _run_cases("join", count, n, 2, seed, check)


def join_trivial_suite(count: int = 20, n: int = 5, seed: int = 0, *,
                       budget_secs: float | None = None) -> SuiteResult:
    """With the cross distance beyond both diameters, dimensions add exactly.
    The reports come from `join_dimensions`; each part is its own
    truncation, so those cost no second solve.  A solve that runs out of
    budget fails the case at its k."""
    def check(rng: random.Random):
        a, b = _random_join_parts(rng, n)
        t = max(a.diameter(), b.diameter()) + 1
        joined = join(a, b, t)
        rows = join_dimensions(a, b, joined, t, SUITE_K_VALUES, budget_secs=budget_secs)
        for k, reports in zip(SUITE_K_VALUES, rows):
            if bounded(reports):
                yield joined, f"budget exhausted at k={k}"
                continue
            da, db, _, _, dj = (report.optimum for report in reports)
            if dj != da + db:
                yield joined, f"expected dim_{k} {da}+{db}, got {dj} (t={t})"

    return _run_cases("join-trivial", count, n, 2, seed, check)


def bipartite_suite(count: int = 20, n: int = 10, seed: int = 0, *,
                    graphs: Sequence[Graph] | None = None) -> SuiteResult:
    """Odd-distance pairs in odd-cycle-free graphs have empty bisectors.

    Given `graphs`, the suite checks those instead of `count` random ones
    of 3..n points; a given graph with an odd cycle lies outside the
    theorem, so it is rejected before any case runs.  A random graph that
    is not bipartite fails its case: the generator is at fault."""
    if graphs is not None:
        pool = list(graphs)
        for graph in pool:
            cycle = is_bipartite(graph).odd_cycle
            if cycle is not None:
                raise KMetricError("the bipartite suite takes only graphs without odd cycles; a given graph"
                                   " has the odd cycle " + " ".join(graph.labels[i] for i in cycle))
    else:
        _check_sizes("bipartite", count, n, 3)
        rng = random.Random(seed)
        pool = [random_bipartite_connected_graph(rng.randint(3, n), rng) for _ in range(count)]
    failures: list[dict] = []
    for case, graph in enumerate(pool):
        report = check_odd_distance_bisectors(graph)
        if not report.bipartite:
            failures.append({
                "n": graph.n,
                "detail": "generated graph is not bipartite",
                "graph": format_edge_list(graph),
                "case": case,
            })
        elif report.violations:
            failures.append({
                "n": graph.n,
                "detail": f"non-empty bisectors at odd distance: {report.violations}",
                "graph": format_edge_list(graph),
                "case": case,
            })
    return SuiteResult("bipartite", len(pool), _sorted_failures(failures))


_SUITES = {
    "monotonicity": monotonicity_suite,
    "truncation": truncation_suite,
    "join": join_suite,
    "join-trivial": join_trivial_suite,
    "bipartite": bipartite_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, *, count: int | None = None, n: int | None = None, seed: int = 0,
              graphs: Sequence[Graph] | None = None,
              budget_secs: float | None = None,
              st_pair: tuple[Fraction, Fraction] | None = None) -> SuiteResult:
    """Run a suite by CLI name.

    A `count` or `n` left None takes the suite's own default.  `graphs`
    (bipartite suite) and `st_pair` (truncation suite) are rejected for any
    other suite, and `budget_secs` for the bipartite suite, which solves
    nothing."""
    if name not in _SUITES:
        raise KMetricError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if graphs is not None and name != "bipartite":
        raise KMetricError(f"only the bipartite suite checks given graphs, not the {name} suite")
    if st_pair is not None and name != "truncation":
        raise KMetricError(f"only the truncation suite reads an (s, t) pair, not the {name} suite")
    if budget_secs is not None and name == "bipartite":
        raise KMetricError("the bipartite suite solves nothing, so it takes no time budget")
    options = {"count": count, "n": n, "seed": seed, "graphs": graphs, "budget_secs": budget_secs,
               "st_pairs": None if st_pair is None else (st_pair,)}
    return _SUITES[name](**{key: value for key, value in options.items() if value is not None})
