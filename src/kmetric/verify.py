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
from typing import Sequence

from .errors import KMetricError
from .graphs import Graph, check_odd_distance_bisectors, format_edge_list
from .randgen import (
    random_bipartite_connected_graph,
    random_rational_metric,
    random_space,
)
from .solver import ExtendedNat, dim_exact, sequence_with_reports
from .spaces import FiniteMetricSpace, bisector, join, space_to_json_dict, truncate

DEFAULT_ST_PAIRS = ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(4)), (Fraction(2), Fraction(4)))


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


def _space_failure(space: FiniteMetricSpace, detail: str, **extra) -> dict:
    out = {"n": space.n, "detail": detail, "space": space_to_json_dict(space)}
    out.update(extra)
    return out


def monotonicity_suite(count: int = 100, n: int = 8, seed: int = 0, *,
                       budget_secs: float | None = None) -> SuiteResult:
    """Dimension sequences respect the floor dim_k >= k and step by at least
    one (so dim_k >= dim_1 + k - 1).

    `DimensionSequence` checks both as the sequence is built; the case
    records its error message as the failure."""
    _check_sizes("monotonicity", count, n, 3)
    rng = random.Random(seed)
    failures: list[dict] = []
    for case in range(count):
        size = rng.randint(3, n)
        space = random_space(size, rng)
        try:
            seq, reports = sequence_with_reports(space, budget_secs=budget_secs)
        except ValueError as exc:
            failures.append(_space_failure(space, str(exc), case=case))
            continue
        if seq is None:
            failures.append(_space_failure(space, f"budget exhausted at k={reports[-1].k}", case=case))
    return SuiteResult("monotonicity", count, _sorted_failures(failures))


def truncation_suite(count: int = 50, n: int = 8, seed: int = 0, *,
                     st_pairs: Sequence[tuple[Fraction, Fraction]] = DEFAULT_ST_PAIRS,
                     k_values: Sequence[int] = (1, 2),
                     budget_secs: float | None = None) -> SuiteResult:
    """Capping distances can only grow dimensions, and more aggressive caps
    only grow bisectors: for s < t, every bisector of d sits inside the
    bisector of d^t, which sits inside the bisector of d^s.

    Per case, each cap is applied once, and each space's bisectors and
    dim_k are computed once, however many (s, t) pairs share it."""
    _check_sizes("truncation", count, n, 3)
    rng = random.Random(seed)
    failures: list[dict] = []
    for case in range(count):
        size = rng.randint(3, n)
        space = random_rational_metric(size, rng)
        spaces = {None: space}  # cap -> truncated space; None is the plain one
        for pair in st_pairs:
            for cap in pair:
                if cap not in spaces:
                    spaces[cap] = truncate(space, cap)
        bisectors = {cap: [set(bisector(capped, u, v)) for u, v in space.pairs()]
                     for cap, capped in spaces.items()}
        dims = {(cap, k): dim_exact(capped, k, budget_secs=budget_secs).optimum
                for cap, capped in spaces.items() for k in k_values}
        for s, t in st_pairs:
            for (u, v), b_plain, b_t, b_s in zip(space.pairs(), bisectors[None], bisectors[t], bisectors[s]):
                if not (b_plain <= b_t and b_t <= b_s):
                    failures.append(_space_failure(
                        space, f"bisector nesting fails for pair ({u},{v}) at s={s}, t={t}", case=case))
            for k in k_values:
                d_plain, d_t, d_s = dims[None, k], dims[t, k], dims[s, k]
                if not (d_s >= d_t >= d_plain):
                    failures.append(_space_failure(
                        space,
                        f"dim chain fails at k={k}, s={s}, t={t}: {d_s} >= {d_t} >= {d_plain}",
                        case=case))
    return SuiteResult("truncation", count, _sorted_failures(failures))


def _random_join_parts(rng: random.Random, n: int):
    na = rng.randint(2, n)
    nb = rng.randint(2, n)
    a = random_rational_metric(na, rng)
    b = random_rational_metric(nb, rng)
    b = replace(b, labels=tuple(f"y{i}" for i in range(b.n)))
    return a, b


def join_dimensions(a: FiniteMetricSpace, b: FiniteMetricSpace, joined: FiniteMetricSpace,
                    t: Fraction, k_values: Sequence[int], *,
                    budget_secs: float | None = None) -> list[tuple[ExtendedNat, ...]]:
    """Per k in k_values: dim_k of a, of b, of a and b truncated at t, and
    of their join at t."""
    spaces = (a, b, truncate(a, t), truncate(b, t), joined)
    return [tuple(dim_exact(space, k, budget_secs=budget_secs).optimum for space in spaces)
            for k in k_values]


def join_suite(count: int = 50, n: int = 5, seed: int = 0, *,
               k_values: Sequence[int] = (1, 2),
               budget_secs: float | None = None) -> SuiteResult:
    """Joining two spaces never loses dimension: the sum of the parts'
    dimensions bounds the joined dimension from below, through the
    truncated dimensions."""
    _check_sizes("join", count, n, 2)
    rng = random.Random(seed)
    failures: list[dict] = []
    for case in range(count):
        a, b = _random_join_parts(rng, n)
        t = Fraction(rng.randint(1, 10), rng.randint(1, 2))
        joined = join(a, b, t)
        rows = join_dimensions(a, b, joined, t, k_values, budget_secs=budget_secs)
        for k, (da, db, dat, dbt, dj) in zip(k_values, rows):
            if not (da + db <= dat + dbt and dat + dbt <= dj):
                failures.append(_space_failure(
                    joined,
                    f"join chain fails at k={k}, t={t}: {da}+{db} <= {dat}+{dbt} <= {dj}",
                    case=case))
    return SuiteResult("join", count, _sorted_failures(failures))


def join_trivial_suite(count: int = 20, n: int = 5, seed: int = 0, *,
                       k_values: Sequence[int] = (1, 2),
                       budget_secs: float | None = None) -> SuiteResult:
    """With the cross distance beyond both diameters, dimensions add exactly."""
    _check_sizes("join-trivial", count, n, 2)
    rng = random.Random(seed)
    failures: list[dict] = []
    for case in range(count):
        a, b = _random_join_parts(rng, n)
        t = max(a.diameter(), b.diameter()) + 1
        joined = join(a, b, t)
        for k in k_values:
            da = dim_exact(a, k, budget_secs=budget_secs).optimum
            db = dim_exact(b, k, budget_secs=budget_secs).optimum
            dj = dim_exact(joined, k, budget_secs=budget_secs).optimum
            if dj != da + db:
                failures.append(_space_failure(
                    joined, f"expected dim_{k} {da}+{db}, got {dj} (t={t})", case=case))
    return SuiteResult("join-trivial", count, _sorted_failures(failures))


def bipartite_suite(count: int = 20, n: int = 10, seed: int = 0, *,
                    graphs: Sequence[Graph] | None = None) -> SuiteResult:
    """Odd-distance pairs in odd-cycle-free graphs have empty bisectors.

    Given `graphs`, the suite checks those instead of `count` random ones
    of 3..n points."""
    if graphs is not None:
        pool = list(graphs)
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
