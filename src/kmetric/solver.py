"""Exact, brute-force, and greedy computation of k-metric dimensions.

The problem solved here: find a minimum set S of points such that for
every pair of distinct points (u,v), S contains at least k points whose
distances to u and v differ.  This is a set multicover instance whose
covering sets are the per-pair distinguisher sets; it is attacked by
branch-and-bound over point inclusion.

Search design (deterministic):
  * constraints are deduplicated and superset-dominated ones dropped,
    once per space (`DistinguisherMap.reduced_masks`);
  * branching picks the unsatisfied pair with the smallest residual
    distinguisher set (fail-first) and tries its remaining points in
    index order, excluding earlier-tried siblings to avoid revisits;
  * points forced by tight constraints (residual set size equals the
    residual requirement) are included without branching;
  * the incumbent is seeded by `greedy_upper`;
  * lower bounds: the coverage requirement itself, the previous dimension
    plus one when solving a sequence level, and a decomposition bound that
    solves support-disjoint constraint clusters exactly, in the space's own
    points, when their support is small (memoized; one pass tests all its
    subsets at once) and bounds a larger cluster by a greedy packing of
    its pairwise disjoint distinguisher sets; the maximum of all applies;
  * a root the clusters leave open below the greedy value also gets the
    degree bound ⌈Σ need / D⌉, D the most constraints one point lies in
    (the LP dual with every y_c = 1/D), in integers; search nodes skip it;
  * a search node first tests its largest residual need, then the
    cluster sum, the same bound as at the root;
  * a node with two points to spare (a better cover adds one more) has
    only need-1 residuals, and closes on the AND of their masks: an empty
    AND prunes it, and otherwise its lowest point completes a cover;
  * when every cluster of a node's residual constraints was solved
    exactly, the node is closed: its best cover is the union of the
    clusters' lex-min covers, and nothing is branched on;
  * a search is given a floor, a proven lower bound: a cover that small
    ends it, because nothing smaller exists;
  * each node filters its parent's residual constraints, not all of them.

The reported basis is the lexicographically smallest optimal set, so
repeated runs are byte-identical.  Small instances, whose clusters are all
solved exactly at the root, are answered by the cluster kernel alone: the
union of the clusters' lex-min covers is the lex-min optimal set, and no
search runs.  Otherwise, after the search proves the optimum, the basis is
found by fix-and-probe on the same search object: points are decided in
index order, and a point is kept when an optimal cover still exists with
it and the points kept so far, and without the points turned down so far.
Two rules decide points in bulk without a probe: a constraint that still
needs as many points as are left to add must hold all of them, so every
point outside such tight constraints is turned down; and the points of the
current optimal witness that lie below the lowest other candidate are kept
together.  Only `analyze` prints the basis; elsewhere the package passes
`dim_exact(..., lex_min=False)`, which skips this rebuild and reports the
optimal witness the search ended with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import combinations
from typing import Sequence

from .errors import InstanceTooLarge, KMetricError, NonpositiveParameter
from .spaces import FiniteMetricSpace, PointSet, _bits, all_distinguishers, max_k

DEFAULT_BUDGET_SECS = 60.0
BRUTEFORCE_CAP = 16
# Constraint clusters with support at most this many points get an exact
# (memoized) multicover solve inside the lower bound.
COMPONENT_SUPPORT_CAP = 12


@total_ordering
class ExtendedNat:
    """A non-negative integer or infinity; infinity exceeds every finite value."""

    __slots__ = ("value",)

    def __init__(self, value: int | None):
        if value is not None:
            integer = int(value)
            if integer < 0 or integer != value:
                raise ValueError(f"ExtendedNat must be a non-negative integer, got {value}")
            value = integer
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError("ExtendedNat is immutable")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    @staticmethod
    def of(x: "ExtendedNat | int") -> "ExtendedNat":
        return x if isinstance(x, ExtendedNat) else ExtendedNat(x)

    def _cmp_key(self):
        return (1,) if self.value is None else (0, self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, (ExtendedNat, int)):
            return self._cmp_key() == ExtendedNat.of(other)._cmp_key()
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, (ExtendedNat, int)):
            return self._cmp_key() < ExtendedNat.of(other)._cmp_key()
        return NotImplemented

    def __hash__(self) -> int:
        # a finite value hashes as the int it equals
        return hash(self.value)

    def __add__(self, other: "ExtendedNat | int") -> "ExtendedNat":
        other = ExtendedNat.of(other)
        if self.value is None or other.value is None:
            return INFINITY
        return ExtendedNat(self.value + other.value)

    __radd__ = __add__

    def __repr__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    __str__ = __repr__

    def to_json(self) -> int | str:
        return "inf" if self.value is None else self.value


INFINITY = ExtendedNat(None)


@dataclass(frozen=True)
class DimensionSequence:
    """Finite dimension values for k = 1..len(entries); infinite from tail_start on."""

    entries: tuple[ExtendedNat, ...]
    tail_start: int | None

    def __post_init__(self):
        prev = None
        for i, entry in enumerate(self.entries, start=1):
            if not entry.is_finite:
                raise ValueError(f"entry for k={i} must be finite (tail_start marks infinity)")
            if entry < i:
                raise ValueError(f"dim_{i}={entry} below the floor k={i}")
            if prev is not None and entry.value < prev + 1:
                raise ValueError(f"dim_{i}={entry} not above dim_{i - 1}={prev}")
            prev = entry.value
        if self.tail_start is not None and self.tail_start <= len(self.entries):
            raise ValueError("tail_start lies inside the finite entries")

    def get(self, k: int) -> ExtendedNat:
        if k < 1:
            raise NonpositiveParameter("k", k)
        if k <= len(self.entries):
            return self.entries[k - 1]
        if self.tail_start is not None and k >= self.tail_start:
            return INFINITY
        raise KMetricError(f"dim_{k} was not computed (horizon {len(self.entries)})")

    def as_values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.entries)

    def to_csv(self) -> str:
        lines = ["k,dim_k"]
        lines.extend(f"{k},{entry}" for k, entry in enumerate(self.entries, start=1))
        if self.tail_start is not None:
            lines.append(f"{self.tail_start},inf")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one dim_k computation."""

    k: int
    optimum: ExtendedNat
    basis: PointSet | None
    lower_bound_trace: tuple[tuple[str, int], ...]
    nodes_explored: int
    greedy_value: int | None
    status: str  # "optimal" (exact, possibly infinite) or "bounded" (budget ran out)
    bounds: tuple[int, int] | None = None  # (proven lower, incumbent) when bounded
    # "lex_min": the basis is the lexicographically smallest optimal set;
    # "witness": some k-generator of `optimum` points, optimal only when the
    # status is optimal (the lex-min phase was skipped or cut by the budget).
    basis_kind: str = "lex_min"


def greedy_upper(space: FiniteMetricSpace, k: int) -> tuple[int, PointSet] | None:
    """Greedy k-generator: repeatedly add the point that cuts the total
    coverage deficit the most (ties to the smallest index).  Returns None
    when no k-generator exists (k exceeds max_k)."""
    if k < 1:
        raise NonpositiveParameter("k", k)
    dmap = all_distinguishers(space)
    if dmap.min_size < k:
        return None
    columns = dmap.columns
    # layers[j] holds the pairs whose deficit is still above j, so a point's
    # gain is the number of open pairs in its column.
    layers = [(1 << len(dmap)) - 1] * k + [0]
    chosen_mask = 0
    while layers[0]:
        best_gain = -1
        best_x = -1
        for x, column in enumerate(columns):
            gain = (column & layers[0]).bit_count()
            if gain > best_gain and not chosen_mask >> x & 1:
                best_gain = gain
                best_x = x
        chosen_mask |= 1 << best_x
        column = columns[best_x]
        for j in range(k):
            layers[j] = (layers[j] & ~column) | (layers[j + 1] & column)
    return chosen_mask.bit_count(), PointSet.from_mask(chosen_mask)


def dim_bruteforce(space: FiniteMetricSpace, k: int) -> ExtendedNat:
    """Independent oracle: scan subsets by increasing cardinality.

    Starts at size k because a set smaller than k cannot meet a coverage
    requirement of k.  Intended for cross-validating the exact solver.
    """
    if k < 1:
        raise NonpositiveParameter("k", k)
    n = space.n
    if n > BRUTEFORCE_CAP:
        raise InstanceTooLarge(n, BRUTEFORCE_CAP)
    masks = sorted(all_distinguishers(space).masks, key=lambda m: m.bit_count())
    if masks[0].bit_count() < k:
        return INFINITY
    for size in range(k, n + 1):
        for combo in combinations(range(n), size):
            sm = 0
            for x in combo:
                sm |= 1 << x
            if all((sm & m).bit_count() >= k for m in masks):
                return ExtendedNat(size)
    raise AssertionError("a feasible instance must admit the full point set")


# --- lower bounds -------------------------------------------------------------

def _packing_bound(residuals: Sequence[tuple[int, int]]) -> int:
    """Sum of requirements over a greedily chosen pairwise-disjoint family."""
    used = 0
    total = 0
    for mask, need in sorted(residuals, key=lambda c: (c[0].bit_count(), c[0])):
        if mask & used == 0:
            used |= mask
            total += need
    return total


@lru_cache(maxsize=None)
def _subset_tables(size: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The 2**size subsets of range(size) as the bits of one int: bit s
    stands for the subset whose mask is s.

    Returns (full, contains, by_size): every subset; contains[b], the
    subsets holding point b; by_size[j], the subsets of j points.
    """
    full = (1 << (1 << size)) - 1
    contains = []
    by_size = [1]
    for b in range(size):
        half = 1 << b
        # bit s holds b when s mod 2**(b+1) >= 2**b: one block of `half`
        # ones in every period of 2 * half bits.
        contains.append(full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
        # adding b to a subset of j points gives one of j + 1 points, half higher
        by_size = [without | (with_b << half)
                   for without, with_b in zip(by_size + [0], [0] + by_size)]
    return full, tuple(contains), tuple(by_size)


def _exact_cluster_min(members: tuple[tuple[int, int], ...], support_mask: int) -> tuple[int, int]:
    """Minimum points of `support_mask` meeting every (mask, need)
    constraint, and the lexicographically smallest such cover, as a mask.

    All subsets of the support are tested at once, bit-parallel: layers[j]
    collects the subsets that meet m at least j times, and `good` those
    that meet every member.  The whole support meets every member, so some
    size is good.  Among the good subsets of the least size, keeping those
    that hold b, for support points b ascending whenever some do, leaves
    the lex-min one; the points b kept make up the cover.
    """
    support = _bits(support_mask)
    full, contains, by_size = _subset_tables(len(support))
    holds = dict(zip(support, contains))
    good = full
    for m, need in members:
        layers = [full] + [0] * need
        for b in _bits(m):
            holds_b = holds[b]
            for j in range(need, 0, -1):
                layers[j] |= layers[j - 1] & holds_b
        good &= layers[need]
    value = next(j for j, subsets in enumerate(by_size) if good & subsets)
    best = good & by_size[value]
    cover = 0
    for b, holds_b in zip(support, contains):
        narrowed = best & holds_b
        if narrowed:
            best = narrowed
            cover |= 1 << b
    return value, cover


def _cluster_bound(residuals: Sequence[tuple[int, int]], cache: dict) -> tuple[int, int | None]:
    """Partition constraints into support-disjoint clusters and bound each.

    Clusters of at most COMPONENT_SUPPORT_CAP points are solved exactly,
    memoized on their distinct members; larger ones fall back to the
    packing bound.  Cluster bounds add up: clusters share no points.

    Returns (bound, cover).  When every cluster was solved exactly, the
    bound is the optimum and `cover` is the lex-min optimal cover: the
    union of the clusters' lex-min covers, as the clusters share no points
    and no optimal cover holds a point outside them.  `cover` is None when
    some cluster was bounded by packing.  The memo pays in long searches,
    whose nodes meet the same clusters again: a 69-point tree at k=1 makes
    24 exact solves in 3,360 nodes, and 24,478 without it.
    """
    clusters: list[tuple[int, list[tuple[int, int]]]] = []  # (support mask, members)
    for mask, need in residuals:
        merged_mask = mask
        merged_members = [(mask, need)]
        rest = []
        for cmask, members in clusters:
            if cmask & mask:
                merged_mask |= cmask
                merged_members.extend(members)
            else:
                rest.append((cmask, members))
        rest.append((merged_mask, merged_members))
        clusters = rest
    total = 0
    cover = 0
    for cmask, members in clusters:
        if cmask.bit_count() <= COMPONENT_SUPPORT_CAP:
            key = tuple(sorted(set(members)))
            solved = cache.get(key)
            if solved is None:
                solved = cache[key] = _exact_cluster_min(key, cmask)
            value, subset = solved
            total += value
            if cover is not None:
                cover |= subset
        else:
            total += _packing_bound(members)
            cover = None
    return total, cover


def _degree_bound(constraints: Sequence[tuple[int, int]]) -> int:
    """⌈Σ need / D⌉, D the most constraints any one point lies in.

    A cover meets the constraints at least Σ need times in all, and each
    of its points meets at most D of them.  The per-point counts are kept
    as binary bit planes over the points, one carry-add per constraint.
    D is read from the highest plane down: a plane that some of the points
    still in the running have set gives D a 1 bit and keeps only those.
    """
    planes: list[int] = []
    total = 0
    for mask, need in constraints:
        total += need
        carry = mask
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        if carry:
            planes.append(carry)
    top = 0
    points = -1
    for plane in reversed(planes):
        top <<= 1
        if points & plane:
            points &= plane
            top |= 1
    return -(-total // top)


# --- branch and bound ---------------------------------------------------------

class _BudgetExceeded(Exception):
    pass


class _FloorReached(Exception):
    pass


class _Search:
    """DFS over point inclusions for one level's multicover instance.

    One search serves the whole level: the main search and every lex-min
    probe are runs of it, so `nodes` counts them all and the cluster-bound
    `cache` is shared by the root bound, the search and the probes.  A run
    looks for covers smaller than its incumbent; a cover of at most
    `floor` points ends it, because nothing smaller exists.
    """

    def __init__(self, constraints: Sequence[tuple[int, int]], deadline: float | None):
        self.constraints = constraints
        self.deadline = deadline
        self.nodes = 0
        self.cache: dict = {}

    def _residuals(self, chosen: int, banned: int,
                   source: Sequence[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]] | None:
        """Residual (available mask, remaining need) per constraint of
        `source` left unmet, with forced points absorbed into `chosen`:
        returns (chosen, residuals), or None when infeasible.

        `source` may be the parent's residuals rather than the constraints:
        a parent residual is relative to the parent's chosen and banned
        points, which the child's include, and filtering keeps its order.
        """
        while True:
            forced = 0
            residuals = []
            for mask, need in source:
                have = (mask & chosen).bit_count()
                if have >= need:
                    continue
                rmask = mask & ~chosen & ~banned
                rneed = need - have
                avail = rmask.bit_count()
                if avail < rneed:
                    return None
                if avail == rneed:
                    forced |= rmask
                    continue
                residuals.append((rmask, rneed))
            if not forced:
                return chosen, residuals
            chosen |= forced
            source = residuals

    def run(self, best_size: int, best_mask: int, floor: int, chosen: int = 0, banned: int = 0):
        """Search the covers that contain `chosen` and avoid `banned`, from
        the incumbent (`best_size`, `best_mask`) down to `floor`."""
        self.best_size = best_size
        self.best_mask = best_mask
        self.floor = floor
        try:
            self._visit(chosen, banned, self.constraints)
        except _FloorReached:
            pass

    def _record(self, cover: int):
        size = cover.bit_count()
        if size < self.best_size:
            self.best_size = size
            self.best_mask = cover
            if size <= self.floor:
                raise _FloorReached

    def _visit(self, chosen: int, banned: int, source: Sequence[tuple[int, int]]):
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExceeded
        found = self._residuals(chosen, banned, source)
        if found is None:
            return
        chosen, residuals = found
        if not residuals:
            self._record(chosen)
            return
        # the largest need is the cheapest bound: test it before partitioning
        left = self.best_size - chosen.bit_count()
        if max(need for _, need in residuals) >= left:
            return
        if left == 2:
            # a better cover adds one point, so every residual need is 1
            # and that point lies in every residual mask
            common = -1
            for mask, _ in residuals:
                common &= mask
            if common:
                self._record(chosen | (common & -common))
            return
        bound, cover = _cluster_bound(residuals, self.cache)
        if cover is not None:
            # every cluster was solved exactly: the best cover below this
            # node is known, so there is nothing to branch on
            self._record(chosen | cover)
            return
        if bound >= left:
            return
        rmask, rneed = min(residuals, key=lambda c: (c[0].bit_count(), c[0]))
        points = _bits(rmask)
        excluded = 0
        for j in range(len(points) - rneed + 1):
            self._visit(chosen | (1 << points[j]), banned | excluded, residuals)
            excluded |= 1 << points[j]

    def lex_min(self, target: int, witness: int) -> tuple[int, bool]:
        """The lexicographically smallest cover of `target` points, the optimum.

        Fix-and-probe: the lowest undecided point x that could still help
        (one in a constraint the fixed points leave unmet) is fixed when
        some optimal cover contains x and the fixed points and avoids the
        rejected ones, and rejected otherwise.  `witness` is always such a
        cover, so a point in it is fixed without a probe; for any other
        point a run with floor `target` looks for one, and a cover it finds
        becomes the witness.  A point outside every unmet constraint is in
        no optimal cover: dropping it would leave a smaller one.

        Points are decided in bulk where the answer is known.  An optimal
        cover adds `target - |fixed|` points to the fixed ones, so a
        constraint short by that many holds all of them: every candidate
        outside one of these tight constraints is rejected.  The witness
        points below the lowest candidate outside the witness are fixed at
        once, as one by one each would be: they stay candidates while the
        lower ones are fixed.

        Returns (cover, finished).  If the deadline passes, finished is
        False and the cover is the current witness: optimal, but not
        necessarily lexicographically first.
        """
        fixed = rejected = 0
        while True:
            budget = target - fixed.bit_count()
            support = 0
            tight = -1
            for mask, need in self.constraints:
                short = need - (mask & fixed).bit_count()
                if short > 0:
                    support |= mask
                    if short == budget:
                        tight &= mask
            support &= ~(fixed | rejected)
            rejected |= support & ~tight
            support &= tight
            if not support:
                return fixed, True
            others = support & ~witness
            x = others & -others
            kept = support & witness & (x - 1)  # all of them when x is 0
            if kept:
                fixed |= kept
                continue
            try:
                self.run(target + 1, 0, target, fixed | x, rejected)
            except _BudgetExceeded:
                return witness, False
            if self.best_size <= target:
                fixed |= x
                witness = self.best_mask
            else:
                rejected |= x


def dim_exact(space: FiniteMetricSpace, k: int, *, budget_secs: float | None = DEFAULT_BUDGET_SECS,
              prev_dim: int | None = None, lex_min: bool = True) -> SolveReport:
    """Exact k-metric dimension via branch-and-bound multicover search.

    `prev_dim` feeds the previous sequence level in as a lower bound.  When
    the root's constraint clusters are all solved exactly, their union
    cover is the lex-min optimal basis and the report takes no nodes.
    Otherwise, while the root bound is below the greedy value, the degree
    bound joins the trace; a root bound equal to the greedy value proves
    the greedy cover optimal with no search.  Else the search stops at the
    first cover as small as the root lower bound.  Either way the basis is
    rebuilt as the lexicographically smallest optimal set by fix-and-probe
    (`_Search.lex_min`).  One `_Search` serves the level: the root bound
    reads its cluster cache, and the report's node count is its `nodes`,
    main search and probes together.

    With `lex_min=False` the rebuild is skipped: a level the cluster kernel
    did not close reports the optimal cover it already has, the search's
    best or the greedy one, with `basis_kind` "witness".  The rebuild
    starts only once the optimum is proved, so optimum, status, bounds,
    trace and greedy value are the same either way.

    On budget exhaustion the report carries status "bounded" with the
    proven (lower, incumbent) interval, and the incumbent as a "witness"
    basis.  If the budget runs out only during the lex-min reconstruction,
    the optimum is still exact and the basis an optimal "witness".
    """
    if k < 1:
        raise NonpositiveParameter("k", k)
    deadline = time.monotonic() + budget_secs if budget_secs is not None else None
    dmap = all_distinguishers(space)
    feasible_cap = dmap.min_size
    if k > feasible_cap:
        return SolveReport(
            k=k, optimum=INFINITY, basis=None,
            lower_bound_trace=(("max_k", feasible_cap),),
            nodes_explored=0, greedy_value=None, status="optimal",
        )
    greedy_value, greedy_set = greedy_upper(space, k)
    search = _Search([(m, k) for m in dmap.reduced_masks], deadline)
    trace = [("requirement", k)]
    if prev_dim is not None:
        trace.append(("chain", prev_dim + 1))
    cluster_value, cover = _cluster_bound(search.constraints, search.cache)
    trace.append(("clusters", cluster_value))
    root_lb = max(value for _, value in trace)
    if cover is None and root_lb < greedy_value:
        trace.append(("degree", _degree_bound(search.constraints)))
        root_lb = max(root_lb, trace[-1][1])
    if root_lb > greedy_value:
        raise AssertionError(
            f"lower bound {root_lb} exceeds the greedy solution {greedy_value}: bound bug")
    status, bounds, is_lex_min = "optimal", None, True
    if cover is not None:
        # every cluster was solved exactly: the optimum and its lex-min cover
        if cluster_value != root_lb:
            raise AssertionError(
                f"lower bound {root_lb} exceeds the exact cluster optimum {cluster_value}: bound bug")
        optimum, basis_mask = cluster_value, cover
    else:
        optimum, witness = greedy_value, greedy_set.to_mask()
        try:
            if root_lb < optimum:
                search.run(optimum, witness, root_lb)
                optimum, witness = search.best_size, search.best_mask
        except _BudgetExceeded:
            status, bounds, is_lex_min = "bounded", (root_lb, search.best_size), False
            optimum, basis_mask = search.best_size, search.best_mask
        else:
            basis_mask, is_lex_min = search.lex_min(optimum, witness) if lex_min else (witness, False)
    return SolveReport(
        k=k, optimum=ExtendedNat(optimum), basis=PointSet.from_mask(basis_mask),
        lower_bound_trace=tuple(trace), nodes_explored=search.nodes, greedy_value=greedy_value,
        status=status, bounds=bounds, basis_kind="lex_min" if is_lex_min else "witness",
    )


def sequence_with_reports(space: FiniteMetricSpace, k_max: int | None = None, *,
                          budget_secs: float | None = DEFAULT_BUDGET_SECS
                          ) -> tuple[DimensionSequence | None, list[SolveReport]]:
    """Solve levels k = 1..min(k_max, max_k), each bounded below by the last.

    Returns the sequence plus per-level reports; the sequence is None when
    some level only bounded its optimum (budget ran out), in which case the
    reports carry the interval information.  No level rebuilds the lex-min
    basis; a caller that wants it loops `dim_exact(space, k, prev_dim=...)`.
    """
    cap = max_k(space)
    horizon = cap if k_max is None else min(k_max, cap)
    reports: list[SolveReport] = []
    prev: int | None = None
    for k in range(1, horizon + 1):
        report = dim_exact(space, k, budget_secs=budget_secs, prev_dim=prev, lex_min=False)
        reports.append(report)
        if report.status != "optimal":
            return None, reports
        prev = report.optimum.value
    entries = tuple(r.optimum for r in reports)
    return DimensionSequence(entries, tail_start=cap + 1), reports


def dimension_sequence(space: FiniteMetricSpace, k_max: int | None = None, *,
                       budget_secs: float | None = DEFAULT_BUDGET_SECS) -> DimensionSequence:
    """Dimension sequence up to k_max (default: the feasibility cap max_k)."""
    seq, reports = sequence_with_reports(space, k_max, budget_secs=budget_secs)
    if seq is None:
        bounded = reports[-1]
        raise KMetricError(
            f"budget exhausted at k={bounded.k}: optimum in {bounded.bounds}; "
            "rerun with a larger budget or use sequence_with_reports")
    return seq
