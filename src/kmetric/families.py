"""Parametric generators for the stock space and graph families.

Infinite objects (lattices, free-group trees, the two-sided ladder) are
delivered as finite truncations: the induced subgraph on a ball of fixed
radius.  Each generator asserts its own vertex-count formula after
construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, NamedTuple

from .errors import BadFamilyParams, KMetricError
from .graphs import Graph, build_graph, shortest_path_metric
from .solver import DEFAULT_BUDGET_SECS, DimensionSequence, dim_exact
from .spaces import (
    DEFAULT_QUANTIZE_DIGITS,
    FiniteMetricSpace,
    TwoPointSpaceWarning,
    _from_scaled,
    bisector,
)


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameters."""

    name: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        family = _FAMILIES.get(self.name)
        if family is None:
            raise BadFamilyParams(f"unknown family {self.name!r}")
        if len(self.params) != family.arity:
            raise BadFamilyParams(
                f"{self.name} takes {family.arity} parameter(s), got {len(self.params)}")
        if not family.valid(self.params):
            raise BadFamilyParams(f"parameters {self.params} out of range for {self.name}")

    def __str__(self) -> str:
        token = _token(self.name)
        if not self.params:
            return token
        return token + ":" + ",".join(str(p) for p in self.params)


def _token(name: str) -> str:
    """The CLI token of a family: "grid_ball" -> "grid-ball"; interval_sample is "interval"."""
    return "interval" if name == "interval_sample" else name.replace("_", "-")


def parse_family(text: str) -> FamilySpec:
    """Parse a family token like "cycle:8", "lollipop:5,4" or "petersen"."""
    name, _, raw = text.strip().partition(":")
    key = _CLI_ALIASES.get(name.strip().lower())
    if key is None:
        raise BadFamilyParams(f"unknown family {name!r}")
    params: tuple[int, ...] = ()
    if raw:
        try:
            params = tuple(int(p) for p in raw.split(","))
        except ValueError as exc:
            raise BadFamilyParams(f"bad parameters in {text!r}") from exc
    return FamilySpec(key, params)


def make(spec: FamilySpec) -> Graph | FiniteMetricSpace:
    """Build the family member: a Graph for graph families, a space otherwise."""
    return _FAMILIES[spec.name].make(*spec.params)


def make_space(spec: FamilySpec) -> FiniteMetricSpace:
    """Like make(), with graphs converted through their shortest-path metric."""
    obj = make(spec)
    return shortest_path_metric(obj) if isinstance(obj, Graph) else obj


def _assert_count(g: Graph, vertices: int, edges: int):
    assert g.n == vertices and len(g.edges) == edges, (g.n, len(g.edges), vertices, edges)


def make_path(n: int) -> Graph:
    """Path v1 - v2 - ... - vn: n vertices, n-1 edges."""
    labels = [f"v{i}" for i in range(1, n + 1)]
    g = build_graph(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])
    _assert_count(g, n, n - 1)
    return g


def make_cycle(n: int) -> Graph:
    """Cycle v1 - ... - vn - v1: n vertices, n edges."""
    labels = [f"v{i}" for i in range(1, n + 1)]
    g = build_graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
    _assert_count(g, n, n)
    return g


def make_complete(n: int) -> Graph:
    """Complete graph on n vertices: n(n-1)/2 edges."""
    labels = [f"v{i}" for i in range(1, n + 1)]
    g = build_graph(labels, list(combinations(labels, 2)))
    _assert_count(g, n, n * (n - 1) // 2)
    return g


def make_petersen() -> Graph:
    """Petersen graph: outer 5-cycle u1..u5, inner pentagram v1..v5, spokes."""
    outer = [f"u{i}" for i in range(1, 6)]
    inner = [f"v{i}" for i in range(1, 6)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    g = build_graph(outer + inner, edges)
    _assert_count(g, 10, 15)
    assert all(g.degree(i) == 3 for i in range(10))
    return g


def make_lollipop(cycle_len: int, tail: int) -> Graph:
    """5-cycle v1 v2 v3 v4 u1 with a path u1 - u2 - ... - u_tail attached.

    The shared vertex u1 is counted once: 4 + tail vertices, 4 + tail edges.
    """
    if cycle_len != 5:
        raise BadFamilyParams(f"lollipop cycle length must be 5, got {cycle_len}")
    vs = [f"v{i}" for i in range(1, 5)]
    us = [f"u{i}" for i in range(1, tail + 1)]
    edges = [(vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[3]), (us[0], vs[0]), (us[0], vs[3])]
    edges += [(us[i], us[i + 1]) for i in range(tail - 1)]
    g = build_graph(vs + us, edges)
    _assert_count(g, 4 + tail, 4 + tail)
    return g


def _grid_label(coords: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


def make_grid_ball(rank: int, radius: int) -> Graph:
    """Induced subgraph of the rank-dimensional integer lattice on the
    closed l1-ball of the given radius around the origin.

    Distances measured inside the ball can in principle exceed lattice
    distances near the boundary; the divergence report flags such pairs
    (none occur, since monotone lattice paths never leave the ball).
    """
    points = [
        coords
        for coords in product(range(-radius, radius + 1), repeat=rank)
        if sum(abs(c) for c in coords) <= radius
    ]
    points.sort()
    labels = [_grid_label(c) for c in points]
    index = set(points)
    edges = []
    for coords in points:
        for axis in range(rank):
            step = tuple(c + (1 if i == axis else 0) for i, c in enumerate(coords))
            if step in index:
                edges.append((_grid_label(coords), _grid_label(step)))
    g = build_graph(labels, edges)
    expected = sum(2**i * math.comb(rank, i) * math.comb(radius, i) for i in range(0, min(rank, radius) + 1))
    assert g.n == expected, (g.n, expected)
    return g


_GENERATOR_LETTERS = "abcdfghijklmn"


def _free_inverse(letter: str) -> str:
    return letter.swapcase()


def make_free_ball(rank: int, radius: int) -> Graph:
    """Ball of the given radius in the Cayley graph of a free group.

    Vertices are reduced words over rank generator letters (lowercase) and
    their inverses (uppercase); the identity is "e".  The graph is a tree
    in which the root has degree 2*rank and interior vertices 2*rank.
    """
    if rank > len(_GENERATOR_LETTERS):
        raise BadFamilyParams(f"free_ball rank capped at {len(_GENERATOR_LETTERS)}")
    letters = []
    for i in range(rank):
        letters.append(_GENERATOR_LETTERS[i])
        letters.append(_free_inverse(_GENERATOR_LETTERS[i]))
    words = [""]
    edges = []
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for word in frontier:
            last = word[-1] if word else None
            for letter in letters:
                if last is not None and letter == _free_inverse(last):
                    continue
                child = word + letter
                words.append(child)
                edges.append((word or "e", child))
                nxt.append(child)
        frontier = nxt
    labels = ["e"] + [w for w in words if w]
    g = build_graph(labels, edges)
    if rank == 1:
        expected = 2 * radius + 1
    else:
        expected = 1 + 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)
    assert g.n == expected, (g.n, expected)
    return g


def gaussian_label(m: int, n: int) -> str:
    """Gaussian-integer style label for a ladder vertex: "0", "-2", "i", "3+i"."""
    if n == 0:
        return str(m)
    return "i" if m == 0 else f"{m}+i"


def make_ladder(radius: int) -> Graph:
    """Two-rail ladder on columns -radius..radius: 2(2r+1) vertices."""
    cols = range(-radius, radius + 1)
    labels = [gaussian_label(m, n) for n in (0, 1) for m in cols]
    edges = []
    for n in (0, 1):
        edges += [(gaussian_label(m, n), gaussian_label(m + 1, n)) for m in cols if m < radius]
    edges += [(gaussian_label(m, 0), gaussian_label(m, 1)) for m in cols]
    g = build_graph(labels, edges)
    _assert_count(g, 2 * (2 * radius + 1), 4 * radius + (2 * radius + 1))
    return g


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _points_on_a_line(labels, coords, scale: int, meta=None) -> FiniteMetricSpace:
    """The points at distinct integer `coords` / `scale` on the real line:
    a metric by construction, so `build_space` does not re-check it."""
    if len(coords) == 2:
        warnings.warn("2-point spaces are degenerate for dimension analysis", TwoPointSpaceWarning, stacklevel=3)
    z = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    return _from_scaled(tuple(labels), z, scale, meta)


def make_sqrt_primes(count: int) -> FiniteMetricSpace:
    """Square roots of the first `count` primes on the real line.

    Coordinates are quantized to DEFAULT_QUANTIZE_DIGITS decimal digits
    (recorded in the space's metadata), which keeps them distinct for every
    prime below about 10**23; distances are exact differences of the
    quantized coordinates, so the Euclidean structure survives intact.
    """
    primes = _first_primes(count)
    scale = 10**DEFAULT_QUANTIZE_DIGITS
    coords = [math.isqrt(p * scale * scale) for p in primes]
    labels = [f"sqrt({p})" for p in primes]
    return _points_on_a_line(labels, coords, scale, {"quantization_digits": DEFAULT_QUANTIZE_DIGITS})


def make_interval_sample(count: int) -> FiniteMetricSpace:
    """Uniform rational sample of the unit interval: points i/(count-1)."""
    labels = [str(Fraction(i, count - 1)) for i in range(count)]
    return _points_on_a_line(labels, range(count), count - 1)


class _Family(NamedTuple):
    make: Callable[..., Graph | FiniteMetricSpace]
    arity: int
    valid: Callable[[tuple[int, ...]], bool]  # parameter range check


_FAMILIES = {
    "path": _Family(make_path, 1, lambda p: p[0] >= 2),
    "cycle": _Family(make_cycle, 1, lambda p: p[0] >= 3),
    "complete": _Family(make_complete, 1, lambda p: p[0] >= 2),
    "petersen": _Family(make_petersen, 0, lambda p: True),
    "lollipop": _Family(make_lollipop, 2, lambda p: p[0] == 5 and p[1] >= 1),
    "grid_ball": _Family(make_grid_ball, 2, lambda p: p[0] >= 1 and p[1] >= 1),
    "free_ball": _Family(make_free_ball, 2, lambda p: p[0] >= 1 and p[1] >= 1),
    "ladder": _Family(make_ladder, 1, lambda p: p[0] >= 1),
    "sqrt_primes": _Family(make_sqrt_primes, 1, lambda p: p[0] >= 2),
    "interval_sample": _Family(make_interval_sample, 1, lambda p: p[0] >= 2),
}

# CLI mini-language tokens, e.g. "grid-ball:2,4" or "interval:11"; the
# underscore names are accepted too.
_CLI_ALIASES = {alias: name for name in _FAMILIES for alias in (name, _token(name))}


# --- known dimension sequences ------------------------------------------------

@dataclass(frozen=True)
class ExpectedSequence:
    """Closed-form dimension values where a formula is known.

    `partial` means only the listed entries are claimed and nothing is
    known beyond them (then tail_start is None).
    """

    entries: tuple[int, ...]
    tail_start: int | None
    partial: bool = False

    def judge(self, seq: DimensionSequence) -> tuple[list[str], str | None, str]:
        """(per-level verdicts, tail verdict, overall) of a computed sequence.

        A level is PASS or FAIL against its claimed value; past the claimed
        entries it is UNKNOWN for a partial claim and FAIL otherwise, where
        the claim says infinite.  A partial claim has no tail verdict.
        Overall is FAIL when any verdict is, and PASS otherwise.
        """
        verdicts = ["UNKNOWN" if self.partial else "FAIL"] * len(seq.entries)
        for k, (entry, want) in enumerate(zip(seq.entries, self.entries)):
            verdicts[k] = "PASS" if entry == want else "FAIL"
        tail_verdict = None if self.partial else "PASS" if self.tail_start == seq.tail_start else "FAIL"
        overall = "FAIL" if ("FAIL" in verdicts or tail_verdict == "FAIL") else "PASS"
        return verdicts, tail_verdict, overall


def expected_sequence(spec: FamilySpec) -> ExpectedSequence | None:
    """The known dimension sequence of a family member, or None."""
    name, params = spec.name, spec.params
    if name == "complete":
        n = params[0]
        return ExpectedSequence((n - 1, n), tail_start=3)
    if name == "path":
        n = params[0]
        if n <= 3:
            return ExpectedSequence((1, 2), tail_start=3)
        return ExpectedSequence((1, 2) + tuple(range(4, n + 1)), tail_start=n)
    if name == "cycle":
        n = params[0]
        if n % 2 == 1:
            return ExpectedSequence(tuple(range(2, n + 1)), tail_start=n)
        q = n // 2
        return ExpectedSequence(
            tuple(range(2, q + 1)) + tuple(range(q + 2, 2 * q + 1)), tail_start=n - 1)
    if name == "petersen":
        return ExpectedSequence((3, 4, 7, 8, 9, 10), tail_start=7)
    if name == "lollipop":
        return ExpectedSequence((2, 3, 4, 5), tail_start=None, partial=True)
    if name == "sqrt_primes":
        m = params[0]
        return ExpectedSequence(tuple(range(1, m + 1)), tail_start=m + 1)
    return None


# --- divergence evidence ------------------------------------------------------

@dataclass(frozen=True)
class RadiusEvidence:
    """Exact dim_1 of one truncation plus a verified bisector witness."""

    radius: int
    size: int
    dim1: int
    witness_pairs: int
    witness_fraction: Fraction  # share of the ball covered by the witness bisectors
    containment_verified: bool
    boundary_distortions: int = 0  # pairs whose in-ball distance exceeds the ambient one


@dataclass(frozen=True)
class DivergenceReport:
    family: str
    rank: int | None
    per_radius: tuple[RadiusEvidence, ...]
    dim1_nondecreasing: bool


def divergence_evidence(family: str, radii, *, rank: int = 2,
                        budget_secs: float | None = DEFAULT_BUDGET_SECS) -> DivergenceReport:
    """Evidence for how dim_1 behaves on growing truncations.

    For lattice balls the witness is the quadrant inside the bisector of
    the two neighbors of a diagonal point; for free-group balls it is a
    whole root branch inside the bisector of two other root neighbors;
    for the ladder it is the two half-rails equidistant from 0 and 1+i.
    Containment is verified exhaustively on each truncation.  Each dim_1
    solve gets `budget_secs` as its budget; None means no limit.
    """
    family = _CLI_ALIASES.get(family.replace("_", "-"), family)
    if family not in ("grid_ball", "free_ball", "ladder"):
        raise BadFamilyParams(f"divergence evidence supports grid_ball, free_ball, ladder; got {family!r}")
    if family != "ladder" and rank < 2:
        raise BadFamilyParams(f"{family} witness chains need rank >= 2, got {rank}")
    radii = tuple(radii)
    if len(radii) < 2 or any(a >= b for a, b in zip(radii, radii[1:])):
        raise BadFamilyParams(f"radii must be strictly increasing with >= 2 values, got {radii}")
    evidence = []
    for radius in radii:
        if family == "grid_ball":
            evidence.append(_grid_evidence(rank, radius, budget_secs))
        elif family == "free_ball":
            evidence.append(_free_evidence(rank, radius, budget_secs))
        else:
            evidence.append(_ladder_evidence(radius, budget_secs))
    dims = [e.dim1 for e in evidence]
    nondecreasing = all(a <= b for a, b in zip(dims, dims[1:]))
    return DivergenceReport(
        family=family,
        rank=None if family == "ladder" else rank,
        per_radius=tuple(evidence),
        dim1_nondecreasing=nondecreasing,
    )


def _dim1(space: FiniteMetricSpace, budget_secs) -> int:
    report = dim_exact(space, 1, budget_secs=budget_secs, lex_min=False)
    if report.status != "optimal":
        raise KMetricError(f"budget exhausted computing dim_1: bounds {report.bounds}")
    return report.optimum.value


def _parse_grid_coords(label: str) -> tuple[int, ...]:
    return tuple(int(c) for c in label.strip("()").split(","))


def _grid_evidence(rank: int, radius: int, budget_secs) -> RadiusEvidence:
    g = make_grid_ball(rank, radius)
    space = shortest_path_metric(g)
    coords = {i: _parse_grid_coords(lab) for i, lab in enumerate(g.labels)}
    # distortion check: in-ball BFS distance vs ambient lattice (l1) distance
    distortions = 0
    for u in range(space.n):
        cu = coords[u]
        for v in range(u + 1, space.n):
            cv = coords[v]
            if space.dist[u][v] != sum(abs(a - b) for a, b in zip(cu, cv)):
                distortions += 1
    # witness chain: for diagonal anchors (m,...,m), the bisector of the two
    # points one step away along the first two axes contains the whole
    # quadrant beyond the anchor.
    index = {c: i for i, c in coords.items()}
    tail = [0] * (rank - 2)
    union: set[int] = set()
    pairs = 0
    contained = True
    m = 0
    while True:
        u = (m + 1, m, *tail)
        v = (m, m + 1, *tail)
        if u not in index or v not in index:
            break
        pairs += 1
        bis = set(bisector(space, index[u], index[v]))
        quadrant = {
            i for i, c in coords.items()
            if c[0] >= m + 1 and c[1] >= m + 1 and all(x == t for x, t in zip(c[2:], tail))
        }
        if not quadrant <= bis:
            contained = False
        union |= bis
        m -= 1
    return RadiusEvidence(
        radius=radius,
        size=space.n,
        dim1=_dim1(space, budget_secs),
        witness_pairs=pairs,
        witness_fraction=Fraction(len(union), space.n),
        containment_verified=contained,
        boundary_distortions=distortions,
    )


def _free_evidence(rank: int, radius: int, budget_secs) -> RadiusEvidence:
    g = make_free_ball(rank, radius)
    space = shortest_path_metric(g)
    root = g.index("e")
    neighbors = sorted(g.adjacency[root])
    a, b = neighbors[0], neighbors[1]
    bis = set(bisector(space, a, b))
    contained = True
    checked = 0
    for c in neighbors[2:]:
        prefix = g.labels[c]
        branch = {i for i, lab in enumerate(g.labels) if lab.startswith(prefix)}
        checked += 1
        if not branch <= bis:
            contained = False
    return RadiusEvidence(
        radius=radius,
        size=space.n,
        dim1=_dim1(space, budget_secs),
        witness_pairs=checked,
        witness_fraction=Fraction(len(bis), space.n),
        containment_verified=contained and len(neighbors) >= 3,
    )


def _ladder_evidence(radius: int, budget_secs) -> RadiusEvidence:
    g = make_ladder(radius)
    space = shortest_path_metric(g)
    u = g.index("0")
    v = g.index("1+i")
    bis = set(bisector(space, u, v))
    expected = {g.index(gaussian_label(m, 0)) for m in range(1, radius + 1)}
    expected |= {g.index(gaussian_label(m, 1)) for m in range(-radius, 1)}
    return RadiusEvidence(
        radius=radius,
        size=space.n,
        dim1=_dim1(space, budget_secs),
        witness_pairs=1,
        witness_fraction=Fraction(len(bis), space.n),
        containment_verified=bis == expected,
    )
