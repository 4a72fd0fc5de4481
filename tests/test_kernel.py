"""The integer kernel against the plain Fraction definitions it replaces.

Validation, distinguisher masks, the greedy and the random rational
metrics run on common-denominator integers and bitsets, and the exact
cluster bound tests all subsets of a cluster's support at once.  Each
test here keeps the straightforward version as a reference and requires
the same result: the same exception (class, indices, message) for bad
input, the same masks, the same greedy (value, set), the same spaces, the
same cluster minimum and lex-min subset.
"""

import hashlib
import random
import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_, sub

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from kmetric import solver
from kmetric.errors import (
    AsymmetricDistance,
    FormatError,
    KMetricError,
    NegativeDistance,
    TriangleViolation,
    ZeroOffDiagonal,
)
from kmetric.families import expected_sequence, make_space, parse_family
from kmetric.graphs import shortest_path_metric
from kmetric.randgen import random_connected_graph, random_rational_metric
from kmetric.solver import (
    COMPONENT_SUPPORT_CAP,
    _cluster_bound,
    _degree_bound,
    _exact_cluster_min,
    _subset_tables,
    dim_exact,
    greedy_upper,
)
from kmetric.spaces import (
    DistinguisherMap,
    PointSet,
    TwoPointSpaceWarning,
    _triangle_scan,
    all_distinguishers,
    as_rational,
    bisector,
    build_space,
    distinguishers,
    max_k,
)

from conftest import metric_spaces


# --- reference implementations ----------------------------------------------

def reference_scan(d):
    """The Fraction validation scan, in its original order; the first error or None."""
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            return FormatError(f"d[{i}][{i}]={d[i][i]} must be 0")
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return AsymmetricDistance(i, j, d[i][j], d[j][i])
            if d[i][j] < 0:
                return NegativeDistance(i, j, d[i][j])
            if d[i][j] == 0:
                return ZeroOffDiagonal(i, j)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return TriangleViolation(i, j, k, d[i][k], d[i][j] + d[j][k])
    return None


def reference_triangle(z):
    """The integer row scan: the first (i, j), row-major, with some
    z[i][k] > z[i][j] + z[j][k], or None."""
    for i, zi in enumerate(z):
        for j, zj in enumerate(z):
            if j != i and max(map(sub, zi, zj)) > zi[j]:
                return i, j
    return None


def reference_masks(space):
    out = []
    for u, v in combinations(range(space.n), 2):
        du, dv = space.dist[u], space.dist[v]
        out.append(sum(1 << x for x in range(space.n) if du[x] != dv[x]))
    return tuple(out)


def reference_row_masks(rows):
    """The value-group loop the byte-field kernel replaced: u and v tie at
    x exactly when x lies in the same value group of both rows."""
    groups = []
    for row in rows:
        group = {}
        for x, value in enumerate(row):
            group[value] = group.get(value, 0) | 1 << x
        groups.append(group)
    full = (1 << len(rows)) - 1
    out = []
    for u, group_u in enumerate(groups):
        for group_v in groups[u + 1:]:
            same = 0
            for value, mask in group_u.items():
                same |= mask & group_v.get(value, 0)
            out.append(full ^ same)
    return tuple(out)


def reference_columns(masks, n):
    """Per point, the bitmask over pair indices of the masks that hold it."""
    return tuple(sum(1 << p for p, m in enumerate(masks) if m >> x & 1) for x in range(n))


def copied_rows(n, distinct, rng):
    """An n x n integer matrix with exactly `distinct` values, 0..distinct-1.
    Each cell below row 0 copies the cell above it with probability 1/2,
    so rows tie at many points; the other cells take the values in turn,
    then at random once every value is used."""
    fresh = iter(range(distinct))
    rows = []
    for u in range(n):
        row = []
        for x in range(n):
            if u and rng.random() < 0.5:
                row.append(rows[u - 1][x])
            else:
                row.append(next(fresh, None))
                if row[-1] is None:
                    row[-1] = rng.randrange(distinct)
        rows.append(tuple(row))
    assert len(set().union(*rows)) == distinct
    return tuple(rows)


def reference_greedy(space, k):
    """The deficit-list greedy: one deficit per pair, rescanned for every point."""
    masks = reference_masks(space)
    if min(m.bit_count() for m in masks) < k:
        return None
    deficits = [k] * len(masks)
    chosen_mask = 0
    chosen = []
    while any(d > 0 for d in deficits):
        best_gain = -1
        best_x = -1
        for x in range(space.n):
            bit = 1 << x
            if chosen_mask & bit:
                continue
            gain = sum(1 for m, d in zip(masks, deficits) if d > 0 and m & bit)
            if gain > best_gain:
                best_gain = gain
                best_x = x
        chosen_mask |= 1 << best_x
        chosen.append(best_x)
        for i, m in enumerate(masks):
            if deficits[i] > 0 and m & (1 << best_x):
                deficits[i] -= 1
    return len(chosen), PointSet.of(chosen)


def reference_rational_metric(n, rng, max_weight=8):
    """Shortest-path closure of random rational weights, in Fractions."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            w = Fraction(rng.randint(1, max_weight), rng.randint(1, 3))
            d[u][v] = d[v][u] = w
    for mid in range(n):
        for u in range(n):
            for v in range(n):
                d[u][v] = min(d[u][v], d[u][mid] + d[mid][v])
    return d


def reference_cluster_min(members, size):
    """The subset scan by increasing size: the size and the mask of the
    first subset of range(size) meeting every (mask, need) member.
    `combinations` yields in lex order, so that subset is the lex-min one."""
    for count in range(1, size + 1):
        for combo in combinations(range(size), count):
            sm = 0
            for x in combo:
                sm |= 1 << x
            if all((sm & m).bit_count() >= need for m, need in members):
                return count, sm
    return size, (1 << size) - 1


def reference_cluster_bound(residuals):
    """Union-find over the constraints, joining two whose masks intersect;
    then each cluster's exact solve (support at most COMPONENT_SUPPORT_CAP
    points) or packing bound.  Returns (bound, cover, keys): the sum, the
    union of the exact covers or None, and the small clusters' memo keys."""
    parent = list(range(len(residuals)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(len(residuals)), 2):
        if residuals[i][0] & residuals[j][0]:
            parent[find(i)] = find(j)
    groups = {}
    for i, constraint in enumerate(residuals):
        groups.setdefault(find(i), []).append(constraint)
    bound, cover, keys = 0, 0, set()
    for members in groups.values():
        support = reduce(or_, (mask for mask, _ in members))
        if support.bit_count() <= COMPONENT_SUPPORT_CAP:
            key = tuple(sorted(set(members)))
            value, subset = _exact_cluster_min(key, support)
            keys.add(key)
            cover = None if cover is None else cover | subset
        else:
            value = solver._packing_bound(members)
            cover = None
        bound += value
    return bound, cover, keys


# --- strategies ---------------------------------------------------------------

@st.composite
def clusters(draw, max_size=COMPONENT_SUPPORT_CAP):
    """(members, size): 1 to 64 members over at most `max_size` points,
    masks drawn from a small pool so that some repeat, each need in 1..|mask|."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    count = draw(st.one_of(st.just(1), st.just(64), st.integers(min_value=1, max_value=64)))
    pool = draw(st.lists(st.integers(min_value=1, max_value=(1 << size) - 1), min_size=1, max_size=count))
    members = []
    for _ in range(count):
        mask = draw(st.sampled_from(pool))
        members.append((mask, draw(st.integers(min_value=1, max_value=mask.bit_count()))))
    return tuple(members), size


@st.composite
def chained_residuals(draw):
    """Up to 16 residual constraints of 1 to 4 points among 30, so that
    clusters chain-merge and some grow past COMPONENT_SUPPORT_CAP points.
    A repeated mask keeps its need: a packing then does not depend on the
    order of a cluster's members."""
    masks = draw(st.lists(st.sets(st.integers(min_value=0, max_value=29), min_size=1, max_size=4)
                          .map(lambda points: sum(1 << b for b in points)), min_size=1, max_size=16))
    needs = {}
    for mask in masks:
        if mask not in needs:
            needs[mask] = draw(st.integers(min_value=1, max_value=mask.bit_count()))
    return [(mask, needs[mask]) for mask in masks]


@st.composite
def line_metrics(draw, min_n=2, max_n=7):
    """|x_i - x_j| for rational points with mixed denominators: always a metric."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    points = draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=n, max_size=n, unique=True))
    return [[abs(a - b) for b in points] for a in points]


# Values next to the edges of the kernel's field width W (bytes per cell,
# from 2 * max entry): W grows past 63, 2**14 - 1 and 2**22 - 1, and one
# byte holds up to 255.  Around 10**13 is the scale of sqrt-primes inputs.
EDGE_VALUES = (1, 2, 3, 63, 64, 127, 128, 255, 256, 2**14 - 1, 2**14,
               2**16 - 1, 2**16 + 1, 2**22 - 1, 2**22, 10**13 - 1, 10**13)


@st.composite
def edge_metrics(draw, max_n=16):
    """Integer metrics with entries in [ceil(M/2), M] for an edge value M."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    top = draw(st.sampled_from(EDGE_VALUES))
    entries = st.one_of(st.sampled_from([top, top - 1, (top + 1) // 2]),
                        st.integers(min_value=(top + 1) // 2, max_value=top))
    d = [[Fraction(0)] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        d[u][v] = d[v][u] = Fraction(max(draw(entries), 1))
    return d


@st.composite
def faulty_matrices(draw):
    """A metric with one planted fault (or none), entries as ints, strings, floats or Fractions."""
    source = draw(st.sampled_from(["line", "random", "edge"]))
    if source == "line":
        d = draw(line_metrics())
    elif source == "edge":
        d = draw(edge_metrics())
    else:
        n = draw(st.integers(min_value=2, max_value=16))
        seed = draw(st.integers(min_value=0, max_value=2**20))
        d = [list(row) for row in random_rational_metric(n, random.Random(seed)).dist]
    n = len(d)
    fault = draw(st.sampled_from(["none", "diagonal", "asymmetric", "zero", "one-sided",
                                  "negative", "triangle", "perturb", "perturb"]))
    i, j = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2, unique=True))
    delta = draw(st.fractions(min_value=Fraction(1, 7), max_value=30, max_denominator=9))
    if fault == "diagonal":
        d[i][i] = delta
    elif fault == "asymmetric":
        d[i][j] += draw(st.sampled_from([-1, 1])) * delta
    elif fault == "zero":
        d[i][j] = d[j][i] = Fraction(0)
    elif fault == "one-sided":
        d[i][j] = draw(st.sampled_from([Fraction(0), -delta]))
    elif fault == "negative":
        d[i][j] = d[j][i] = -delta
    elif fault == "triangle":
        d[i][j] = d[j][i] = d[i][j] + max(max(row) for row in d) + delta
    elif fault == "perturb":
        d[i][j] = d[j][i] = max(d[i][j] + draw(st.sampled_from([-1, 1])) * delta, Fraction(1, 5))
    style = draw(st.sampled_from(["fraction", "int", "str", "float", "mixed"]))
    if style == "int":
        d = [[int(x) if x.denominator == 1 else x for x in row] for row in d]
    elif style == "str":
        d = [[str(x) for x in row] for row in d]
    elif style == "float":
        d = [[float(x) for x in row] for row in d]
    elif style == "mixed":
        kinds = draw(st.lists(st.sampled_from([str, float, Fraction]), min_size=n * n, max_size=n * n))
        d = [[kinds[r * n + c](d[r][c]) for c in range(n)] for r in range(n)]
    return d


def search_past_the_degree_bound(space, k):
    """Level k's search run from the greedy incumbent down to the root
    cluster bound.  The degree bound proves cycle levels at the root, so
    `dim_exact` would not search them at all."""
    constraints = [(m, k) for m in all_distinguishers(space).reduced_masks]
    search = solver._Search(constraints, None)
    floor, _ = _cluster_bound(constraints, search.cache)
    size, cover = greedy_upper(space, k)
    search.run(size, cover.to_mask(), floor)
    return search


def outcome(fn):
    try:
        fn()
    except KMetricError as exc:
        return type(exc), getattr(exc, "indices", None), str(exc)
    return None


# --- tests --------------------------------------------------------------------

class TestValidation:
    @settings(max_examples=300)
    @given(faulty_matrices())
    def test_same_error_as_the_fraction_scan(self, d):
        labels = [f"p{i}" for i in range(len(d))]
        exact = [[as_rational(x)[0] for x in row] for row in d]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TwoPointSpaceWarning)
            got = outcome(lambda: build_space(labels, d))
        want = reference_scan(exact)
        assert got == (None if want is None else (type(want), getattr(want, "indices", None), str(want)))

    @settings(max_examples=300)
    @given(st.data())
    def test_triangle_scan_finds_the_first_pair(self, data):
        # Entries from a small pool of edge values, their doubles and their
        # neighbours, so that violations and exact ties (a field landing on
        # its top bit) are both common.  Any non-negative matrix will do.
        n = data.draw(st.integers(min_value=1, max_value=16))
        base = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(min_value=0, max_value=10**13))
        pool = data.draw(st.lists(base.flatmap(lambda v: st.sampled_from([v, 2 * v, 2 * v + 1, max(v - 1, 0)])),
                                  min_size=1, max_size=4))
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
        z = [[0 if r == c else picks[r * n + c] for c in range(n)] for r in range(n)]
        if data.draw(st.booleans()):
            z = [[z[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
        assert _triangle_scan(z) == reference_triangle(z)

    @pytest.mark.parametrize("huge, digits", [("1e20000", 20001), ("1e60000", 60001)])
    def test_one_huge_entry_is_rejected_without_wide_fields(self, huge, digits):
        # Fields as wide as the huge entry would take n*n times its bytes
        # (hundreds of MB at 1e60000); the plain scan takes none.
        n = 40
        d = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
        d[3][17] = d[17][3] = huge
        tracemalloc.start()
        try:
            with pytest.raises(TriangleViolation) as info:
                build_space([f"p{i}" for i in range(n)], d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"d[3][17]=<fraction with {digits}-digit numerator>"
                                   " > d[3][0]+d[0][17]=2")
        assert peak < 32 * 2**20

    def test_triangle_scan_at_the_field_width_edges(self):
        # (i, j, k) = (0, 1, 2) with z[0][2] = z[0][1] + z[1][2] + excess;
        # the largest entry sits on each edge value in turn.
        for top in EDGE_VALUES[3:]:
            for excess in (0, 1):
                a = (top - excess) // 2
                z = [[0, a, top], [a, 0, top - excess - a], [top, top - excess - a, 0]]
                assert _triangle_scan(z) == reference_triangle(z) == ((0, 1) if excess else None)

    def test_entry_memo_keeps_the_rules_of_each_type(self):
        # 1 and "1" are converted first, so a memoised True, 1.0 or [1]
        # would be accepted silently or lose the quantization record.
        labels = ["a", "b", "c"]
        for entry in (True, [1]):
            with pytest.raises(FormatError):
                build_space(labels, [[0, 1, "1"], [1, 0, "1"], ["1", entry, 0]])
        space = build_space(labels, [[0, 1, "1"], [1, 0, "1"], ["1", 1.0, 0]])
        assert space.meta["quantization_digits"] == 12
        assert space.dist == build_space(labels, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]).dist

    @given(line_metrics(min_n=3))
    def test_integer_rows_keep_equality_and_order(self, d):
        space = build_space([f"p{i}" for i in range(len(d))], d)
        z = space._int_dist
        cells = [(r, c) for r in range(space.n) for c in range(space.n)]
        for (a, b), (c, e) in combinations(cells, 2):
            assert (z[a][b] < z[c][e]) == (d[a][b] < d[c][e])
            assert (z[a][b] == z[c][e]) == (d[a][b] == d[c][e])


class TestMasks:
    @given(metric_spaces(min_n=3, max_n=9))
    def test_masks_match_the_definition(self, space):
        dmap = all_distinguishers(space)
        assert dmap.masks == reference_masks(space)
        assert dmap.pairs == tuple(combinations(range(space.n), 2))
        assert len(dmap) == len(dmap.pairs)
        for p, (u, v) in enumerate(dmap.pairs):
            assert dmap.get(v, u) == PointSet.from_mask(dmap.masks[p])
            assert distinguishers(space, u, v) == PointSet.from_mask(dmap.masks[p])
            du, dv = space.dist[u], space.dist[v]
            assert bisector(space, u, v).indices == tuple(x for x in range(space.n) if du[x] == dv[x])

    @given(metric_spaces(min_n=3, max_n=9))
    def test_columns_transpose_the_masks(self, space):
        dmap = all_distinguishers(space)
        for x, column in enumerate(dmap.columns):
            assert column == sum(1 << p for p, m in enumerate(dmap.masks) if m >> x & 1)

    @given(line_metrics(min_n=3))
    def test_mixed_denominators(self, d):
        space = build_space([f"p{i}" for i in range(len(d))], d)
        assert all_distinguishers(space).masks == reference_masks(space)

    def test_value_groups_agree_with_the_definition(self):
        for seed in range(20):
            space = random_rational_metric(12, random.Random(seed))
            assert reference_row_masks(space._int_dist) == reference_masks(space)

    @pytest.mark.parametrize("distinct", [256, 257])
    def test_code_width_edge(self, distinct):
        # 256 values fit one-byte codes and 257 need two.  The rows are
        # integers but no metric: the map compares values only.
        for seed in range(5):
            rows = copied_rows(24, distinct, random.Random(seed))
            dmap = DistinguisherMap(rows)
            assert dmap.masks == reference_row_masks(rows)
            assert dmap.columns == reference_columns(dmap.masks, 24)

    def test_every_two_byte_code_pair(self):
        # Column x holds (u + x) mod 257 in row u, so every two of the 257
        # values meet in some column, among them the codes 0 and 256, which
        # agree in their low byte.  No two rows tie anywhere.
        n = 257
        rows = tuple(tuple((u + x) % n for x in range(n)) for u in range(n))
        assert set(DistinguisherMap(rows).masks) == {(1 << n) - 1}

    def test_three_byte_codes(self):
        # 257 x 257 cells, all distinct except that rows 1 and 3 copy rows 0
        # and 2 at even points: 65,791 values, so codes take three bytes.
        # The twins tie at even points and differ at the odd ones next to
        # them; every other pair differs everywhere, and each odd column
        # holds 257 distinct codes, two of which share their low byte.
        n = 257
        rows = [[u * n + x for x in range(n)] for u in range(n)]
        for twin in (1, 3):
            for x in range(0, n, 2):
                rows[twin][x] = rows[twin - 1][x]
        rows = tuple(map(tuple, rows))
        assert len(set().union(*rows)) > 1 << 16
        dmap = DistinguisherMap(rows)
        odd = sum(1 << x for x in range(1, n, 2))
        twins = {dmap.pairs.index((0, 1)), dmap.pairs.index((2, 3))}
        assert dmap.masks == tuple(odd if p in twins else (1 << n) - 1 for p in range(len(dmap)))
        every_pair = (1 << len(dmap)) - 1
        twin_bits = sum(1 << p for p in twins)
        assert dmap.columns == tuple(every_pair ^ (0 if x % 2 else twin_bits) for x in range(n))
        assert dmap.min_size() == len(range(1, n, 2))

    @pytest.mark.parametrize("rows, mask", [
        (((0, 5), (5, 0)), 0b11),
        (((0, 1), (2, 1)), 0b01),
        (((7, 7), (7, 7)), 0b00),
    ])
    def test_two_points(self, rows, mask):
        dmap = DistinguisherMap(rows)
        assert dmap.masks == (mask,)
        assert dmap.columns == (mask & 1, mask >> 1)

    def test_get_rejects_a_non_pair(self):
        dmap = all_distinguishers(random_rational_metric(4, random.Random(1)))
        for u, v in ((1, 1), (-1, 2), (0, 4)):
            with pytest.raises(KeyError):
                dmap.get(u, v)


class TestGreedy:
    @given(metric_spaces(min_n=3, max_n=9))
    def test_same_value_and_set_at_every_k(self, space):
        for k in range(1, max_k(space) + 2):
            assert greedy_upper(space, k) == reference_greedy(space, k)


class TestClusterMin:
    @settings(max_examples=200)
    @given(clusters())
    def test_same_minimum_as_the_subset_scan(self, cluster):
        members, size = cluster
        assert _exact_cluster_min(members, (1 << size) - 1) == reference_cluster_min(members, size)

    @settings(max_examples=200)
    @given(clusters(), st.data())
    def test_scattered_support_gives_the_scan_through_the_support(self, cluster, data):
        # The same cluster laid over `size` points spread anywhere in 0..69:
        # the kernel works in those points and returns its cover in them.
        members, size = cluster
        support = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=69),
                                           min_size=size, max_size=size)))

        def spread(mask):
            return sum(1 << b for i, b in enumerate(support) if mask >> i & 1)

        value, cover = reference_cluster_min(members, size)
        scattered = tuple((spread(m), need) for m, need in members)
        assert _exact_cluster_min(scattered, spread((1 << size) - 1)) == (value, spread(cover))

    @pytest.mark.parametrize("k, value, nodes", [(11, 13, 3328), (12, 14, 2815)])
    def test_cache_hits_keep_their_needs(self, k, value, nodes):
        # cycle:22 solves the same clusters many times over, with different
        # remaining needs: a cache keyed on the masks alone answers 11 at k=11.
        space = make_space(parse_family("cycle:22"))
        search = search_past_the_degree_bound(space, k)
        assert search.best_size == value == expected_sequence(parse_family("cycle:22")).entries[k - 1]
        cover, finished = search.lex_min(value, search.best_mask)
        assert search.nodes == nodes and finished
        assert PointSet.from_mask(cover).labels(space) == tuple(f"v{i}" for i in range(1, value + 1))

    def test_cluster_covers_map_back_through_the_support(self):
        # Two clusters, {1, 3} and {20, 21}: each cover is its cluster's
        # first point, put back at its place in the space.
        assert _cluster_bound([(0b1010, 1), (0b11 << 20, 1)], {}) == (2, 1 << 1 | 1 << 20)

    def test_a_packing_cluster_leaves_no_cover(self):
        # A path of edges over COMPONENT_SUPPORT_CAP + 1 points is too wide
        # to solve exactly; the other cluster's exact cover does not close it.
        wide = [(0b11 << b, 1) for b in range(COMPONENT_SUPPORT_CAP)]
        bound, cover = _cluster_bound(wide + [(0b11 << 40, 1)], {})
        assert (bound, cover) == ((COMPONENT_SUPPORT_CAP + 1) // 2 + 1, None)

    def test_tables_match_their_definition(self):
        for size in range(COMPONENT_SUPPORT_CAP + 1):
            full, contains, by_size = _subset_tables(size)
            assert full == (1 << (1 << size)) - 1
            assert len(contains) == size and len(by_size) == size + 1
            for s in range(1 << size):
                assert [contains[b] >> s & 1 for b in range(size)] == [s >> b & 1 for b in range(size)]
                assert [by_size[j] >> s & 1 for j in range(size + 1)] == [
                    int(s.bit_count() == j) for j in range(size + 1)]


def reference_degree(masks):
    """The most masks any one point lies in, counted point by point."""
    return max(sum(m >> x & 1 for m in masks) for x in range(max(masks).bit_length()))


class TestDegreeBound:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=2**70 - 1),
                              st.integers(min_value=1, max_value=70)), min_size=1, max_size=40))
    def test_the_bit_planes_count_each_point(self, constraints):
        masks = [m for m, _ in constraints]
        top = reference_degree(masks)
        total = sum(need for _, need in constraints)
        assert _degree_bound(constraints) == -(-total // top)
        # ⌈N / D⌉ differs for every D >= 1 once N >= L(L + 1), L >= top the
        # number of masks, so this bound gives the top count away exactly.
        spread = len(masks) * (len(masks) + 1)
        assert _degree_bound([(m, 0) for m in masks] + [(0, spread)]) == -(-spread // top)

    @settings(max_examples=200)
    @given(clusters(max_size=10))
    def test_at_most_the_cluster_minimum(self, cluster):
        members, size = cluster
        assert _degree_bound(members) <= _exact_cluster_min(members, (1 << size) - 1)[0]


class TestLexMin:
    @settings(max_examples=200)
    @given(clusters(max_size=10), st.data())
    def test_the_first_optimal_cover_from_any_witness(self, cluster, data):
        # Fix-and-probe, with every cluster solved exactly and with none,
        # gives the scan's first optimal cover whichever optimal cover it
        # starts from.
        members, size = cluster
        value, first = reference_cluster_min(members, size)
        optimal = [sum(1 << x for x in combo) for combo in combinations(range(size), value)
                   if all(sum(m >> x & 1 for x in combo) >= need for m, need in members)]
        witness = data.draw(st.sampled_from(optimal))
        for cap in (COMPONENT_SUPPORT_CAP, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "COMPONENT_SUPPORT_CAP", cap)
                assert solver._Search(list(members), None).lex_min(value, witness) == (first, True)


class TestLazyClusterBound:
    """The cluster bound solves every small cluster of a node's residuals;
    a search node tests its largest need first and builds no partition
    when that prunes."""

    @settings(max_examples=300)
    @given(chained_residuals(), st.data())
    def test_the_sum_over_the_union_find_clusters(self, residuals, data):
        # A cache filled by a call on a prefix of the residuals serves the
        # call on all of them; every entry is its key's exact solve.
        cache = {}
        prefix = residuals[:data.draw(st.integers(min_value=0, max_value=len(residuals)))]
        for part in (prefix, residuals):
            bound, cover, keys = reference_cluster_bound(part)
            assert _cluster_bound(part, cache) == (bound, cover)
            assert keys <= set(cache)
        assert set(cache) == reference_cluster_bound(prefix)[2] | keys
        for key, solved in cache.items():
            assert solved == _exact_cluster_min(key, reduce(or_, (mask for mask, _ in key)))

    def test_a_small_cluster_of_many_members_is_solved(self):
        # The 66 edges of the complete graph on 12 points: every cover
        # misses at most one point, so the lex-min one is points 0..10.
        # Their packing bound would be 6.
        edges = [(1 << a | 1 << b, 1) for a, b in combinations(range(12), 2)]
        assert _cluster_bound(edges, {}) == (11, (1 << 11) - 1)

    @staticmethod
    def counting_kernel(monkeypatch):
        calls = []
        kernel = solver._exact_cluster_min
        monkeypatch.setattr(solver, "_exact_cluster_min", lambda *a: calls.append(a) or kernel(*a))
        return calls

    def test_kernel_calls_per_level(self, monkeypatch):
        # Each level solves only the uncached clusters of nodes that the
        # largest need and the need-1 AND leave open; with no largest-need
        # test first, it would make [8, 37, 98, 266, 291, 187, 49, 4] calls.
        calls = self.counting_kernel(monkeypatch)
        space = make_space(parse_family("grid-ball:2,3"))
        counts = []
        nodes = []
        prev = None
        for k in range(1, max_k(space) + 1):
            del calls[:]
            report = dim_exact(space, k, prev_dim=prev)
            prev = report.optimum.value
            counts.append(len(calls))
            nodes.append(report.nodes_explored)
        assert counts == [0, 0, 0, 0, 1, 1, 0, 1]
        assert nodes == [12, 97, 71, 105, 57, 53, 58, 8]

    @pytest.mark.parametrize("k, calls_made, nodes", [(11, 1170, 3328), (12, 985, 2815)])
    def test_kernel_calls_on_a_cycle(self, monkeypatch, k, calls_made, nodes):
        # With no largest-need test first, the cluster sum of every node
        # would make 1,962 and 1,644 calls.
        calls = self.counting_kernel(monkeypatch)
        search = search_past_the_degree_bound(make_space(parse_family("cycle:22")), k)
        assert (len(calls), search.nodes) == (calls_made, nodes)

    @pytest.mark.parametrize("n, seed, calls_made, nodes", [(15, 19, 5, 7), (16, 12, 0, 8)])
    def test_kernel_calls_on_sparse_graphs(self, monkeypatch, n, seed, calls_made, nodes):
        # Nodes whose residuals split into several clusters: each node the
        # largest need leaves open solves all of its uncached clusters,
        # unless it has two points to spare and closes on the need-1 AND.
        calls = self.counting_kernel(monkeypatch)
        graph = random_connected_graph(n, random.Random(seed), edge_prob=0.15)
        report = dim_exact(shortest_path_metric(graph), 1)
        assert (len(calls), report.nodes_explored) == (calls_made, nodes)


class TestRandomRationalMetric:
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**20))
    def test_integer_closure_gives_the_same_fractions(self, n, seed):
        space = random_rational_metric(n, random.Random(seed))
        want = reference_rational_metric(n, random.Random(seed))
        assert [list(row) for row in space.dist] == want

    def test_stored_fields_are_unchanged(self):
        # The digest of 300 seeded spaces as they were built through a
        # matrix of Fractions: the integer fields, not just the fractions,
        # stay the same.
        digest = hashlib.sha256()
        for seed in range(300):
            space = random_rational_metric(2 + seed % 11, random.Random(seed))
            digest.update(repr((space.labels, space._int_dist, space.scale)).encode())
        assert digest.hexdigest() == "7325efe200d7b89c35fe78635a57e1025f82c38b5e6b532559b1787a7e96ac52"


class TestAsRational:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e308, -1e300])
    def test_unquantizable_floats_are_format_errors(self, value):
        with pytest.raises(FormatError):
            as_rational(value)

    @given(st.floats(min_value=-1e290, max_value=1e290))
    def test_finite_floats_keep_their_quantization(self, value):
        scale = 10**12
        assert as_rational(value) == (Fraction(round(value * scale), scale), True)
