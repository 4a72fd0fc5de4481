import json
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kmetric.errors import (
    AsymmetricDistance,
    DuplicateLabel,
    FormatError,
    KMetricError,
    LabelCollision,
    NegativeDistance,
    NonpositiveParameter,
    SamePoint,
    TriangleViolation,
    ZeroOffDiagonal,
)
from kmetric.families import make_space, parse_family
from kmetric.graphs import parse_edge_list, shortest_path_metric
from kmetric.randgen import random_rational_metric
from kmetric.spaces import (
    FiniteMetricSpace,
    PointSet,
    TwoPointSpaceWarning,
    all_distinguishers,
    bisector,
    build_space,
    distinguishers,
    dump_space,
    is_k_generator,
    join,
    load_space,
    max_k,
    permute_space,
    truncate,
)

from conftest import connected_graphs, metric_spaces, rational_metric_spaces


def discrete(n):
    return build_space([f"p{i}" for i in range(n)],
                       [[0 if i == j else 1 for j in range(n)] for i in range(n)])


def cycle_space(n):
    # independent of the graph module: closed-form cycle distances
    d = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return build_space([f"v{i + 1}" for i in range(n)], d)


class TestBuildSpace:
    def test_discrete_three_points(self):
        space = discrete(3)
        assert space.n == 3
        assert space.dist[0][1] == Fraction(1)

    def test_asymmetric(self):
        with pytest.raises(AsymmetricDistance) as err:
            build_space(["a", "b", "c"], [[0, 1, 1], [2, 0, 1], [1, 1, 0]])
        assert err.value.indices == (0, 1)

    def test_triangle_violation(self):
        with pytest.raises(TriangleViolation) as err:
            build_space(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert err.value.indices == (0, 1, 2)

    def test_negative(self):
        with pytest.raises(NegativeDistance):
            build_space(["a", "b", "c"], [[0, -1, 1], [-1, 0, 1], [1, 1, 0]])

    def test_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonal):
            build_space(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_space(["a", "a", "b"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(FormatError):
            build_space(["a", "b", "c"], [[1, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(FormatError):
            build_space(["a", "b", "c"], [[0, 1], [1, 0]])

    def test_two_point_warning(self):
        with pytest.warns(TwoPointSpaceWarning):
            build_space(["a", "b"], [[0, 1], [1, 0]])

    def test_float_quantization_recorded(self):
        with pytest.warns(TwoPointSpaceWarning):
            space = build_space(["a", "b"], [[0, 1.5], [1.5, 0]])
        assert space.dist[0][1] == Fraction(3, 2)
        assert space.meta["quantization_digits"] == 12

    def test_rational_strings(self):
        space = build_space(["a", "b", "c"],
                            [["0", "3/2", "1"], ["3/2", "0", "1/2"], ["1", "1/2", "0"]])
        assert space.dist[0][1] == Fraction(3, 2)


class TestBisectors:
    def test_complete_graph_bisector_is_rest(self):
        space = discrete(5)
        b = bisector(space, 0, 1)
        assert b.indices == (2, 3, 4)
        assert len(b) == 3

    def test_path_endpoint_pair(self):
        space = make_space(parse_family("path:5"))
        b = bisector(space, space.index("v1"), space.index("v3"))
        assert b.labels(space) == ("v2",)

    def test_cycle8_antipodal_pair(self):
        # frozen from a direct check on closed-form cycle distances
        space = cycle_space(8)
        b = bisector(space, 0, 2)
        assert b.indices == (1, 5)

    def test_same_point_rejected(self):
        with pytest.raises(SamePoint):
            bisector(discrete(3), 1, 1)
        with pytest.raises(SamePoint):
            distinguishers(discrete(3), 2, 2)

    def test_point_outside_the_space_rejected(self):
        space = discrete(3)
        with pytest.raises(IndexError, match=r"point index out of range for n=3: \(0, 3\)$"):
            bisector(space, 0, space.n)

    def test_distinguishers_complete(self):
        space = discrete(5)
        assert distinguishers(space, 1, 3).indices == (1, 3)

    def test_distinguishers_cycle7(self):
        # only the opposite vertex is equidistant from two neighbors
        space = cycle_space(7)
        d = distinguishers(space, 0, 1)
        assert d.indices == (0, 1, 2, 3, 5, 6)
        assert len(d) == 6

    def test_all_distinct_distances_full_set(self):
        # collinear points 0, 1, 3: no point is equidistant from two others
        space = build_space(["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        for u, v in space.pairs():
            assert len(distinguishers(space, u, v)) == 3

    @given(metric_spaces())
    def test_bisector_symmetry_and_partition(self, space):
        full = set(range(space.n))
        for u, v in space.pairs():
            b = bisector(space, u, v)
            assert b == bisector(space, v, u)
            assert u not in b and v not in b
            d = distinguishers(space, u, v)
            assert set(b) | set(d) == full
            assert set(b) & set(d) == set()


class TestDistinguisherMap:
    def test_petersen_counts(self):
        space = make_space(parse_family("petersen"))
        dmap = all_distinguishers(space)
        assert len(dmap) == 45
        assert dmap.min_size == 6

    def test_complete_every_set_is_the_pair(self):
        space = discrete(4)
        dmap = all_distinguishers(space)
        assert len(dmap) == 6
        for u, v in space.pairs():
            assert distinguishers(space, u, v).indices == (u, v)

    def test_path3_sets(self):
        space = make_space(parse_family("path:3"))
        dmap = all_distinguishers(space)
        assert PointSet.from_mask(dmap.mask(0, 1)).indices == (0, 1, 2)
        assert PointSet.from_mask(dmap.mask(1, 2)).indices == (0, 1, 2)
        assert PointSet.from_mask(dmap.mask(0, 2)).indices == (0, 2)


class TestKGenerator:
    def test_path_endpoint_resolves(self):
        space = make_space(parse_family("path:4"))
        cert = is_k_generator(space, [space.index("v1")], 1)
        assert cert.valid and cert.witness is None

    def test_complete_whole_space_not_3_generator(self):
        space = discrete(4)
        cert = is_k_generator(space, range(4), 3)
        assert not cert.valid
        assert cert.witness == (0, 1)
        assert cert.coverage[(0, 1)] == 2

    @given(metric_spaces())
    def test_whole_space_is_2_generator(self, space):
        assert is_k_generator(space, range(space.n), 2).valid

    @given(metric_spaces())
    def test_whole_space_valid_iff_within_max_k(self, space):
        cap = max_k(space)
        assert is_k_generator(space, range(space.n), cap).valid
        assert not is_k_generator(space, range(space.n), cap + 1).valid

    def test_k_must_be_positive(self):
        with pytest.raises(NonpositiveParameter):
            is_k_generator(discrete(3), [0], 0)

    def test_negative_point_rejected(self):
        with pytest.raises(FormatError, match="negative point index"):
            is_k_generator(discrete(3), [-1], 1)

    @pytest.mark.parametrize("points", [[0, 1, 2, 4, 5, 6, 7, 8, 9, 50], PointSet.of([3, 10])])
    def test_points_outside_the_space_rejected(self, points):
        # Without the check, bits past n meet no distinguisher mask, and
        # the first set would pass on petersen as a valid 1-generator.
        space = make_space(parse_family("petersen"))
        with pytest.raises(IndexError, match=rf"point index out of range for n=10: {max(points)}$"):
            is_k_generator(space, points, 1)


class TestMaxK:
    def test_examples(self):
        assert max_k(make_space(parse_family("petersen"))) == 6
        assert max_k(discrete(5)) == 2
        assert max_k(discrete(7)) == 2
        assert max_k(make_space(parse_family("lollipop:5,4"))) == 4

    @pytest.mark.parametrize("perm", [[0, 1, 1], [0, 1], [0, 1, 3]], ids=["repeat", "short", "outside"])
    def test_relabeling_by_a_non_permutation_rejected(self, perm):
        with pytest.raises(FormatError, match=r"^not a permutation of 0\.\.2: "):
            permute_space(discrete(3), perm)

    @given(metric_spaces(), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, space, rnd):
        perm = list(range(space.n))
        rnd.shuffle(perm)
        permuted = permute_space(space, perm)
        assert max_k(permuted) == max_k(space)
        # bisectors map through the permutation
        u, v = sorted(rnd.sample(range(space.n), 2))
        image = {perm.index(x) for x in bisector(space, perm[u], perm[v])}
        assert image == set(bisector(permuted, u, v))


class TestTruncate:
    def test_path5_cap(self):
        space = make_space(parse_family("path:5"))
        capped = truncate(space, 1)
        assert capped.dist[space.index("v1")][space.index("v4")] == 2
        assert capped.diameter() == 2

    def test_above_half_diameter_is_identity(self):
        space = make_space(parse_family("path:5"))
        assert truncate(space, space.diameter() / 2) == space
        assert truncate(space, 100) == space

    def test_integer_segment_bisector_grows(self):
        # points 0..20 on a line; capping at 2 makes far points equidistant
        n = 21
        space = build_space([str(i) for i in range(n)],
                            [[abs(i - j) for j in range(n)] for i in range(n)])
        capped = truncate(space, 1)
        a, b = 10, 12
        expected_superset = set(bisector(capped, a, b))
        for x in range(n):
            if x in (a, b):
                continue
            if min(abs(x - a), 2) == min(abs(x - b), 2) == 2:
                assert x in expected_superset
        assert 8 in expected_superset and 14 in expected_superset

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveParameter):
            truncate(discrete(3), 0)
        with pytest.raises(NonpositiveParameter):
            truncate(discrete(3), Fraction(-1, 2))
        with pytest.raises(NonpositiveParameter, match="fraction with 5001-digit numerator"):
            truncate(discrete(3), -10**5000)

    def test_cap_is_twice_t(self):
        space = make_space(parse_family("path:5"))
        assert truncate(space, 1).diameter() == 2
        assert truncate(space, Fraction(3, 2)).dist[0] == (0, 1, 2, 3, 3)
        assert truncate(space, Fraction(1, 2)).dist[0] == (0, 1, 1, 1, 1)

    @given(rational_metric_spaces(),
           st.just(Fraction(1)) | st.fractions(min_value=Fraction(1, 50), max_value=2))
    def test_the_input_itself_exactly_when_nothing_is_capped(self, space, ratio):
        # ratio 1 puts 2t on the diameter, the last cap that changes nothing
        t = space.diameter() / 2 * ratio
        capped = truncate(space, t)
        assert (capped is space) == (2 * t >= space.diameter())
        assert capped == build_space(space.labels, [[min(d, 2 * t) for d in row] for row in space.dist],
                                     space.meta)

    @given(metric_spaces(), st.integers(min_value=1, max_value=5))
    def test_idempotent(self, space, t):
        once = truncate(space, t)
        assert truncate(once, t) == once

    @given(metric_spaces())
    def test_bisector_nesting_chain(self, space):
        s, t = Fraction(1), Fraction(2)
        space_s, space_t = truncate(space, s), truncate(space, t)
        for u, v in space.pairs():
            plain = set(bisector(space, u, v))
            mid = set(bisector(space_t, u, v))
            wide = set(bisector(space_s, u, v))
            assert plain <= mid <= wide


class TestJoin:
    def test_two_segments_counterexample_shape(self):
        with pytest.warns(TwoPointSpaceWarning):
            a = build_space(["1", "3"], [[0, 2], [2, 0]])
            b = build_space(["2", "4"], [[0, 2], [2, 0]])
        joined = join(a, b, 1)
        assert joined.labels == ("1", "3", "2", "4")
        assert joined.dist[0][1] == 2 and joined.dist[2][3] == 2
        assert joined.dist[0][2] == 1
        # the only non-empty bisectors are the two parts
        parts = {bisector(joined, u, v).indices for u, v in joined.pairs()}
        assert parts == {(2, 3), (), (0, 1)}

    def test_truncation_inactive_when_t_large(self):
        with pytest.warns(TwoPointSpaceWarning):
            a = build_space(["a1", "a2"], [[0, 1], [1, 0]])
            b = build_space(["b1", "b2"], [[0, 1], [1, 0]])
        joined = join(a, b, 5)
        assert joined.dist[0][1] == 1
        assert joined.dist[0][2] == 5

    def test_label_collision(self):
        space = discrete(3)
        with pytest.raises(LabelCollision):
            join(space, space, 1)

    def test_the_quantization_record_carries_over(self):
        line = make_space(parse_family("sqrt-primes:3"))
        coarse = build_space(["c0", "c1", "c2"], discrete(3).dist, {"quantization_digits": 6})
        hand = build_space(["h0", "h1", "h2"], discrete(3).dist, {"quantization_digits": "twelve"})
        assert dict(join(line, discrete(3), 1).meta) == {"quantization_digits": 12}
        assert dict(join(discrete(3), line, 1).meta) == {"quantization_digits": 12}
        assert dict(join(line, coarse, 1).meta) == {"quantization_digits": 6}
        assert dict(join(hand, line, 1).meta) == {"quantization_digits": 12}
        assert dict(join(discrete(3), hand, 1).meta) == {}

    def test_nonpositive_t(self):
        a = discrete(3)
        c = build_space(["x", "y", "z"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        with pytest.raises(NonpositiveParameter):
            join(a, c, 0)
        with pytest.raises(NonpositiveParameter):
            join(a, c, Fraction(-1, 2))


def assert_rebuilds(space: FiniteMetricSpace):
    """The validating constructor accepts `space` and rebuilds it field by field."""
    again = build_space(space.labels, space.dist, space.meta)
    assert again.labels == space.labels
    assert again.dist == space.dist
    assert all(type(x) is Fraction for row in space.dist for x in row)
    assert dict(again.meta) == dict(space.meta)
    assert again._int_dist == space._int_dist
    assert again.scale == space.scale


_PARAMS = st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12)


class TestDerivedSpaces:
    """truncate, join, permute_space, shortest_path_metric and the
    sqrt-primes and interval families skip build_space's checks; what they
    build must pass those checks anyway."""

    @given(metric_spaces(), _PARAMS)
    def test_truncate(self, space, t):
        assert_rebuilds(truncate(space, t))

    @given(metric_spaces(max_n=6), metric_spaces(max_n=6), _PARAMS)
    def test_join(self, a, b, t):
        b = build_space([f"b{lab}" for lab in b.labels], b.dist)
        joined = join(a, b, t)
        assert_rebuilds(joined)
        for i in range(joined.n):
            for j in range(joined.n):
                if (i < a.n) != (j < a.n):
                    assert joined.dist[i][j] == t
                elif i < a.n:
                    assert joined.dist[i][j] == min(a.dist[i][j], 2 * t)
                else:
                    assert joined.dist[i][j] == min(b.dist[i - a.n][j - a.n], 2 * t)

    @given(metric_spaces(), st.data())
    def test_permute_space(self, space, data):
        assert_rebuilds(permute_space(space, data.draw(st.permutations(range(space.n)))))

    @given(connected_graphs())
    def test_shortest_path_metric(self, g):
        assert_rebuilds(shortest_path_metric(g))

    @pytest.mark.parametrize("family", ["sqrt-primes", "interval"])
    def test_points_on_a_line(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TwoPointSpaceWarning)
            for count in range(2, 41):
                assert_rebuilds(make_space(parse_family(f"{family}:{count}")))

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**20))
    def test_random_rational_metric(self, n, seed):
        space = random_rational_metric(n, random.Random(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TwoPointSpaceWarning)
            assert_rebuilds(space)


class TestCanonicalScale:
    """A derived space divides out the common factor of its integers and
    its scale, so it equals its `build_space` rebuild."""

    def test_cap_whose_denominator_cancels(self):
        space = discrete(3)
        capped = truncate(space, Fraction(3, 4))  # cap 3/2 caps nothing: 2/2 reduces to 1/1
        assert capped.scale == 1 and capped == space
        assert capped == build_space(capped.labels, capped.dist)

    def test_join_whose_part_denominator_cancels(self):
        # Every distance of a, thirds included, is capped at 2t = 1/4, so
        # the common scale lcm(3, 1, 8) = 24 reduces to 8.
        a = build_space(["a0", "a1", "a2"], [[0, "1/3", 5], ["1/3", 0, 5], [5, 5, 0]])
        joined = join(a, discrete(3), Fraction(1, 8))
        assert joined.scale == 8
        assert joined == build_space(joined.labels, joined.dist)


class TestTwoPointWarning:
    """The warning marks 2-point input; spaces derived from it, and random
    ones, stay silent."""

    def test_two_vertex_edge_list_warns(self):
        with pytest.warns(TwoPointSpaceWarning):
            space = shortest_path_metric(parse_edge_list("a b\n"))
        assert space.labels == ("a", "b") and space.dist[0][1] == 1

    @pytest.mark.parametrize("family", ["sqrt-primes:2", "interval:2"])
    def test_two_point_families_warn(self, family):
        with pytest.warns(TwoPointSpaceWarning):
            assert make_space(parse_family(family)).n == 2

    def test_derived_two_point_spaces_are_silent(self):
        with pytest.warns(TwoPointSpaceWarning):
            space = build_space(["a", "b"], [[0, 3], [3, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert truncate(space, 1).dist[0][1] == 2
            assert permute_space(space, (1, 0)).labels == ("b", "a")
            assert random_rational_metric(2, random.Random(0)).n == 2


class TestJsonFormat:
    def test_roundtrip(self):
        space = make_space(parse_family("sqrt-primes:4"))
        again = load_space(dump_space(space))
        assert again == space

    def test_deterministic_dump(self):
        space = make_space(parse_family("cycle:6"))
        assert dump_space(space) == dump_space(make_space(parse_family("cycle:6")))

    def test_lowest_terms(self):
        space = build_space(["a", "b", "c"],
                            [["0", "2/4", "1"], ["2/4", "0", "1"], ["1", "1", "0"]])
        data = json.loads(dump_space(space))
        assert data["distances"][0][1] == "1/2"

    def test_bad_json(self):
        with pytest.raises(FormatError):
            load_space("not json")
        with pytest.raises(FormatError):
            load_space('{"labels": ["a"]}')

    @given(metric_spaces())
    def test_roundtrip_random(self, space):
        assert load_space(dump_space(space)) == space


class TestPointSet:
    def test_mask_roundtrip(self):
        ps = PointSet.of([5, 1, 3])
        assert ps.indices == (1, 3, 5)
        assert PointSet.from_mask(ps.to_mask()) == ps

    @given(st.sets(st.integers(min_value=0, max_value=40)))
    def test_mask_roundtrip_random(self, indices):
        ps = PointSet.of(indices)
        from_mask = PointSet.from_mask(ps.to_mask())
        assert from_mask.indices == tuple(sorted(indices))
        assert from_mask == ps and hash(from_mask) == hash(ps) and not from_mask < ps

    def test_rejects_unsorted_duplicates(self):
        with pytest.raises(FormatError):
            PointSet((2, 1))
        with pytest.raises(FormatError):
            PointSet((1, 1))


# --- ingest fuzzing -----------------------------------------------------------

# Every kind of value a JSON decoder hands over, plus the numbers and
# strings that stress entry conversion: huge ints, NaN and infinities,
# "nan"/"1e999" and other strings Fraction may or may not parse.
json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10**60, max_value=10**60),
    st.floats(),
    st.sampled_from(["nan", "1e999", "-1e999", "inf", "1/0", "3/2", "2/-3", "1.5", "1", "0", "", " 2 "]),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=10,
)


@st.composite
def space_documents(draw):
    """A valid space document with some entries, a row, a label and some
    top-level fields replaced by arbitrary JSON."""
    n = draw(st.integers(min_value=1, max_value=5))
    index = st.integers(min_value=0, max_value=n - 1)
    labels = [f"p{i}" for i in range(n)]
    dist = [[0 if r == c else 1 for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j, value = draw(index), draw(index), draw(json_values)
        dist[i][j] = value
        if draw(st.booleans()):
            dist[j][i] = value  # symmetric, so the entry reaches the later checks
    if draw(st.booleans()):
        dist[draw(index)] = draw(json_values)
    if draw(st.booleans()):
        labels[draw(index)] = draw(json_values)
    doc = {"labels": labels, "distances": dist, "meta": {}}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), unique=True, max_size=2)):
        if draw(st.booleans()):
            doc[key] = draw(json_values)
        else:
            del doc[key]
    return doc


def ingest(fn):
    """Run one ingest call; a KMetricError is a clean rejection, anything else escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TwoPointSpaceWarning)
        try:
            fn()
        except KMetricError:
            pass


class TestIngestFuzz:
    @settings(max_examples=300)
    @given(st.one_of(space_documents(), json_values))
    def test_space_json_raises_only_kmetric_errors(self, doc):
        ingest(lambda: load_space(json.dumps(doc)))

    @settings(max_examples=200)
    @given(st.lists(st.one_of(
        st.lists(st.sampled_from(["a", "b", "c", "d", "#", "vertices:", "x#y"]), max_size=4).map(" ".join),
        st.text(max_size=8),
    ), max_size=8).map("\n".join))
    def test_edge_lists_raise_only_kmetric_errors(self, text):
        ingest(lambda: shortest_path_metric(parse_edge_list(text)))
