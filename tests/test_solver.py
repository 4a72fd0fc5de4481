import itertools
import random
import time
import warnings

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kmetric import solver
from kmetric.errors import InstanceTooLarge, KMetricError
from kmetric.families import expected_sequence, make_space, parse_family
from kmetric.graphs import build_graph, shortest_path_metric
from kmetric.randgen import random_connected_graph
from kmetric.solver import (
    INFINITY,
    DimensionSequence,
    ExtendedNat,
    dim_bruteforce,
    dim_exact,
    dimension_sequence,
    greedy_upper,
    sequence_with_reports,
)
from kmetric.spaces import TwoPointSpaceWarning, all_distinguishers, is_k_generator, max_k, permute_space

from conftest import metric_spaces


def lex_min_levels(space, **options):
    """Reports for k = 1..max_k with lex-min bases: `dim_exact` with the
    previous level as `prev_dim`, the solves of `sequence_with_reports`
    with the lex-min rebuild that it skips."""
    reports = []
    for k in range(1, max_k(space) + 1):
        prev = reports[-1].optimum.value if reports else None
        reports.append(dim_exact(space, k, prev_dim=prev, **options))
    return reports


class TestExtendedNat:
    def test_ordering(self):
        assert ExtendedNat(3) < ExtendedNat(4) < INFINITY
        assert INFINITY == INFINITY
        assert not (INFINITY < INFINITY)
        assert ExtendedNat(5) == 5
        assert 5 < INFINITY
        assert INFINITY > 10**12

    def test_addition_saturates(self):
        assert ExtendedNat(2) + 3 == 5
        assert INFINITY + 7 == INFINITY
        assert ExtendedNat(2) + INFINITY == INFINITY

    def test_json_and_str(self):
        assert str(INFINITY) == "inf"
        assert INFINITY.to_json() == "inf"
        assert ExtendedNat(4).to_json() == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtendedNat(-1)

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
    def test_agrees_with_int_order(self, a, b):
        assert (ExtendedNat(a) < ExtendedNat(b)) == (a < b)
        assert (ExtendedNat(a) == ExtendedNat(b)) == (a == b)


class TestGreedyUpper:
    def test_complete_k1(self):
        assert greedy_upper(make_space(parse_family("complete:4")), 1)[0] == 3

    def test_infeasible(self):
        assert greedy_upper(make_space(parse_family("complete:4")), 3) is None

    def test_cycle7_k2_matches_optimum(self):
        space = make_space(parse_family("cycle:7"))
        value, points = greedy_upper(space, 2)
        assert value == 3
        assert is_k_generator(space, points, 2).valid
        assert dim_bruteforce(space, 2) == 3

    @given(metric_spaces(), st.integers(min_value=1, max_value=3))
    def test_result_is_valid_and_bounds_optimum(self, space, k):
        result = greedy_upper(space, k)
        if k > max_k(space):
            assert result is None
            return
        value, points = result
        assert is_k_generator(space, points, k).valid
        assert len(points) == value
        assert dim_exact(space, k).optimum <= value


class TestDimExact:
    def test_petersen_k3(self):
        assert dim_exact(make_space(parse_family("petersen")), 3).optimum == 7

    def test_path6_k3(self):
        assert dim_exact(make_space(parse_family("path:6")), 3).optimum == 4

    def test_cycle8_k4(self):
        assert dim_exact(make_space(parse_family("cycle:8")), 4).optimum == 6

    def test_infeasible_is_infinite(self):
        report = dim_exact(make_space(parse_family("complete:5")), 3)
        assert report.optimum == INFINITY
        assert report.basis is None
        assert report.status == "optimal"

    def test_basis_is_valid_and_sized(self):
        space = make_space(parse_family("petersen"))
        report = dim_exact(space, 2)
        assert len(report.basis) == report.optimum.value == 4
        assert is_k_generator(space, report.basis, 2).valid

    def test_lex_min_basis(self):
        space = make_space(parse_family("cycle:11"))
        report = dim_exact(space, 5)
        m = report.optimum.value
        first = next(
            combo for combo in itertools.combinations(range(space.n), m)
            if is_k_generator(space, combo, 5).valid)
        assert report.basis.indices == first

    @given(metric_spaces(max_n=9), st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=25)
    def test_lex_min_basis_random(self, space, k, rnd):
        # A relabeling moves the lex-min basis away from the search's first
        # optimum, so both the witness shortcut and the probes get exercised.
        perm = list(range(space.n))
        rnd.shuffle(perm)
        for candidate in (space, permute_space(space, perm)):
            report = dim_exact(candidate, k)
            if not report.optimum.is_finite:
                return
            m = report.optimum.value
            first = next(
                combo for combo in itertools.combinations(range(candidate.n), m)
                if is_k_generator(candidate, combo, k).valid)
            assert report.basis.indices == first

    @given(metric_spaces(max_n=8))
    @settings(max_examples=30)
    def test_matches_bruteforce(self, space):
        for k in range(1, max_k(space) + 1):
            assert dim_exact(space, k).optimum == dim_bruteforce(space, k)

    @given(metric_spaces(max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=20)
    def test_permutation_invariant_optimum(self, space, rnd):
        perm = list(range(space.n))
        rnd.shuffle(perm)
        k = rnd.randint(1, max(1, max_k(space)))
        assert dim_exact(space, k).optimum == dim_exact(permute_space(space, perm), k).optimum

    def test_lex_min_cover_cut_by_the_deadline_keeps_the_witness(self):
        # On path:3 at k=1 the one reduced constraint is {0, 2}; the witness
        # {2} is optimal but not lex-min, so point 0 needs a probe.
        space = make_space(parse_family("path:3"))
        constraints = [(m, 1) for m in all_distinguishers(space).reduced_masks]
        assert constraints == [(0b101, 1)]
        assert solver._Search(constraints, None).lex_min(1, 0b100) == (0b001, True)
        cut = solver._Search(constraints, time.monotonic() - 1.0)
        assert cut.lex_min(1, 0b100) == (0b100, False)
        assert dim_exact(space, 1).basis_kind == "lex_min"

    def test_bounded_on_zero_budget(self, monkeypatch):
        # At cap 0 the root bound is 2, below the optimum 3, so the search runs.
        monkeypatch.setattr(solver, "COMPONENT_SUPPORT_CAP", 0)
        space = make_space(parse_family("grid-ball:2,3"))
        report = dim_exact(space, 1, budget_secs=-1.0)
        assert report.status == "bounded"
        low, high = report.bounds
        assert low <= 3 <= high
        assert is_k_generator(space, report.basis, 1).valid
        # the incumbent is some cover, not a proven lex-min one
        assert report.basis_kind == "witness"


class TestDegreeBound:
    @given(metric_spaces(max_n=9))
    @settings(max_examples=60)
    def test_at_most_the_bruteforce_optimum(self, space):
        masks = all_distinguishers(space).reduced_masks
        for k in range(1, max_k(space) + 1):
            assert solver._degree_bound([(m, k) for m in masks]) <= dim_bruteforce(space, k)

    @pytest.mark.parametrize("family", ["cycle:18", "cycle:22", "cycle:30"])
    def test_cycle_levels_close_at_the_root(self, family):
        # The bound is each cycle level's closed form, so no level searches.
        seq, reports = sequence_with_reports(make_space(parse_family(family)))
        assert seq.as_values() == expected_sequence(parse_family(family)).entries
        assert [r.nodes_explored for r in reports] == [0] * len(reports)


class TestKernelClosure:
    @given(metric_spaces(max_n=9), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_same_answer_as_the_oracle_and_the_search(self, space, rnd):
        # At n <= 9 every cluster is solved exactly, so each level closes on
        # the kernel's lex-min cover.  With the cap at 0 every cluster falls
        # back to packing, and the search and fix-and-probe answer instead.
        perm = list(range(space.n))
        rnd.shuffle(perm)
        for candidate in (space, permute_space(space, perm)):
            for k in range(1, max_k(candidate) + 1):
                report = dim_exact(candidate, k)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(solver, "COMPONENT_SUPPORT_CAP", 0)
                    searched = dim_exact(candidate, k)
                m = report.optimum.value
                assert report.optimum == dim_bruteforce(candidate, k) == searched.optimum
                first = next(
                    combo for combo in itertools.combinations(range(candidate.n), m)
                    if is_k_generator(candidate, combo, k).valid)
                assert report.basis.indices == first == searched.basis.indices
                assert (report.nodes_explored, report.basis_kind) == (0, "lex_min")

    def test_grid_ball_node_counts(self):
        # Search nodes whose residual clusters are all solved exactly close
        # on the kernel's cover, and a closed cover of floor size ends the
        # search: going on past it takes k=3 and k=4 to 114 and 156 nodes.
        space = make_space(parse_family("grid-ball:2,3"))
        reports = lex_min_levels(space)
        assert [r.nodes_explored for r in reports] == [12, 97, 71, 105, 57, 53, 58, 8]


class TestNeedOneLeaves:
    """A node with two points to spare closes on the AND of its residual
    masks: the one point a better cover adds lies in all of them."""

    @given(metric_spaces(max_n=9))
    @settings(max_examples=40)
    def test_searched_covers_match_the_oracle(self, space):
        # With the cap at 0 no cluster is solved exactly, so every level
        # searches; the witness is whatever cover the search recorded.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "COMPONENT_SUPPORT_CAP", 0)
            for k in range(1, min(2, max_k(space)) + 1):
                oracle = dim_bruteforce(space, k)
                for lex_min in (True, False):
                    report = dim_exact(space, k, lex_min=lex_min)
                    assert report.optimum == oracle
                    assert len(report.basis) == oracle.value
                    assert is_k_generator(space, report.basis, k).valid

    def test_rand_60(self):
        # Most of its nodes were need-1 leaves: 213,591 nodes before the rule.
        space = shortest_path_metric(random_connected_graph(60, random.Random(1), edge_prob=0.08))
        report = dim_exact(space, 1, budget_secs=None)
        assert (report.optimum, report.basis.indices, report.nodes_explored) == (5, (3, 5, 7, 29, 42), 16397)


def assert_witness_levels_agree(space):
    """A sequence level, solved with `lex_min=False`, differs from its
    lex-min solve only in the basis, its kind and the nodes: the lex phase
    runs after the optimum is proved."""
    full = lex_min_levels(space, budget_secs=None)
    fast_seq, fast = sequence_with_reports(space, budget_secs=None)
    assert fast_seq == DimensionSequence(tuple(r.optimum for r in full), tail_start=max_k(space) + 1)
    for want, got in zip(full, fast, strict=True):
        assert (got.k, got.optimum, got.status, got.bounds, got.lower_bound_trace, got.greedy_value) == (
            want.k, want.optimum, want.status, want.bounds, want.lower_bound_trace, want.greedy_value)
        assert got.nodes_explored <= want.nodes_explored
        assert len(got.basis) == got.optimum.value
        assert is_k_generator(space, got.basis, got.k).valid
        if got.basis_kind == "lex_min":
            # closed by the cluster kernel, which gives the lex-min cover
            assert got.nodes_explored == 0
            assert got.basis == want.basis
        else:
            assert got.basis_kind == "witness"


class TestWitnessLevels:
    @given(metric_spaces(max_n=9), st.sampled_from([0, solver.COMPONENT_SUPPORT_CAP]))
    @settings(max_examples=40)
    def test_only_the_basis_moves(self, space, cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "COMPONENT_SUPPORT_CAP", cap)
            assert_witness_levels_agree(space)

    @pytest.mark.parametrize("family", ["grid-ball:2,3", "ladder:8", "cycle:14", "petersen"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_only_the_basis_moves_on_relabeled_families(self, family, seed):
        space = make_space(parse_family(family))
        perm = list(range(space.n))
        random.Random(seed).shuffle(perm)
        assert_witness_levels_agree(permute_space(space, perm))


def sparse_graph_space(n, seed):
    return shortest_path_metric(random_connected_graph(n, random.Random(seed), edge_prob=0.15))


class TestSparseGraphs:
    """Sparse graphs split their residual constraints into several small
    clusters, so search nodes close on a union of cluster covers or, when a
    cluster is too wide to solve, branch on."""

    @pytest.mark.parametrize("n", range(12, 17))
    def test_matches_bruteforce(self, n):
        for seed in range(20):
            space = sparse_graph_space(n, seed)
            for k in range(1, min(2, max_k(space)) + 1):
                report = dim_exact(space, k)
                assert len(report.basis) == report.optimum.value
                assert is_k_generator(space, report.basis, k).valid
                assert report.optimum == dim_bruteforce(space, k), (n, seed, k)

    def test_a_node_stopped_part_way_leaves_no_cover(self):
        # Its search nodes split into several clusters, some too wide to
        # solve: a node closes only when every cluster was solved exactly.
        space = sparse_graph_space(13, 37)
        report = dim_exact(space, 1)
        assert report.optimum == 3 == dim_bruteforce(space, 1)
        assert report.basis.labels(space) == ("g0", "g1", "g6")


class TestBruteforce:
    def test_complete5_k2(self):
        assert dim_bruteforce(make_space(parse_family("complete:5")), 2) == 5

    def test_lollipop_k4(self):
        assert dim_bruteforce(make_space(parse_family("lollipop:5,4")), 4) == 5

    def test_sqrt_primes_k3(self):
        assert dim_bruteforce(make_space(parse_family("sqrt-primes:6")), 3) == 3

    def test_infeasible(self):
        assert dim_bruteforce(make_space(parse_family("complete:4")), 3) == INFINITY

    def test_cap(self, monkeypatch):
        space = make_space(parse_family("cycle:18"))
        with pytest.raises(InstanceTooLarge):
            dim_bruteforce(space, 1)
        monkeypatch.setattr(solver, "BRUTEFORCE_CAP", 18)
        assert dim_bruteforce(space, 1) == 2


def tree_metric_dimension(n, parent):
    """dim_1 of the tree with edges (i, parent[i]), by the formula for
    trees: 1 for a path, else the number of leaves minus the number of
    exterior major vertices, those of degree >= 3 joined to some leaf by a
    path of degree-2 vertices (Slater 1975; Harary & Melter 1976)."""
    adjacent = [[] for _ in range(n)]
    for child, par in parent.items():
        adjacent[child].append(par)
        adjacent[par].append(child)
    leaves = [x for x in range(n) if len(adjacent[x]) == 1]
    if max(map(len, adjacent)) <= 2:
        return 1
    exterior = set()
    for leaf in leaves:
        previous, x = leaf, adjacent[leaf][0]
        while len(adjacent[x]) == 2:
            previous, x = x, next(y for y in adjacent[x] if y != previous)
        exterior.add(x)
    return len(leaves) - len(exterior)


class TestTreeOracle:
    """Trees past BRUTEFORCE_CAP, where dim_bruteforce cannot check the
    solver, against the closed form for dim_1 of a tree."""

    @settings(max_examples=30)
    @given(st.integers(min_value=solver.BRUTEFORCE_CAP + 1, max_value=120), st.integers(0, 2**20))
    def test_random_recursive_trees(self, n, seed):
        rng = random.Random(seed)
        parent = {i: rng.randrange(i) for i in range(1, n)}
        labels = [f"v{i}" for i in range(n)]
        tree = build_graph(labels, [(labels[i], labels[j]) for i, j in parent.items()])
        # Most trees close at the root, but a few in a thousand need a long
        # search (n=120, seed 2000 is still bounded after 60 s), so the
        # budget is short and a bounded interval must hold the value.
        report = dim_exact(shortest_path_metric(tree), 1, budget_secs=2)
        expected = tree_metric_dimension(n, parent)
        if report.status == "optimal":
            assert report.optimum == expected
        else:
            lower, upper = report.bounds
            assert lower <= expected <= upper

    def test_a_tree_that_needs_search(self, monkeypatch):
        # A tree that the root bounds do not close: 3,360 search nodes, whose
        # clusters repeat, so the cluster memo leaves 24 exact solves (24,478
        # without it).
        rng = random.Random(2661)
        parent = {i: rng.randrange(i) for i in range(1, 69)}
        labels = [f"v{i}" for i in range(69)]
        tree = build_graph(labels, [(labels[i], labels[j]) for i, j in parent.items()])
        calls = []
        kernel = solver._exact_cluster_min
        monkeypatch.setattr(solver, "_exact_cluster_min", lambda *a: calls.append(a) or kernel(*a))
        report = dim_exact(shortest_path_metric(tree), 1)
        assert report.status == "optimal"
        assert (len(calls), report.nodes_explored) == (24, 3360)
        assert report.optimum == tree_metric_dimension(69, parent)

    @given(st.integers(min_value=2, max_value=12), st.integers(0, 2**20))
    def test_formula_matches_brute_force_on_small_trees(self, n, seed):
        rng = random.Random(seed)
        parent = {i: rng.randrange(i) for i in range(1, n)}
        labels = [f"v{i}" for i in range(n)]
        tree = build_graph(labels, [(labels[i], labels[j]) for i, j in parent.items()])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TwoPointSpaceWarning)
            space = shortest_path_metric(tree)
        assert dim_bruteforce(space, 1) == tree_metric_dimension(n, parent)

    def test_a_path(self):
        labels = [f"v{i}" for i in range(40)]
        path = build_graph(labels, zip(labels, labels[1:]))
        assert tree_metric_dimension(40, {i: i - 1 for i in range(1, 40)}) == 1
        assert dim_exact(shortest_path_metric(path), 1).optimum == 1

    def test_a_spider(self):
        # Three legs of length 6 at one centre: 3 leaves, 1 exterior major vertex.
        parent = {1: 0, 7: 0, 13: 0}
        parent.update({i: i - 1 for i in range(2, 19) if i not in parent})
        assert tree_metric_dimension(19, parent) == 2


class TestJoinDimensions:
    def test_two_paths_add_when_t_exceeds_diameters(self):
        from kmetric.graphs import relabel_graph
        from kmetric.families import make
        from kmetric.graphs import shortest_path_metric
        from kmetric.spaces import join

        p3 = make(parse_family("path:3"))
        a = shortest_path_metric(p3)
        b = shortest_path_metric(relabel_graph(p3, {"v1": "w1", "v2": "w2", "v3": "w3"}))
        joined = join(a, b, 3)  # beyond both diameters (2)
        for k in (1, 2):
            total = dim_bruteforce(a, k) + dim_bruteforce(b, k)
            assert dim_bruteforce(joined, k) == total
            assert dim_exact(joined, k).optimum == total
        assert dim_exact(joined, 1).optimum == 2
        assert dim_exact(joined, 2).optimum == 4


class TestDimensionSequence:
    def test_petersen(self):
        seq = dimension_sequence(make_space(parse_family("petersen")))
        assert seq.as_values() == (3, 4, 7, 8, 9, 10)
        assert seq.tail_start == 7

    def test_complete6(self):
        seq = dimension_sequence(make_space(parse_family("complete:6")))
        assert seq.as_values() == (5, 6)
        assert seq.tail_start == 3

    def test_cycle7(self):
        seq = dimension_sequence(make_space(parse_family("cycle:7")))
        assert seq.as_values() == (2, 3, 4, 5, 6, 7)
        assert seq.tail_start == 7

    def test_k_max_horizon(self):
        seq = dimension_sequence(make_space(parse_family("petersen")), k_max=2)
        assert seq.as_values() == (3, 4)
        assert seq.tail_start == 7
        assert seq.get(8) == INFINITY
        with pytest.raises(KMetricError):
            seq.get(5)

    def test_bases_grid_ball(self):
        reports = lex_min_levels(make_space(parse_family("grid-ball:2,3")))
        assert tuple(r.optimum.value for r in reports) == (3, 4, 6, 8, 10, 12, 16, 18)
        assert [r.basis.indices for r in reports] == [
            (0, 1, 24),
            (0, 9, 15, 24),
            (0, 1, 3, 21, 23, 24),
            (0, 1, 3, 9, 15, 21, 23, 24),
            (0, 1, 3, 4, 8, 16, 20, 21, 23, 24),
            (0, 1, 3, 4, 8, 9, 15, 16, 20, 21, 23, 24),
            (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 20, 21, 22, 23, 24),
            (0, 1, 2, 3, 4, 5, 8, 9, 10, 14, 15, 16, 19, 20, 21, 22, 23, 24),
        ]

    def test_bases_relabeled_ladder(self):
        space = make_space(parse_family("ladder:4"))
        perm = list(range(space.n))
        random.Random(4).shuffle(perm)
        reports = lex_min_levels(permute_space(space, perm))
        assert tuple(r.optimum.value for r in reports) == (2, 4, 6, 8, 10, 12, 14, 16, 18)
        assert [r.basis.indices for r in reports] == [
            (4, 8),
            (0, 1, 13, 15),
            (0, 1, 2, 5, 13, 15),
            (0, 1, 2, 3, 5, 13, 15, 17),
            (0, 1, 2, 3, 4, 5, 8, 13, 15, 17),
            (0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 15, 17),
            (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 15, 17),
            (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 17),
            tuple(range(18)),
        ]

    def test_get_values(self):
        seq = dimension_sequence(make_space(parse_family("complete:4")))
        assert seq.get(1) == 3
        assert seq.get(2) == 4
        assert seq.get(3) == INFINITY
        assert seq.get(100) == INFINITY

    def test_csv(self):
        seq = dimension_sequence(make_space(parse_family("complete:4")))
        assert seq.to_csv() == "k,dim_k\n1,3\n2,4\n3,inf\n"

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            DimensionSequence((ExtendedNat(2), ExtendedNat(2)), tail_start=3)
        with pytest.raises(ValueError):
            DimensionSequence((ExtendedNat(0),), tail_start=2)
        with pytest.raises(ValueError):
            DimensionSequence((ExtendedNat(1), ExtendedNat(2)), tail_start=2)

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "COMPONENT_SUPPORT_CAP", 0)
        space = make_space(parse_family("grid-ball:2,3"))
        with pytest.raises(KMetricError):
            dimension_sequence(space, budget_secs=-1.0)
        seq, reports = sequence_with_reports(space, budget_secs=-1.0)
        assert seq is None
        assert reports[-1].status == "bounded"

    @given(metric_spaces(max_n=8))
    @settings(max_examples=25)
    def test_monotonicity_invariants(self, space):
        seq = dimension_sequence(space)
        values = seq.as_values()
        cap = max_k(space)
        assert len(values) == cap
        assert seq.tail_start == cap + 1
        dim1 = values[0]
        for k, value in enumerate(values, start=1):
            assert value >= k
            assert value + 1 >= dim1 + k
            if k > 1:
                assert value >= values[k - 2] + 1
        assert all(value <= space.n for value in values)
