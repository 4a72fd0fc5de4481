import pytest
from hypothesis import given
import hypothesis.strategies as st

from kmetric.errors import DisconnectedGraph, FormatError
from kmetric.families import make, parse_family
from kmetric.graphs import (
    Graph,
    build_graph,
    check_odd_distance_bisectors,
    format_edge_list,
    is_bipartite,
    parse_edge_list,
    relabel_graph,
    shortest_path_metric,
)
from kmetric.spaces import bisector

from conftest import connected_graphs


def grid_graph(rows, cols):
    labels = [f"{r},{c}" for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"{r},{c}", f"{r},{c + 1}"))
            if r + 1 < rows:
                edges.append((f"{r},{c}", f"{r + 1},{c}"))
    return build_graph(labels, edges)


class TestShortestPathMetric:
    def test_path_endpoints(self):
        g = make(parse_family("path:4"))
        space = shortest_path_metric(g)
        assert space.dist[space.index("v1")][space.index("v4")] == 3

    def test_petersen_diameter_two(self):
        space = shortest_path_metric(make(parse_family("petersen")))
        values = {space.dist[u][v] for u, v in space.pairs()}
        assert values == {1, 2}

    def test_disconnected(self):
        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        with pytest.raises(DisconnectedGraph) as err:
            shortest_path_metric(g)
        assert set(err.value.representatives) == {"a", "c"}

    def test_isolated_vertex_via_header(self):
        g = parse_edge_list("vertices: a b c\na b\n")
        with pytest.raises(DisconnectedGraph):
            shortest_path_metric(g)

    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_relabeling_commutes(self, g, rnd):
        names = list(g.labels)
        shuffled = names[:]
        rnd.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        space = shortest_path_metric(g)
        relabeled = shortest_path_metric(relabel_graph(g, mapping))
        for u, v in space.pairs():
            lu, lv = mapping[g.labels[u]], mapping[g.labels[v]]
            assert space.dist[u][v] == relabeled.dist[relabeled.index(lu)][relabeled.index(lv)]

    @given(connected_graphs())
    def test_distances_bounded_by_n_minus_1(self, g):
        space = shortest_path_metric(g)
        assert all(space.dist[u][v] <= g.n - 1 for u, v in space.pairs())


class TestBipartite:
    def test_even_cycle(self):
        result = is_bipartite(make(parse_family("cycle:8")))
        assert result.bipartite
        g = make(parse_family("cycle:8"))
        for u, v in g.edges:
            assert result.coloring[u] != result.coloring[v]

    def test_odd_cycle_witness(self):
        g = make(parse_family("cycle:7"))
        result = is_bipartite(g)
        assert not result.bipartite
        cycle = result.odd_cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) % 2 == 0  # even vertex count in a closed odd walk
        adjacency = {frozenset(e) for e in g.edges}
        for a, b in zip(cycle, cycle[1:]):
            assert frozenset((a, b)) in adjacency

    def test_petersen_not_bipartite(self):
        assert not is_bipartite(make(parse_family("petersen"))).bipartite

    @given(connected_graphs())
    def test_witness_is_consistent(self, g):
        result = is_bipartite(g)
        if result.bipartite:
            for u, v in g.edges:
                assert result.coloring[u] != result.coloring[v]
        else:
            cycle = result.odd_cycle
            adjacency = {frozenset(e) for e in g.edges}
            assert cycle[0] == cycle[-1]
            assert all(frozenset(p) in adjacency for p in zip(cycle, cycle[1:]))
            assert (len(cycle) - 1) % 2 == 1


class TestOddDistanceBisectors:
    def test_grid_4x4(self):
        report = check_odd_distance_bisectors(grid_graph(4, 4))
        assert report.bipartite
        assert report.violations == ()
        assert report.odd_pairs == report.verified_empty > 0

    def test_cycle8(self):
        report = check_odd_distance_bisectors(make(parse_family("cycle:8")))
        assert report.bipartite and report.violations == ()

    def test_cycle5_has_violation(self):
        g = make(parse_family("cycle:5"))
        report = check_odd_distance_bisectors(g)
        assert not report.bipartite
        assert len(report.violations) > 0
        space = shortest_path_metric(g)
        u, v = report.violations[0]
        assert len(bisector(space, space.index(u), space.index(v))) > 0


class TestGraphValidation:
    def test_self_loop(self):
        with pytest.raises(FormatError):
            build_graph(["a"], [("a", "a")])

    def test_duplicate_edge(self):
        with pytest.raises(FormatError):
            build_graph(["a", "b"], [("a", "b"), ("b", "a")])

    def test_undeclared_endpoint(self):
        with pytest.raises(FormatError):
            build_graph(["a"], [("a", "b")])

    @pytest.mark.parametrize("labels, edges, message", [
        (("a", "a"), (), "duplicate vertex labels"),
        (("a", "b"), ((0, 2),), "references undeclared vertex"),
        (("a", "b"), ((1, 0),), "must be stored with u < v"),
    ], ids=["duplicate-label", "undeclared", "reversed"])
    def test_stored_form_checked(self, labels, edges, message):
        # Graph itself checks what build_graph normalises away.
        with pytest.raises(FormatError, match=message):
            Graph(labels, edges)


class TestEdgeListFormat:
    def test_parse_with_comments(self):
        g = parse_edge_list("# triangle\na b\nb c # closing\nc a\n")
        assert g.n == 3 and len(g.edges) == 3

    def test_roundtrip(self):
        g = make(parse_family("petersen"))
        again = parse_edge_list(format_edge_list(g))
        assert again.labels == g.labels
        assert set(again.edges) == set(g.edges)

    def test_bad_line(self):
        with pytest.raises(FormatError):
            parse_edge_list("a b c\n")

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_edge_list("# nothing\n")

    @given(connected_graphs())
    def test_roundtrip_random(self, g):
        again = parse_edge_list(format_edge_list(g))
        assert again.labels == g.labels and set(again.edges) == set(g.edges)
