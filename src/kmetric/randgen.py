"""Seeded random instances for the verification suites.

Two space sources, both fully determined by a random.Random instance:
Erdos-Renyi graphs conditioned on connectivity (integer metrics), and
shortest-path closures of randomly weighted complete graphs (rational
metrics whose distances are dense enough for truncation to bite).
"""

from __future__ import annotations

import random
import warnings

from .graphs import Graph, _bfs, shortest_path_metric
from .spaces import FiniteMetricSpace, TwoPointSpaceWarning, _from_scaled, build_space


def _connected_graph(n: int, edges: list[tuple[int, int]]) -> Graph | None:
    """The graph g0..g{n-1} on index edges, or None when it is disconnected."""
    graph = Graph(tuple(f"g{i}" for i in range(n)), tuple(edges))
    return None if None in _bfs(graph, 0) else graph


def random_connected_graph(n: int, rng: random.Random, edge_prob: float | None = None) -> Graph:
    """Erdos-Renyi G(n, p) resampled until connected."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    while True:
        prob = edge_prob if edge_prob is not None else rng.uniform(0.25, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
        graph = _connected_graph(n, edges)
        if graph is not None:
            return graph


def random_bipartite_connected_graph(n: int, rng: random.Random) -> Graph:
    """Connected bipartite graph: random bipartition, edges only across."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    while True:
        left_size = rng.randint(1, n - 1)
        sides = [0] * left_size + [1] * (n - left_size)
        rng.shuffle(sides)
        prob = rng.uniform(0.4, 0.8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if sides[u] != sides[v] and rng.random() < prob
        ]
        graph = _connected_graph(n, edges)
        if graph is not None:
            return graph


def random_graph_metric(n: int, rng: random.Random) -> FiniteMetricSpace:
    return shortest_path_metric(random_connected_graph(n, rng))


def random_rational_metric(n: int, rng: random.Random) -> FiniteMetricSpace:
    """Shortest-path closure of a complete graph with random rational weights.

    The closure runs on the weights times 6, in integers; `build_space`
    validates that integer matrix, and the space is its rescale by 1/6.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    # Weights a/b with a in 1..8, b in {1, 2, 3}; the closure runs on integers times 6.
    d = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            num = rng.randint(1, 8)
            d[u][v] = d[v][u] = num * (6 // rng.randint(1, 3))
    for mid in range(n):
        row_mid = d[mid]
        for u in range(n):
            dum = d[u][mid]
            row_u = d[u]
            for v in range(n):
                detour = dum + row_mid[v]
                if detour < row_u[v]:
                    row_u[v] = detour
    labels = [f"x{i}" for i in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TwoPointSpaceWarning)
        space = build_space(labels, d)
    return _from_scaled(space.labels, space._int_dist, 6)


def random_space(n: int, rng: random.Random) -> FiniteMetricSpace:
    """Alternate between the two space sources."""
    if rng.random() < 0.5:
        return random_graph_metric(n, rng)
    return random_rational_metric(n, rng)
