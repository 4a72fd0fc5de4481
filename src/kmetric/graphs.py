"""Graphs as metric-space sources: shortest-path metrics and bipartiteness.

Graphs are simple and undirected.  The shortest-path metric runs BFS from
every vertex (O(n*m)), which is plenty at desk scale and keeps distances
exact integers.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import DisconnectedGraph, FormatError
from .spaces import FiniteMetricSpace, TwoPointSpaceWarning, _from_scaled, all_distinguishers


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex labels plus index edge pairs (u < v)."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise FormatError("duplicate vertex labels")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"edge ({u},{v}) references undeclared vertex")
            if u == v:
                raise FormatError(f"self-loop at vertex {self.labels[u]!r}")
            if u > v:
                raise FormatError(f"edge ({u},{v}) must be stored with u < v")
            if (u, v) in seen:
                raise FormatError(f"duplicate edge ({self.labels[u]!r},{self.labels[v]!r})")
            seen.add((u, v))

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nb)) for nb in adj)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        return self._label_index[label]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


def build_graph(labels: Iterable[str], edge_labels: Iterable[tuple[str, str]]) -> Graph:
    """Construct a Graph from vertex labels and unordered label pairs."""
    labels = tuple(str(lab) for lab in labels)
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for a, b in edge_labels:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise FormatError(f"edge endpoint {missing!r} is not a declared vertex")
        u, v = index[a], index[b]
        if u > v:
            u, v = v, u
        edges.append((u, v))
    return Graph(labels, tuple(edges))


def relabel_graph(g: Graph, mapping: dict[str, str]) -> Graph:
    """Rename vertices; edge structure unchanged.

    The library never relabels a graph itself.  The function stays public
    because the tests build relabeled copies with it and
    `perfbench/tracing.py` lists it among the functions it times; the
    benchmark's self-test fails when a listed function is missing."""
    labels = tuple(mapping.get(lab, lab) for lab in g.labels)
    return Graph(labels, g.edges)


def _bfs(g: Graph, source: int) -> list[int | None]:
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = du + 1
                queue.append(v)
    return dist


def shortest_path_metric(g: Graph) -> FiniteMetricSpace:
    """All-pairs BFS distances as an exact integer metric space.

    The distances of a connected graph are a metric by construction, so
    the BFS integers are the space's stored distances, at scale 1, without
    `build_space`'s re-check.
    """
    if g.n < 2:
        raise FormatError(f"need at least 2 vertices, got {g.n}")
    matrix = []
    for s in range(g.n):
        dist = _bfs(g, s)
        for v, d in enumerate(dist):
            if d is None:
                raise DisconnectedGraph(g.labels[s], g.labels[v])
        matrix.append(tuple(dist))
    if g.n == 2:
        warnings.warn("2-point spaces are degenerate for dimension analysis", TwoPointSpaceWarning, stacklevel=2)
    return _from_scaled(g.labels, tuple(matrix), 1)


@dataclass(frozen=True)
class BipartiteResult:
    bipartite: bool
    coloring: tuple[int, ...] | None  # 0/1 per vertex when bipartite
    odd_cycle: tuple[int, ...] | None  # closed odd walk (first == last) otherwise


def is_bipartite(g: Graph) -> BipartiteResult:
    """2-color the graph, or exhibit an odd cycle."""
    color: list[int | None] = [None] * g.n
    parent: list[int | None] = [None] * g.n
    adj = g.adjacency
    for root in range(g.n):
        if color[root] is not None:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return BipartiteResult(False, None, _odd_cycle(u, v, parent))
    return BipartiteResult(True, tuple(color), None)


def _odd_cycle(u: int, v: int, parent: list[int | None]) -> tuple[int, ...]:
    """Close the cycle through the BFS-tree paths of two same-color neighbors."""
    up, vp = [u], [v]
    seen = {u: 0}
    x = u
    while parent[x] is not None:
        x = parent[x]
        seen[x] = len(up)
        up.append(x)
    x = v
    while x not in seen:
        x = parent[x]
        vp.append(x)
    meet = seen[x]
    path_u = up[: meet + 1]  # u .. meeting point
    # closed walk: meeting point .. v (reverse of vp), edge v-u, u .. meeting point
    walk = list(reversed(vp)) + path_u
    return tuple(walk)


@dataclass(frozen=True)
class OddDistanceReport:
    """Per-pair audit of the empty-bisector rule for odd distances; in a
    bipartite graph each of the `violations` is a counterexample."""

    bipartite: bool
    odd_pairs: int
    verified_empty: int
    violations: tuple[tuple[str, str], ...]


def check_odd_distance_bisectors(g: Graph) -> OddDistanceReport:
    """List the pairs at odd distance whose bisector is not empty.

    The rule holds in graphs without odd cycles; the caller judges a
    violation.  A bisector is empty when the pair's mask holds every point,
    and a graph's stored distances are its BFS integers.
    """
    space = shortest_path_metric(g)
    dist, full = space._int_dist, (1 << space.n) - 1
    odd_pairs = 0
    violations = []
    for (u, v), mask in zip(space.pairs(), all_distinguishers(space).masks):
        if dist[u][v] % 2:
            odd_pairs += 1
            if mask != full:
                violations.append((g.labels[u], g.labels[v]))
    empty = odd_pairs - len(violations)
    return OddDistanceReport(is_bipartite(g).bipartite, odd_pairs, empty, tuple(violations))


# --- edge-list interchange ---------------------------------------------------
#
# One `u v` pair per line; `#` starts a comment; an optional header line
# `vertices: a b c` declares vertices up front (needed for isolated ones,
# which then surface as DisconnectedGraph during metric construction).

def parse_edge_list(text: str) -> Graph:
    declared: list[str] = []
    order: dict[str, None] = {}
    edge_labels: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            declared.extend(line[len("vertices:") :].split())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        edge_labels.append((parts[0], parts[1]))
    for lab in declared:
        order.setdefault(lab)
    for a, b in edge_labels:
        order.setdefault(a)
        order.setdefault(b)
    if len(order) < 1:
        raise FormatError("edge list declares no vertices")
    return build_graph(tuple(order), edge_labels)


def format_edge_list(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.labels)]
    lines.extend(f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
