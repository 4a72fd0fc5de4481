"""Span tracer that wraps kmetric's public functions from outside the package.

Each public function of a layer module is replaced at every import site:
in the module that defines it and in every layer module that imported it
by name.  A call therefore records a span whether it comes from the CLI,
from another layer or from inside its own module, and no file of the
package changes.  Spans live in memory as ``[name, parent, start, end]``
and are written out by the caller.

Private helpers (leading underscore) are never wrapped: the solver's
reduce / bounds / search / lex-min phases stay inside ``solver.solve_s``
until the program reports its own phase statistics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "families", "graphs", "spaces", "solver", "verify", "randgen")

# Called once per matrix entry; a wrapper would cost more than the work.
SKIP = {"spaces.as_rational"}

# The distinguisher masks are a lazily computed property, not a function;
# they are part of building the distinguisher map.
MASKS_SPAN = "spaces.DistinguisherMap.masks"

# Span name -> per-layer self-time metric.  A function not listed here
# (cli, families, verify and randgen functions, or one added after this
# table was written) is charged to its layer's entry in LAYER_DEFAULT.
TIME_METRIC = {
    "spaces.build_space": "spaces.validate_s",
    "spaces.all_distinguishers": "spaces.distinguish_s",
    MASKS_SPAN: "spaces.distinguish_s",
    "spaces.max_k": "spaces.distinguish_s",
    "spaces.truncate": "spaces.construct_s",
    "spaces.join": "spaces.construct_s",
    "spaces.permute_space": "spaces.construct_s",
    "spaces.load_space": "spaces.load_s",
    "spaces.space_from_json_dict": "spaces.load_s",
    "spaces.space_to_json_dict": "spaces.load_s",
    "spaces.dump_space": "spaces.load_s",
    "spaces.bisector": "spaces.bisector_s",
    "spaces.distinguishers": "spaces.bisector_s",
    "spaces.is_k_generator": "spaces.certificate_s",
    "graphs.parse_edge_list": "graphs.parse_s",
    "graphs.build_graph": "graphs.parse_s",
    "graphs.relabel_graph": "graphs.parse_s",
    "graphs.format_edge_list": "graphs.parse_s",
    "graphs.shortest_path_metric": "graphs.bfs_s",
    "graphs.is_bipartite": "graphs.bfs_s",
    "graphs.check_odd_distance_bisectors": "graphs.bfs_s",
    "solver.greedy_upper": "solver.greedy_s",
    "solver.dim_exact": "solver.solve_s",
    "solver.sequence_with_reports": "solver.solve_s",
    "solver.dimension_sequence": "solver.solve_s",
    "solver.dim_bruteforce": "solver.solve_s",
}

LAYER_DEFAULT = {
    "cli": "cli.self_s",
    "families": "families.make_s",
    "graphs": "graphs.bfs_s",
    "spaces": "spaces.construct_s",
    "solver": "solver.solve_s",
    "verify": "verify.self_s",
    "randgen": "randgen.generate_s",
}

# Span name -> counter bumped once per call.
CALL_COUNTS = {
    "spaces.build_space": "spaces.validate_calls",
    "spaces.truncate": "spaces.construct_calls",
    "spaces.join": "spaces.construct_calls",
    "spaces.permute_space": "spaces.construct_calls",
    "spaces.bisector": "spaces.bisector_calls",
    "spaces.distinguishers": "spaces.bisector_calls",
    "solver.greedy_upper": "solver.greedy_calls",
    "solver.dim_exact": "solver.levels",
}

COUNT_METRICS = (
    "spaces.validate_calls",
    "spaces.validate_cells",
    "spaces.distinguish_pairs",
    "spaces.construct_calls",
    "spaces.bisector_calls",
    "solver.greedy_calls",
    "solver.levels",
    "solver.nodes",
    "solver.bounded",
    "solver.greedy_gap",
)

TIME_METRICS = tuple(sorted(set(TIME_METRIC.values()) | set(LAYER_DEFAULT.values())))


def metric_for(span_name: str) -> str | None:
    """The time metric a span's self time is charged to; None for harness spans."""
    if span_name in TIME_METRIC:
        return TIME_METRIC[span_name]
    return LAYER_DEFAULT.get(span_name.split(".", 1)[0])


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._maps: dict[int, weakref.ref] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        # Span name -> function of the call's result that adds to the counts.
        self._hooks = {
            "spaces.build_space": self._count_cells,
            "spaces.all_distinguishers": self._count_map,
            "solver.dim_exact": self._count_level,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"kmetric.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("kmetric."):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                if name not in SKIP:
                    self._patch(module, attr, self._wrap(name, fn))
        dmap_cls = getattr(importlib.import_module("kmetric.spaces"), "DistinguisherMap", None)
        masks = vars(dmap_cls).get("masks") if dmap_cls is not None else None
        if isinstance(masks, functools.cached_property):
            prop = functools.cached_property(self._wrap(MASKS_SPAN, masks.func))
            prop.__set_name__(dmap_cls, "masks")
            self._patch(dmap_cls, "masks", prop)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        self.installed.add(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        hook, calls = self._hooks.get(name), CALL_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls is not None:
                counts[calls] += 1
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A harness span, such as one job; layer spans inside it become its children."""
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        """Forget spans and counts before the next traced pass."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self._maps.clear()

    # -- counters -------------------------------------------------------------

    def _count_cells(self, space) -> None:
        self.counts["spaces.validate_cells"] += space.n ** 2

    def _count_map(self, dmap) -> None:
        # Pairs are counted once per distinct map, however often it is asked for.
        ref = self._maps.get(id(dmap))
        if ref is None or ref() is not dmap:
            self._maps[id(dmap)] = weakref.ref(dmap)
            self.counts["spaces.distinguish_pairs"] += len(dmap)

    def _count_level(self, report) -> None:
        counts = self.counts
        counts["solver.nodes"] += getattr(report, "nodes_explored", 0)
        counts["solver.bounded"] += report.status == "bounded"
        greedy = getattr(report, "greedy_value", None)
        if greedy is None:
            return
        counts["root_levels"] += 1
        trace = getattr(report, "lower_bound_trace", ())
        if trace and max(value for _, value in trace) == greedy:
            counts["root_closed"] += 1
        if report.status == "optimal" and report.optimum.is_finite:
            counts["solver.greedy_gap"] += greedy - report.optimum.value

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        out = {name: 0.0 for name in TIME_METRICS}
        for (name, _, _, _), self_time in zip(self.spans, self.self_times()):
            metric = metric_for(name)
            if metric is not None:
                out[metric] += self_time
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        levels = self.counts["root_levels"]
        out["solver.root_closed"] = self.counts["root_closed"] / levels if levels else 0.0
        return out

    def absent(self) -> list[str]:
        """Expected functions that no longer exist, so their spans are missing."""
        return sorted((set(TIME_METRIC) | set(CALL_COUNTS) | set(self._hooks)) - self.installed)
