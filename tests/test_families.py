import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from kmetric import cli, families, solver
from kmetric.errors import BadFamilyParams, KMetricError
from kmetric.families import (
    _CLI_ALIASES,
    FamilySpec,
    divergence_evidence,
    expected_sequence,
    make,
    make_space,
    parse_family,
)
from kmetric.graphs import Graph, shortest_path_metric
from kmetric.solver import DEFAULT_BUDGET_SECS, dim_exact
from kmetric.spaces import FiniteMetricSpace, bisector, max_k


def tree_dim1_oracle(g: Graph) -> int:
    """Leaves minus exterior major vertices: the classical tree formula."""
    degree = [g.degree(v) for v in range(g.n)]
    leaves = [v for v in range(g.n) if degree[v] == 1]
    exterior = set()
    for leaf in leaves:
        # walk inward until the first vertex of degree >= 3
        prev, cur = None, leaf
        while degree[cur] <= 2:
            nxt = [w for w in g.adjacency[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        if degree[cur] >= 3:
            exterior.add(cur)
    return len(leaves) - len(exterior)


class TestParse:
    def test_tokens(self):
        assert parse_family("cycle:8") == FamilySpec("cycle", (8,))
        assert parse_family("petersen") == FamilySpec("petersen")
        assert parse_family("grid-ball:2,4") == FamilySpec("grid_ball", (2, 4))
        assert parse_family("interval:11") == FamilySpec("interval_sample", (11,))
        assert parse_family("SQRT-PRIMES:5") == FamilySpec("sqrt_primes", (5,))

    def test_roundtrip_via_str(self):
        for token in ("path:7", "cycle:8", "complete:5", "petersen", "lollipop:5,4",
                      "grid-ball:2,4", "free-ball:2,3", "ladder:6", "sqrt-primes:8",
                      "interval:11"):
            assert str(parse_family(token)) == token

    def test_bad_inputs(self):
        for bad in ("nope", "cycle", "cycle:2", "cycle:x", "path:1", "lollipop:4,2",
                    "lollipop:5,0", "petersen:3", "grid-ball:0,2", "sqrt-primes:1"):
            with pytest.raises(BadFamilyParams):
                parse_family(bad)


# Family tokens as a user might mistype them: a known or unknown name, a
# separator, and parameters that are numbers, near-numbers, text or ints
# past the interpreter's digit limit.
_PARAMS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.text(max_size=6),
    st.sampled_from(["", " ", "1_0", "0x10", "\u0663", "1e3", "-0", "+7", "9" * 4300, "1" * 5000]),
)
_FAMILY_TOKENS = st.one_of(
    st.text(),
    st.builds(lambda name, sep, params: name + sep + ",".join(params),
              st.sampled_from(sorted(_CLI_ALIASES) + ["", "nope", "Cycle", " path "]),
              st.sampled_from([":", "::", ": ", ""]),
              st.lists(_PARAMS, max_size=4)),
)


class TestParseFuzz:
    @settings(max_examples=300)
    @given(_FAMILY_TOKENS)
    def test_only_family_errors_escape(self, text):
        try:
            spec = parse_family(text)
        except KMetricError:
            return
        assert parse_family(str(spec)) == spec


class TestCounts:
    def test_path(self):
        g = make(parse_family("path:7"))
        assert g.n == 7 and len(g.edges) == 6

    def test_cycle(self):
        g = make(parse_family("cycle:8"))
        assert g.n == 8 and len(g.edges) == 8

    def test_complete(self):
        g = make(parse_family("complete:5"))
        assert g.n == 5 and len(g.edges) == 10

    def test_petersen(self):
        g = make(parse_family("petersen"))
        assert g.n == 10 and len(g.edges) == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_lollipop(self):
        for t in (1, 2, 5):
            g = make(parse_family(f"lollipop:5,{t}"))
            assert g.n == 4 + t and len(g.edges) == 4 + t

    def test_grid_ball(self):
        for rank, radius, count in ((1, 3, 7), (2, 1, 5), (2, 2, 13), (2, 4, 41), (3, 2, 25)):
            g = make(FamilySpec("grid_ball", (rank, radius)))
            assert g.n == count

    def test_free_ball(self):
        for rank, radius, count in ((1, 3, 7), (2, 1, 5), (2, 2, 17), (2, 3, 53)):
            g = make(FamilySpec("free_ball", (rank, radius)))
            assert g.n == count

    @pytest.mark.parametrize("rank", range(1, 14))
    def test_every_free_ball_rank_is_a_star_at_radius_1(self, rank):
        # From rank 5 on, a generator letter "e" would take the identity's label.
        g = make(FamilySpec("free_ball", (rank, 1)))
        assert g.n == 2 * rank + 1 and len(set(g.labels)) == g.n
        assert sorted(g.degree(v) for v in range(g.n)) == [1] * (2 * rank) + [2 * rank]
        dim = dim_exact(shortest_path_metric(g), 1).optimum
        assert dim == 2 * rank - 1 == (tree_dim1_oracle(g) if rank > 1 else 1)

    def test_ladder(self):
        g = make(parse_family("ladder:6"))
        assert g.n == 26
        assert {"0", "1", "i", "1+i", "-6", "-6+i"} <= set(g.labels)

    def test_generated_graphs_connected(self):
        for token in ("path:5", "cycle:9", "complete:4", "petersen", "lollipop:5,3",
                      "grid-ball:2,3", "free-ball:2,2", "ladder:4"):
            shortest_path_metric(make(parse_family(token)))  # raises if disconnected

    def test_space_families(self):
        sp = make(parse_family("sqrt-primes:5"))
        assert isinstance(sp, FiniteMetricSpace) and sp.n == 5
        sp = make(parse_family("interval:11"))
        assert sp.n == 11
        assert sp.labels[0] == "0" and sp.labels[-1] == "1"
        assert sp.dist[0][1] == Fraction(1, 10)


class TestBisectorStructure:
    def test_odd_cycle_bisectors_are_singletons(self):
        space = make_space(parse_family("cycle:9"))
        for u, v in space.pairs():
            assert len(bisector(space, u, v)) == 1

    def test_even_cycle_bisectors_are_antipodal_pairs(self):
        n = 10
        space = make_space(parse_family(f"cycle:{n}"))
        for u, v in space.pairs():
            b = bisector(space, u, v)
            assert len(b) in (0, 2)
            if len(b) == 2:
                a, c = b.indices
                assert (c - a) % n == n // 2  # antipodal

    def test_sqrt_primes_all_bisectors_empty(self):
        space = make(parse_family("sqrt-primes:8"))
        for u, v in space.pairs():
            assert len(bisector(space, u, v)) == 0
        assert max_k(space) == 8


class TestExpectedSequences:
    def test_complete(self):
        exp = expected_sequence(parse_family("complete:5"))
        assert exp.entries == (4, 5) and exp.tail_start == 3 and not exp.partial

    def test_cycle_even(self):
        exp = expected_sequence(parse_family("cycle:8"))
        assert exp.entries == (2, 3, 4, 6, 7, 8) and exp.tail_start == 7

    def test_cycle_odd(self):
        exp = expected_sequence(parse_family("cycle:7"))
        assert exp.entries == (2, 3, 4, 5, 6, 7) and exp.tail_start == 7

    def test_paths(self):
        assert expected_sequence(parse_family("path:2")).entries == (1, 2)
        assert expected_sequence(parse_family("path:3")).tail_start == 3
        exp = expected_sequence(parse_family("path:6"))
        assert exp.entries == (1, 2, 4, 5, 6) and exp.tail_start == 6

    def test_petersen(self):
        exp = expected_sequence(parse_family("petersen"))
        assert exp.entries == (3, 4, 7, 8, 9, 10) and exp.tail_start == 7

    def test_lollipop_partial(self):
        exp = expected_sequence(parse_family("lollipop:5,4"))
        assert exp.entries == (2, 3, 4, 5) and exp.partial and exp.tail_start is None

    def test_sqrt_primes(self):
        exp = expected_sequence(parse_family("sqrt-primes:6"))
        assert exp.entries == (1, 2, 3, 4, 5, 6) and exp.tail_start == 7

    def test_unknown(self):
        assert expected_sequence(FamilySpec("grid_ball", (2, 4))) is None
        assert expected_sequence(parse_family("ladder:6")) is None
        assert expected_sequence(parse_family("interval:11")) is None


class TestDivergenceEvidence:
    def test_free_ball_matches_tree_oracle(self):
        report = divergence_evidence("free_ball", (1, 2), rank=2)
        for entry in report.per_radius:
            g = make(FamilySpec("free_ball", (2, entry.radius)))
            assert entry.dim1 == tree_dim1_oracle(g)
            assert entry.containment_verified
        assert report.dim1_nondecreasing

    def test_grid_ball_quadrant_witness(self):
        report = divergence_evidence("grid_ball", (2, 3), rank=2)
        for entry in report.per_radius:
            assert entry.containment_verified
            assert entry.boundary_distortions == 0
            assert entry.witness_pairs >= 2
            assert Fraction(1, 2) < entry.witness_fraction < 1
        assert report.dim1_nondecreasing

    def test_ladder_half_rail_witness(self):
        report = divergence_evidence("ladder", (2, 3))
        sizes = [e.size for e in report.per_radius]
        assert sizes == [10, 14]
        for entry in report.per_radius:
            assert entry.containment_verified
            assert entry.witness_fraction == Fraction(1, 2)

    def test_ladder_dim1_stabilizes(self):
        # truncations all have the same dim_1; value cross-checked by brute
        # force where the instance fits under the cap
        from kmetric.solver import dim_bruteforce

        report = divergence_evidence("ladder", (2, 3, 4, 5))
        dims = {entry.radius: entry.dim1 for entry in report.per_radius}
        assert len(set(dims.values())) == 1
        for radius in (2, 3):
            space = make_space(FamilySpec("ladder", (radius,)))
            assert dims[radius] == dim_bruteforce(space, 1).value == 2

    @pytest.mark.parametrize("given, passed", [({}, DEFAULT_BUDGET_SECS), ({"budget_secs": None}, None)],
                             ids=["default", "none-is-no-limit"])
    def test_budget_reaches_dim_exact(self, monkeypatch, given, passed):
        seen = []

        def spy(space, k, **kwargs):
            seen.append(kwargs)
            return dim_exact(space, k, **kwargs)

        monkeypatch.setattr(families, "dim_exact", spy)
        divergence_evidence("ladder", (2, 3), **given)
        assert seen == [{"budget_secs": passed, "lex_min": False}] * 2

    def test_bounded_solve_raises(self, monkeypatch):
        # Without the cluster kernel and with no time, grid_ball's first
        # dim_1 stays bounded, while the ladder's still solve.
        monkeypatch.setattr(solver, "COMPONENT_SUPPORT_CAP", 0)
        with pytest.raises(KMetricError, match=r"^budget exhausted computing dim_1: bounds \(2, 3\)$"):
            divergence_evidence("grid_ball", (2, 3), budget_secs=-1.0)
        report = divergence_evidence("ladder", (2, 3), budget_secs=-1.0)
        assert [entry.dim1 for entry in report.per_radius] == [2, 2]

    def test_bad_arguments(self):
        with pytest.raises(BadFamilyParams):
            divergence_evidence("petersen", (1, 2))
        with pytest.raises(BadFamilyParams):
            divergence_evidence("free_ball", (3, 2))
        with pytest.raises(BadFamilyParams):
            divergence_evidence("free_ball", (2,))
        with pytest.raises(BadFamilyParams):
            divergence_evidence("grid_ball", (2, 3), rank=1)

    @pytest.mark.parametrize("max_radius, code", [("2", 0), ("0", 2)])
    def test_study_script(self, max_radius, code):
        # Every --max-radius >= 1 gives each family at least two radii;
        # smaller values are a usage error, not a traceback.
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run([sys.executable, str(root / "scripts" / "divergence_study.py"),
                               "--max-radius", max_radius],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 0:
            blocks = [block.splitlines() for block in proc.stdout.strip().split("\n\n")]
            assert [len(block) - 1 for block in blocks] == [2, 2, 3]  # radii per family


class TestDimensionTables:
    def test_closed_form_rows_match_the_cli(self, capsys):
        # Each row with a closed form says PASS or FAIL by the same rule as
        # `kmetric sequence`'s overall verdict.
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run([sys.executable, str(root / "scripts" / "dimension_tables.py")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        judged = []
        for line in proc.stdout.splitlines():
            if "(no closed form)" not in line:
                token, _, _, _, verdict = line.split()[:5]
                judged.append((token, verdict))
        assert len(judged) == 15
        for token, verdict in judged:
            assert cli.main(["sequence", "--family", token, "--format", "json"]) == 0
            assert verdict == json.loads(capsys.readouterr().out)["overall"]


class TestLollipopBases:
    def test_figure_bases_validate(self):
        space = make_space(parse_family("lollipop:5,4"))
        names = {
            1: ("v1", "v2"),
            2: ("v1", "v2", "u4"),
            3: ("v1", "v2", "v3", "u4"),
            4: ("v1", "v2", "v3", "v4", "u4"),
        }
        from kmetric.spaces import is_k_generator

        for k, labels in names.items():
            points = [space.index(lab) for lab in labels]
            assert is_k_generator(space, points, k).valid
            assert dim_exact(space, k).optimum == len(labels) == k + 1
