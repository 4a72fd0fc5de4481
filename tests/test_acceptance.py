"""Acceptance checks: one test per shipped guarantee, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`).

Two entries assert the computed values where published values of 3 do
not fit the constructions as documented, and check each 3 on the object
that has it:

- c10, the 4-point join at t=1: parts capped at 2t make the joined space
  the 4-cycle, with dim_1 = 2 = 1 + 1. The published 3 comes from the
  single-t reading (parts capped at t), under which the same four points
  form K4, with dim_1 = 3 > 1 + 1.
- c11b, the ladder truncations: a finite ladder is a 2xN grid, resolved
  by the two ends of a rail, so dim_1 = 2 at every radius. The published
  3 belongs to the two-sided infinite ladder; the test checks, on each
  truncation, that no two landmarks away from the cropped end columns
  resolve it.
"""

import contextlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from kmetric import cli
from kmetric.families import divergence_evidence, gaussian_label, make, make_space, parse_family
from kmetric.randgen import random_connected_graph
from kmetric.graphs import shortest_path_metric
from kmetric.solver import dim_bruteforce, dim_exact, dimension_sequence
from kmetric.spaces import (
    TwoPointSpaceWarning,
    bisector,
    build_space,
    is_k_generator,
    join,
    max_k,
    truncate,
)
from kmetric.verify import (
    bipartite_suite,
    join_suite,
    join_trivial_suite,
    monotonicity_suite,
    truncation_suite,
)


def _passed(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_c01_petersen_sequence():
    start = time.monotonic()
    seq = dimension_sequence(make_space(parse_family("petersen")))
    elapsed = time.monotonic() - start
    assert seq.as_values() == (3, 4, 7, 8, 9, 10)
    assert seq.tail_start == 7
    assert elapsed < 10.0
    _passed("1", f"petersen sequence (3,4,7,8,9,10), tail 7, {elapsed:.2f}s")


def test_c02_complete_graphs():
    start = time.monotonic()
    for n in range(3, 9):
        seq = dimension_sequence(make_space(parse_family(f"complete:{n}")))
        assert seq.as_values() == (n - 1, n)
        assert seq.tail_start == 3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed("2", f"K_3..K_8 sequences (n-1, n), tail 3, {elapsed:.2f}s")


def test_c03_paths():
    start = time.monotonic()
    for n in range(2, 11):
        with pytest.warns(TwoPointSpaceWarning) if n == 2 else contextlib.nullcontext():
            space = make_space(parse_family(f"path:{n}"))
        seq = dimension_sequence(space)
        if n <= 3:
            assert seq.as_values() == (1, 2)
            assert seq.tail_start == 3
        else:
            assert seq.as_values() == (1, 2) + tuple(range(4, n + 1))
            assert seq.tail_start == n
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed("3", f"P_2..P_10 sequences match the closed form, {elapsed:.2f}s")


def test_c04_cycles():
    start = time.monotonic()
    assert dimension_sequence(make_space(parse_family("cycle:7"))).as_values() == (2, 3, 4, 5, 6, 7)
    assert dimension_sequence(make_space(parse_family("cycle:8"))).as_values() == (2, 3, 4, 6, 7, 8)
    for n in (3, 5, 7, 9, 11):
        seq = dimension_sequence(make_space(parse_family(f"cycle:{n}")))
        assert seq.as_values() == tuple(k + 1 for k in range(1, n))
        assert seq.tail_start == n
    for q in (3, 4, 5):
        seq = dimension_sequence(make_space(parse_family(f"cycle:{2 * q}")))
        assert seq.as_values() == tuple(range(2, q + 1)) + tuple(range(q + 2, 2 * q + 1))
        assert seq.tail_start == 2 * q - 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed("4", f"odd/even cycle sequences match the closed forms, {elapsed:.2f}s")


def test_c05_lollipop():
    start = time.monotonic()
    for t in (2, 3, 4):
        space = make_space(parse_family(f"lollipop:5,{t}"))
        for k in (1, 2, 3, 4):
            assert dim_exact(space, k).optimum == k + 1
        last = f"u{t}"
        bases = {
            1: ("v1", "v2"),
            2: ("v1", "v2", last),
            3: ("v1", "v2", "v3", last),
            4: ("v1", "v2", "v3", "v4", last),
        }
        for k, labels in bases.items():
            cert = is_k_generator(space, [space.index(lab) for lab in labels], k)
            assert cert.valid and len(labels) == k + 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed("5", f"lollipop(5,t) dims k+1 and the four stock bases validate, {elapsed:.2f}s")


def test_c06_sqrt_primes():
    start = time.monotonic()
    for m in range(4, 9):
        space = make_space(parse_family(f"sqrt-primes:{m}"))
        assert all(len(bisector(space, u, v)) == 0 for u, v in space.pairs())
        seq = dimension_sequence(space)
        assert seq.as_values() == tuple(range(1, m + 1))
        assert seq.tail_start == m + 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed("6", f"sqrt-primes(4..8): empty bisectors and dim_k = k, {elapsed:.2f}s")


def test_c07_max_k_values():
    start = time.monotonic()
    assert max_k(make_space(parse_family("petersen"))) == 6
    for n in (3, 5, 8):
        assert max_k(make_space(parse_family(f"complete:{n}"))) == 2
    assert max_k(make_space(parse_family("lollipop:5,4"))) == 4
    assert max_k(make_space(parse_family("cycle:7"))) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed("7", f"max_k: petersen 6, K_n 2, lollipop(5,4) 4, C7 6, {elapsed:.2f}s")


def test_c08_oracle_equivalence_200_graphs():
    start = time.monotonic()
    rng = random.Random(0)
    mismatches = []
    for index in range(200):
        n = rng.randint(4, 12)
        space = shortest_path_metric(random_connected_graph(n, rng))
        prev = None
        for k in range(1, max_k(space) + 1):
            exact = dim_exact(space, k, prev_dim=prev).optimum
            brute = dim_bruteforce(space, k)
            prev = exact.value
            if exact != brute:
                mismatches.append((index, n, k, str(exact), str(brute)))
    elapsed = time.monotonic() - start
    assert mismatches == []
    assert elapsed < 600.0
    _passed("8", f"200 random graphs, exact == brute force on every level, {elapsed:.1f}s")


def test_c09_property_suites():
    start = time.monotonic()
    mono = monotonicity_suite(count=100, n=8, seed=0)
    assert mono.passed, mono.failures[:1]
    trunc = truncation_suite(count=50, n=8, seed=0)
    assert trunc.passed, trunc.failures[:1]
    joins = join_suite(count=50, n=5, seed=0)
    assert joins.passed, joins.failures[:1]
    trivial = join_trivial_suite(count=20, n=5, seed=0)
    assert trivial.passed, trivial.failures[:1]
    stock = bipartite_suite(graphs=[make(parse_family("cycle:8")), make(parse_family("grid-ball:2,3"))])
    assert stock.passed, stock.failures[:1]
    rand_bip = bipartite_suite(count=20, n=10, seed=0)
    assert rand_bip.passed, rand_bip.failures[:1]
    elapsed = time.monotonic() - start
    _passed("9", f"monotonicity/truncation/join/join-trivial/bipartite suites 100%, {elapsed:.1f}s")


def test_c10_join_counterexample():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = build_space(["1", "3"], [[0, 2], [2, 0]])
        b = build_space(["2", "4"], [[0, 2], [2, 0]])
    dim_parts = dim_exact(a, 1).optimum + dim_exact(b, 1).optimum
    assert dim_parts == 2
    # parts capped at 2t leave the within-part distance 2: the 4-cycle 1-2-3-4
    cycle = join(a, b, 1)
    dim_cycle = dim_exact(cycle, 1).optimum
    assert dim_cycle == dim_bruteforce(cycle, 1) == dim_parts
    # {1, 2} resolves it; no single point does, being at distance 1 from
    # both points of the other part
    landmarks = [cycle.index("1"), cycle.index("2")]
    vectors = {lab: tuple(cycle.dist[cycle.index(lab)][w] for w in landmarks) for lab in cycle.labels}
    assert vectors == {"1": (0, 1), "3": (2, 1), "2": (1, 0), "4": (1, 2)}
    assert not any(is_k_generator(cycle, [x], 1).valid for x in range(cycle.n))
    # parts capped at t (the single-t reading), which is truncation at t/2:
    # the same points form K4
    k4 = join(truncate(a, Fraction(1, 2)), truncate(b, Fraction(1, 2)), 1)
    assert all(k4.dist[u][v] == 1 for u, v in k4.pairs())
    dim_k4 = dim_exact(k4, 1).optimum
    assert dim_k4 == dim_bruteforce(k4, 1) == 3
    assert dim_parts < dim_k4
    _passed("10", "4-point join at t=1: 4-cycle has dim 2 = 1 + 1; K4 (parts at t) has dim 3 > 1 + 1")


def test_c11a_free_ball_divergence():
    report = divergence_evidence("free_ball", (1, 2, 3), rank=2)
    dims = [entry.dim1 for entry in report.per_radius]
    assert dims == sorted(dims) and len(set(dims)) == len(dims)  # strictly increasing
    assert all(entry.containment_verified for entry in report.per_radius)
    _passed("11a", f"free-ball(2, r) dim_1 strictly increasing: {dims}")


def test_c11b_ladder_truncations():
    dims = {}
    for radius in (3, 4, 5, 6):
        space = make_space(parse_family(f"ladder:{radius}"))
        anchor = [space.index("0"), space.index("1"), space.index("i")]
        assert is_k_generator(space, anchor, 1).valid
        dims[radius] = dim_exact(space, 1).optimum
        if radius == 3:
            assert dims[radius] == dim_bruteforce(space, 1)
        # (i) in-ball distances are ladder distances |dm| + |dn|, so a pair
        # the ball leaves undistinguished stays so in the infinite ladder
        coords = [None] * space.n
        for m in range(-radius, radius + 1):
            for n in (0, 1):
                coords[space.index(gaussian_label(m, n))] = (m, n)
        for u, v in space.pairs():
            (mu, nu), (mv, nv) = coords[u], coords[v]
            assert space.dist[u][v] == abs(mu - mv) + abs(nu - nv)
        # (ii) every resolving pair uses an end column, which the infinite
        # ladder does not have
        inner = [x for x in range(space.n) if abs(coords[x][0]) < radius]
        assert not any(is_k_generator(space, pair, 1).valid for pair in combinations(inner, 2))
    assert all(value == 2 for value in dims.values()), f"computed dims: {dims}"
    _passed("11b", "ladder truncations have dim_1 = 2 with {0,1,i} validating; "
            "no pair off the end columns resolves any of them")


def test_c12_determinism(capsys):
    commands = [
        ["sequence", "--family", "petersen", "--format", "json"],
        ["sequence", "--family", "complete:6", "--format", "json"],
        ["sequence", "--family", "path:9", "--format", "json"],
        ["sequence", "--family", "cycle:7", "--format", "json"],
        ["sequence", "--family", "cycle:8", "--format", "json"],
        ["sequence", "--family", "lollipop:5,3", "--format", "json"],
        ["sequence", "--family", "sqrt-primes:6", "--format", "json"],
        ["analyze", "--family", "petersen", "--k", "3", "--format", "json"],
        ["analyze", "--family", "complete:5", "--k", "3", "--format", "json"],
        ["analyze", "--family", "lollipop:5,4", "--k", "4", "--format", "json"],
        ["analyze", "--family", "cycle:7", "--k", "6", "--format", "json"],
    ]
    for argv in commands:
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second, f"output of {argv} not reproducible"
        json.loads(first)  # well-formed
    _passed("12", f"{len(commands)} command invocations byte-identical across runs")
