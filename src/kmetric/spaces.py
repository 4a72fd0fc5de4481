"""Finite metric spaces with exact rational distances.

Everything here is exact, so the equality test d(x,u) = d(x,v) that
defines a bisector is decidable and transitive.  Floating-point input is
quantized to a fixed number of decimal digits at load time and the
precision is recorded in the space's metadata, because tolerance-based
equality would corrupt bisectors.

A space stores its distances times L, the lcm of their denominators, as
integers, plus L.  Integers scaled by one L are equal, or ordered,
exactly when the fractions are, so validation, bisectors and
distinguisher masks use plain (and bit-parallel) integer code; `dist`,
the fractions for the API, messages and JSON, is derived on first use.

Input from outside (a matrix, space JSON) is validated in full once, by
`build_space`, the only path from fractions to integers.  It converts
each distinct int or str entry once, and its triangle check tests all n*n
inequalities for one point at a time as byte fields of one big integer
(`_triangle_scan`), unless the largest entry already breaks a triangle.
Spaces derived from a valid space (`truncate`,
`join`, `permute_space`) are metrics by construction: they are built
from integers directly, by `_from_scaled`, without a re-check.

All types are immutable after construction and all operations are pure
functions; spaces can be shared freely.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    AsymmetricDistance,
    DuplicateLabel,
    FormatError,
    LabelCollision,
    NegativeDistance,
    NonpositiveParameter,
    SamePoint,
    TriangleViolation,
    ZeroOffDiagonal,
    format_distance,
)

DEFAULT_QUANTIZE_DIGITS = 12


class TwoPointSpaceWarning(UserWarning):
    """A 2-point space is accepted but degenerate for dimension analysis."""


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def as_rational(value) -> tuple[Fraction, bool]:
    """Coerce a distance entry to an exact Fraction.

    Returns (fraction, quantized) where `quantized` is True iff the value
    was a float that had to be rounded to DEFAULT_QUANTIZE_DIGITS decimal digits.
    Strings accept both rational ("3/2") and decimal ("1.5") notation.
    """
    if isinstance(value, Fraction):
        return value, False
    if isinstance(value, bool):
        raise FormatError(f"distance entry {value!r} is not a number")
    if isinstance(value, int):
        return Fraction(value), False
    if isinstance(value, float):
        if not math.isfinite(value):
            raise FormatError(f"distance entry {value!r} is not a finite number")
        scale = 10**DEFAULT_QUANTIZE_DIGITS
        scaled = value * scale
        if not math.isfinite(scaled):
            raise FormatError(f"distance entry {value!r} is too large to quantize to {DEFAULT_QUANTIZE_DIGITS} digits")
        return Fraction(round(scaled), scale), True
    if isinstance(value, str):
        try:
            return Fraction(value), False
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"cannot parse distance entry {value!r}") from exc
    raise FormatError(f"distance entry {value!r} is not a number")


@dataclass(frozen=True, order=True)
class PointSet:
    """A sorted, duplicate-free set of point indices into a space."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise FormatError(f"indices must be strictly increasing, got {idx}")
        if idx and idx[0] < 0:
            raise FormatError(f"negative point index in {idx}")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "PointSet":
        return cls(tuple(sorted(set(indices))))

    @classmethod
    def from_mask(cls, mask: int) -> "PointSet":
        """The set bits of a non-negative mask.  `_bits` returns them sorted,
        so the order check of the constructor is skipped."""
        pset = object.__new__(cls)
        object.__setattr__(pset, "indices", tuple(_bits(mask)))
        return pset

    def to_mask(self) -> int:
        mask = 0
        for i in self.indices:
            mask |= 1 << i
        return mask

    def labels(self, space: "FiniteMetricSpace") -> tuple[str, ...]:
        return tuple(space.labels[i] for i in self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """n labeled points; `_int_dist` holds the distances times `scale`, the lcm of
    their reduced denominators.  Build one with `build_space` or `_from_scaled`."""

    labels: tuple[str, ...]
    _int_dist: tuple[tuple[int, ...], ...]
    scale: int
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix in fractions; each distinct value is built once."""
        value = {x: Fraction(x, self.scale) for x in set().union(*self._int_dist)}
        return tuple(tuple(map(value.__getitem__, row)) for row in self._int_dist)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        return self._label_index[label]

    def diameter(self) -> Fraction:
        return Fraction(max(map(max, self._int_dist)), self.scale)

    def pairs(self) -> Iterator[tuple[int, int]]:
        n = self.n
        for u in range(n):
            for v in range(u + 1, n):
                yield u, v

    @cached_property
    def _distinguishers(self) -> "DistinguisherMap":
        return DistinguisherMap(self._int_dist)


def _from_scaled(labels, z, scale: int, meta=None) -> FiniteMetricSpace:
    """The space with distances z / scale, for a metric matrix `z` (tuples
    of ints), after dividing out the common factor of z and scale."""
    common = math.gcd(scale, *chain.from_iterable(z))
    if common > 1:
        z, scale = tuple(tuple(x // common for x in row) for row in z), scale // common
    return FiniteMetricSpace(labels, z, scale, meta or {})


@dataclass(frozen=True)
class DistinguisherMap:
    """For each unordered pair (u,v), the points whose distances to u and v differ.

    Pairs come in lexicographic order.  Each distinguisher set is a bitmask
    over the points, computed from `rows`, the distance matrix in
    common-denominator integers.  Both views, `masks` (one per pair) and
    `columns` (one per point), are read from one text of n-digit binary
    numerals built by the byte-field kernel `_distinguisher_text`.
    """

    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        n = len(self.rows)
        text = _distinguisher_text(self.rows)
        # Column x read downwards, last pair first, is the base-2 numeral of
        # point x's pair mask.  It is cached now so the text is not kept.
        vars(self)["columns"] = tuple(int(text[n - 1 - x::n][::-1], 2) for x in range(n))
        return tuple([int(text[i:i + n], 2) for i in range(0, len(text), n)])

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Per point, the mask over pair indices of the pairs it distinguishes."""
        self.masks  # builds and caches the columns as well
        return vars(self)["columns"]

    @cached_property
    def reduced_masks(self) -> tuple[int, ...]:
        """The distinct masks that contain no other mask, smallest first.

        Under one coverage requirement for every pair, a set that meets a
        mask k times also meets each of its supersets k times.
        """
        kept: list[int] = []
        for m in sorted(set(self.masks), key=lambda m: (m.bit_count(), m)):
            if not any(km & m == km for km in kept):
                kept.append(m)
        return tuple(kept)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(combinations(range(len(self.rows)), 2))

    @cached_property
    def _min_size(self) -> int:
        return min(map(int.bit_count, self.masks))

    def mask(self, u: int, v: int) -> int:
        u, v = min(u, v), max(u, v)
        n = len(self.rows)
        if not 0 <= u < v < n:
            raise KeyError((u, v))
        return self.masks[u * (2 * n - u - 1) // 2 + v - u - 1]

    def get(self, u: int, v: int) -> PointSet:
        return PointSet.from_mask(self.mask(u, v))

    def min_size(self) -> int:
        """The size of the smallest distinguisher set."""
        return self._min_size

    def __len__(self) -> int:
        n = len(self.rows)
        return n * (n - 1) // 2


# bytes.translate table: a zero byte becomes "0", any other byte "1".
_TIE_DIGITS = b"0" + b"1" * 255


def _distinguisher_text(rows) -> bytearray:
    """For each pair (u, v) in lexicographic order, the n-digit binary
    numeral whose digit for point x is 1 exactly when rows[u][x] differs
    from rows[v][x]; point n-1 comes first, so the numeral of a pair is its
    distinguisher mask.  `rows` is any n x n integer matrix, n >= 2.

    Byte-field kernel: each distinct value gets a code of W bytes, W the
    least byte count that holds every code, and row u is n big-endian
    fields, point n-1 first.  For one u, the rows v > u form one big int,
    which is XORed with row u repeated: a field is nonzero exactly where
    the two codes differ.  Folding each field into its low byte takes
    d | d>>8 | ... | d>>8(W-1), every shift of the unfolded d (a running
    fold would pull the next field's byte in at W = 3); keeping every W-th
    byte and translating it to a digit gives the numerals of all pairs
    (u, v) in one pass.
    """
    n = len(rows)
    code = dict.fromkeys(chain.from_iterable(rows))  # the distinct values, first seen first
    width = ((len(code) - 1).bit_length() + 7) // 8 or 1
    for c, value in enumerate(code):
        code[value] = c.to_bytes(width, "big")
    # Joined row by row: bytes.join holds a buffer record per part.
    table = b"".join([b"".join(map(code.__getitem__, reversed(row))) for row in rows])
    del code  # keep only what the loop reads
    whole = int.from_bytes(table, "big")
    step = n * width
    text = bytearray()
    for u in range(n - 1):
        rest = n - 1 - u  # the rows v > u, the low `rest * step` bytes of `whole`
        row_u = int.from_bytes(table[u * step:(u + 1) * step] * rest, "big")
        diff = (whole & ((1 << 8 * rest * step) - 1)) ^ row_u
        folded = diff
        for shift in range(8, 8 * width, 8):
            folded |= diff >> shift
        text += folded.to_bytes(rest * step, "big")[width - 1::width].translate(_TIE_DIGITS)
    return text


@dataclass(frozen=True)
class KGeneratorCertificate:
    """Coverage evidence that a set is (or is not) a k-metric generator."""

    k: int
    set: PointSet
    coverage: Mapping[tuple[int, int], int]
    valid: bool
    witness: tuple[int, int] | None

    def __post_init__(self):
        object.__setattr__(self, "coverage", MappingProxyType(dict(self.coverage)))

    def min_coverage(self) -> int:
        return min(self.coverage.values())


def build_space(labels, dist, meta=None) -> FiniteMetricSpace:
    """Validate and construct a FiniteMetricSpace from raw input.

    Checks every invariant: distinct labels, zero diagonal, positive
    symmetric off-diagonal entries, and the triangle inequality for all
    triples.  Float entries are quantized (recorded in meta).

    Entries whose type is exactly int or str are converted once per
    distinct value within the call; every other entry goes through
    `as_rational` on its own.  The triangle inequality is checked by the
    byte-field kernel `_triangle_scan`, which finds the same first (i, j)
    as a row-major scan of all triples; the error then names the first k
    in fractions.
    """
    labels = tuple(str(lab) for lab in labels)
    n = len(labels)
    if n < 2:
        raise FormatError(f"a metric space needs at least 2 points, got {n}")
    if n == 2:
        warnings.warn("2-point spaces are degenerate for dimension analysis", TwoPointSpaceWarning, stacklevel=2)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(lab)
        seen.add(lab)
    rows = list(dist)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise FormatError(f"distance matrix must be {n}x{n}")
    quantized = False
    # Integer matrices repeat a few ints and a symmetric JSON matrix every
    # string.  No other type is memoised: hashing a Fraction costs more
    # than it saves, True must not hit the entry of 1, and floats set
    # `quantized`.
    memo: dict[int | str, Fraction] = {}
    matrix: list[tuple[Fraction, ...]] = []
    for row in rows:
        cooked = []
        for entry in row:
            kind = type(entry)
            if kind is int or kind is str:
                value = memo.get(entry)
                if value is None:
                    value = memo[entry] = as_rational(entry)[0]
            else:
                value, was_quantized = as_rational(entry)
                quantized = quantized or was_quantized
            cooked.append(value)
        matrix.append(tuple(cooked))
    d = tuple(matrix)
    scale = math.lcm(*{x.denominator for row in d for x in row})
    z = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in d)
    for i in range(n):
        zi = z[i]
        if zi[i] != 0:
            raise FormatError(f"d[{i}][{i}]={format_distance(d[i][i])} must be 0")
        for j in range(i + 1, n):
            if zi[j] != z[j][i]:
                raise AsymmetricDistance(i, j, d[i][j], d[j][i])
            if zi[j] < 0:
                raise NegativeDistance(i, j, d[i][j])
            if zi[j] == 0:
                raise ZeroOffDiagonal(i, j)
    first = _triangle_scan(z)
    if first is not None:
        _raise_triangle(d, *first)
    meta = dict(meta or {})
    if quantized:
        meta.setdefault("quantization_digits", DEFAULT_QUANTIZE_DIGITS)
    return _from_scaled(labels, z, scale, meta)


def _triangle_scan(z) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with z[i][k] > z[i][j] + z[j][k]
    for some k, or None.  `z` is non-negative with a zero diagonal.

    Byte-field kernel: for one i, the n*n cells (j, k) are little-endian
    fields of W bytes in one big int, and a field holds
    2**(8W-1) + z[j][k] + z[i][j] - z[i][k].  W is the least byte count
    with 2**(8W-1) > 2 * max(z), so every field stays in [0, 2**8W): no
    carry or borrow crosses a field, and the top bit of a field is clear
    exactly where the inequality fails.  One
    pass of big-int arithmetic per i tests all n*n cells; the lowest
    cleared top bit is the first j.

    Every field is as wide as the largest entry needs, so one huge entry
    among small ones would make the fields far larger than the matrix.
    If the largest entry z[a][b] has a shorter path z[a][c] + z[c][b], a
    plain row-major scan finds the first pair instead.  Otherwise every c
    holds an entry of at least half the largest, so the fields take at
    most about n/2 times the bytes of the matrix.
    """
    n = len(z)
    row_tops = list(map(max, z))
    top = max(row_tops)
    a = row_tops.index(top)
    b = z[a].index(top)
    if min(map(add, z[a], [row[b] for row in z])) < top:
        return next((i, j) for i, zi in enumerate(z) for j, zj in enumerate(z)
                    if max(map(sub, zi, zj)) > zi[j])
    width = ((2 * top).bit_length() + 8) // 8
    guard = int.from_bytes((bytes(width - 1) + b"\x80") * (n * n), "little")  # each field's top bit
    rows = [[x.to_bytes(width, "little") for x in row] for row in z]
    flat = [b"".join(row) for row in rows]
    plus = int.from_bytes(b"".join(flat), "little") | guard  # z[j][k] + 2**(8W-1)
    for i, row in enumerate(rows):
        col = int.from_bytes(b"".join([cell * n for cell in row]), "little")  # z[i][j]
        rep = int.from_bytes(flat[i] * n, "little")  # z[i][k]
        bad = guard & ~(plus + col - rep)
        if bad:
            return i, ((bad & -bad).bit_length() - 1) // (8 * width * n)
    return None


def _raise_triangle(d, i: int, j: int):
    """Report the first k with d[i][k] > d[i][j] + d[j][k], in exact fractions."""
    di, dj, dij = d[i], d[j], d[i][j]
    for k in range(len(d)):
        if di[k] > dij + dj[k]:
            raise TriangleViolation(i, j, k, di[k], dij + dj[k])
    raise AssertionError(f"no triangle violation at ({i}, {j})")


def _check_pair(space: FiniteMetricSpace, u: int, v: int) -> None:
    n = space.n
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"point index out of range for n={n}: ({u}, {v})")
    if u == v:
        raise SamePoint(u)


def bisector(space: FiniteMetricSpace, u: int, v: int) -> PointSet:
    """Points equidistant from u and v.  Never contains u or v."""
    _check_pair(space, u, v)
    return PointSet.from_mask(((1 << space.n) - 1) ^ space._distinguishers.mask(u, v))


def distinguishers(space: FiniteMetricSpace, u: int, v: int) -> PointSet:
    """Complement of the bisector of (u,v).  Always contains u and v."""
    _check_pair(space, u, v)
    return space._distinguishers.get(u, v)


def all_distinguishers(space: FiniteMetricSpace) -> DistinguisherMap:
    """Distinguisher sets for all n(n-1)/2 pairs, in lexicographic pair order."""
    return space._distinguishers


def is_k_generator(space: FiniteMetricSpace, points: PointSet | Iterable[int], k: int) -> KGeneratorCertificate:
    """Certificate for whether `points` distinguishes every pair at least k times."""
    if k < 1:
        raise NonpositiveParameter("k", k)
    pset = points if isinstance(points, PointSet) else PointSet.of(points)
    mask = pset.to_mask()
    if mask >> space.n:
        raise IndexError(f"point index out of range for n={space.n}: {pset.indices[-1]}")
    dmap = all_distinguishers(space)
    coverage: dict[tuple[int, int], int] = {}
    witness = None
    for pair, pair_mask in zip(dmap.pairs, dmap.masks):
        count = (mask & pair_mask).bit_count()
        coverage[pair] = count
        if count < k and witness is None:
            witness = pair
    return KGeneratorCertificate(k=k, set=pset, coverage=coverage, valid=witness is None, witness=witness)


def max_k(space: FiniteMetricSpace) -> int:
    """Largest k admitting a k-metric generator: the smallest distinguisher set size."""
    return all_distinguishers(space).min_size()


def truncate(space: FiniteMetricSpace, t) -> FiniteMetricSpace:
    """The truncation d^t = min(d, 2t): every distance capped at 2t, the cap
    the join construction puts on its parts.  A cap of c is
    `truncate(space, c / 2)`.

    A cap at or above the diameter changes nothing, and `space` itself is
    returned, with the distinguisher map it may already hold.
    """
    t = Fraction(t)
    if t <= 0:
        raise NonpositiveParameter("t", t)
    cap = 2 * t
    if cap >= space.diameter():
        return space
    scale = math.lcm(space.scale, cap.denominator)
    up, top = scale // space.scale, cap.numerator * (scale // cap.denominator)
    z = tuple(tuple(min(x * up, top) for x in row) for row in space._int_dist)
    return _from_scaled(space.labels, z, scale, space.meta)


def join(a: FiniteMetricSpace, b: FiniteMetricSpace, t) -> FiniteMetricSpace:
    """Disjoint union with within-part distances capped at 2t and cross distance t.

    For t > 0 the result is a metric by construction: a capped distance is
    at most 2t = t + t, and every two-step path between the parts takes one
    cross step of length t.  So it is built directly, without a re-check.
    """
    t = Fraction(t)
    if t <= 0:
        raise NonpositiveParameter("t", t)
    shared = set(a.labels) & set(b.labels)
    if shared:
        raise LabelCollision(shared)
    scale = math.lcm(a.scale, b.scale, t.denominator)
    cross = t.numerator * (scale // t.denominator)
    up_a, up_b, cap = scale // a.scale, scale // b.scale, 2 * cross
    to_b, to_a = (cross,) * b.n, (cross,) * a.n
    z = (tuple(tuple(min(x * up_a, cap) for x in row) + to_b for row in a._int_dist)
         + tuple(to_a + tuple(min(x * up_b, cap) for x in row) for row in b._int_dist))
    return _from_scaled(a.labels + b.labels, z, scale)


def permute_space(space: FiniteMetricSpace, perm: Iterable[int]) -> FiniteMetricSpace:
    """Relabel points by a permutation: new point i is old point perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(space.n)):
        raise FormatError(f"not a permutation of 0..{space.n - 1}: {perm}")
    labels = tuple(space.labels[p] for p in perm)
    z = space._int_dist
    return _from_scaled(labels, tuple(tuple(z[p][q] for q in perm) for p in perm), space.scale, space.meta)


# --- JSON interchange -------------------------------------------------------
#
# {"labels": [...], "distances": [["0","3/2"],["3/2","0"]], "meta": {...}}
#
# Distance entries are strings in lowest-terms rational ("3/2") or decimal
# ("1.5") notation; plain integers are also accepted.  Serialization is
# deterministic: label order is preserved and rationals are emitted in
# lowest terms.

def space_to_json_dict(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "distances": [[str(x) for x in row] for row in space.dist],
        "meta": {key: space.meta[key] for key in sorted(space.meta)},
    }


def space_from_json_dict(data: dict) -> FiniteMetricSpace:
    try:
        labels = data["labels"]
        distances = data["distances"]
    except (TypeError, KeyError) as exc:
        raise FormatError("space JSON needs 'labels' and 'distances'") from exc
    meta = data.get("meta")
    if not isinstance(labels, list):
        raise FormatError("space JSON 'labels' must be a list")
    if not isinstance(distances, list) or not all(isinstance(row, list) for row in distances):
        raise FormatError("space JSON 'distances' must be a list of lists")
    if meta is not None and not isinstance(meta, dict):
        raise FormatError("space JSON 'meta' must be an object")
    return build_space(labels, distances, meta=meta)


def dump_space(space: FiniteMetricSpace) -> str:
    return json.dumps(space_to_json_dict(space), indent=2, sort_keys=True)


def load_space(text: str) -> FiniteMetricSpace:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers over the interpreter's
        # digit limit; RecursionError, nesting deeper than the decoder's stack.
        raise FormatError(f"invalid JSON: {exc}") from exc
    return space_from_json_dict(data)
