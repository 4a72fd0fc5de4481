"""Exception types shared across the toolkit."""

from __future__ import annotations

import math


def _digit_count(x: int) -> int:
    """Decimal digits of |x|, without converting it to str."""
    x = abs(x)
    count = max(1, int((x.bit_length() - 1) * math.log10(2)))  # at most the true count
    while x >= 10 ** count:
        count += 1
    return count


def format_distance(value) -> str:
    """`str(value)`, or a short form naming the size of a fraction with more
    digits than the interpreter converts to str."""
    try:
        return str(value)
    except ValueError:
        size = f"{_digit_count(value.numerator)}-digit numerator"
        if value.denominator != 1:
            size += f" and {_digit_count(value.denominator)}-digit denominator"
        return f"<{'negative ' if value < 0 else ''}fraction with {size}>"


class KMetricError(Exception):
    """Base class for all toolkit errors."""


class FormatError(KMetricError):
    """Malformed input: bad matrix shape, unparsable file, too few points."""


class DuplicateLabel(KMetricError):
    def __init__(self, label: str):
        super().__init__(f"duplicate label {label!r}")
        self.label = label


class AsymmetricDistance(KMetricError):
    def __init__(self, i: int, j: int, dij, dji):
        super().__init__(f"d[{i}][{j}]={format_distance(dij)} != d[{j}][{i}]={format_distance(dji)}")
        self.indices = (i, j)


class NegativeDistance(KMetricError):
    def __init__(self, i: int, j: int, value):
        super().__init__(f"d[{i}][{j}]={format_distance(value)} is negative")
        self.indices = (i, j)


class ZeroOffDiagonal(KMetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"d[{i}][{j}]=0 but points {i} and {j} are distinct")
        self.indices = (i, j)


class TriangleViolation(KMetricError):
    def __init__(self, i: int, j: int, k: int, direct, detour):
        super().__init__(
            f"d[{i}][{k}]={format_distance(direct)} > d[{i}][{j}]+d[{j}][{k}]={format_distance(detour)}")
        self.indices = (i, j, k)


class SamePoint(KMetricError):
    def __init__(self, u: int):
        super().__init__(f"points must be distinct, got u=v={u}")
        self.index = u


class NonpositiveParameter(KMetricError):
    def __init__(self, name: str, value):
        super().__init__(f"{name}={format_distance(value)} must be positive")
        self.name = name
        self.value = value


class LabelCollision(KMetricError):
    def __init__(self, labels):
        shown = ", ".join(sorted(labels)[:5])
        super().__init__(f"label sets are not disjoint (shared: {shown})")
        self.labels = tuple(sorted(labels))


class DisconnectedGraph(KMetricError):
    def __init__(self, u: str, v: str):
        super().__init__(f"graph is disconnected: no path between {u!r} and {v!r}")
        self.representatives = (u, v)


class BadFamilyParams(KMetricError):
    """Family parameters outside the documented arity or range."""


class InstanceTooLarge(KMetricError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"instance has {n} points, brute-force cap is {cap}")
        self.n = n
        self.cap = cap
