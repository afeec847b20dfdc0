"""Helpers for integers far beyond float range."""

from __future__ import annotations

import math
from decimal import Decimal


def int_log10(x: int) -> float:
    """log10 of a positive integer of any size, good to ~15 digits."""
    if x <= 0:
        raise ValueError("log10 of non-positive integer")
    if x.bit_length() <= 900:
        return math.log10(x)
    shift = x.bit_length() - 53
    return math.log10(x >> shift) + shift * math.log10(2)


def log10_line(start: float, steps: int, rate: float, end: float = 0.0) -> float | Decimal:
    """start + steps * rate + end, for the log10 of a number too large to
    build: a float while that is finite, past float range a Decimal (28
    significant digits) from the exact steps."""
    try:
        value = start + float(steps) * rate + end
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    return Decimal(start) + steps * Decimal(rate) + Decimal(end)


def digits10(x: int) -> int:
    """Decimal digit count of a non-negative integer (str-limit safe)."""
    if x < 0:
        raise ValueError("negative")
    if x < 10:
        return 1
    approx = int(int_log10(x))
    # settle the boundary exactly
    for d in (approx, approx + 1, approx + 2):
        if x < 10**d:
            return d
    raise AssertionError("digit estimate off by more than 2")


def big_str(x: int) -> str:
    """Decimal string of an integer of any size: Decimal(x) is exact and,
    unlike str(x), not bound by the interpreter's int-string limit."""
    return str(Decimal(x))
