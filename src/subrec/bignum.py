"""Helpers for integers far beyond float range."""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal


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
    """Decimal string of an integer of any size, not bound by the
    interpreter's int-string limit.  Decimal(x) is exact but quadratic in
    the digits (Python 3.10 and 3.11), so past about 4,000 bits x is split
    at 2^w, w half its bits, and the halves' Decimals are joined in exact
    decimal arithmetic, whose multiplication is subquadratic; each 2^w is
    built once per call."""
    if x < 0:
        return "-" + big_str(-x)
    exact, powers = Context(prec=MAX_PREC, Emax=MAX_EMAX), {}

    def convert(x: int, bits: int) -> Decimal:
        if bits <= 4000:
            return Decimal(x)
        w = bits // 2
        if w not in powers:
            powers[w] = exact.power(2, w)
        return exact.fma(convert(x >> w, bits - w), powers[w], convert(x & ((1 << w) - 1), w))

    return str(convert(x, x.bit_length()))
