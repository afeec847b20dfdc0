"""Recognizability machinery: injectivity exponent, interpretations and
synchronizing delay, the window-based verifier, and the bound calculators.

Two kinds of answers come out of this module and they are never conflated:
counterexamples found by :func:`verify_constant` are globally valid facts
(cut status and preimage letters are ground truth from the window tower),
while an "ok" verdict is relative to the scanned window: the pair
(L, checked) from :func:`minimal_constant_empirical` is a certified lower
bound L, and a window-relative minimum only when L <= checked.  Similarly
the bound calculators label every quantity as exact, certified, or
heuristic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterator, Literal, NamedTuple

from .bignum import big_str, digits10, int_log10, log10_line
from .errors import CapExceeded, InputError
from .fixedpoint import Window, cutting_points
from .language import (
    CLOSURE_MAX_LETTERS,
    DEFAULT_APERIODICITY_N,
    RECURRENCE_MAX_LEN,
    aperiodicity_check,
    base_length,
    language_of,
    power_free_index,
    recurrence_constant_empirical,
    require_aperiodic,
)
from .morphism import (
    Morphism,
    Word,
    extreme_lengths,
    length_rows,
    per_morphism,
    primitivity,
    require_letters,
    require_primitive,
)

DEFAULT_EXACT_CAP = 10**6  # decimal digits; past it a value is carried in logarithmic form


# ---------------------------------------------------------------------------
# Injectivity exponent (letter-level kernel chain)


def _images_equal(m: Morphism, labels: list, lengths: list, a: int, b: int) -> bool:
    """sigma^n(a) == sigma^n(b), n = len(labels), labels[p][c] the class of
    letter c at level p < n and lengths[p][c] = |sigma^p(c)|.  Two stacks
    hold the unmatched blocks sigma^p(c) of each side, aligned at their
    tops.  Tops of one level p and one length are equal iff their level-p
    classes are; otherwise the longer top, or on a tie the higher, is
    replaced by its blocks one level down.  Past CLOSURE_MAX_LETTERS
    expansions the walk is refused with CapExceeded."""
    n = len(labels)
    if lengths[n][a] != lengths[n][b]:
        return False
    left, right = ([(ord(c), n - 1) for c in reversed(m.images[x])] for x in (a, b))
    expanded = 0
    while left:
        (c, p), (d, q) = left[-1], right[-1]
        if p == q and lengths[p][c] == lengths[p][d]:
            if labels[p][c] != labels[p][d]:
                return False
            del left[-1], right[-1]
            continue
        stack, c, p = (left, c, p) if (lengths[p][c], p) > (lengths[q][d], q) else (right, d, q)
        stack[-1:] = [(ord(x), p - 1) for x in reversed(m.images[c])]
        expanded += 1
        if expanded > CLOSURE_MAX_LETTERS:
            raise CapExceeded(f"injectivity walk expanded more than {CLOSURE_MAX_LETTERS} blocks")
    return True


def _kernel_chain(m: Morphism, top: int) -> list[list[int]]:
    """labels[n][i], n = 0..top: the least letter with the sigma^n-image of i."""
    lengths = list(islice(length_rows(m), top + 1))
    labels = [list(range(m.size))]
    for _ in range(top):
        label: list[int] = []
        for i in range(m.size):
            equal = (r for r in dict.fromkeys(label) if _images_equal(m, labels, lengths, r, i))
            label.append(next(equal, i))
        labels.append(label)
    return labels


def _kernel_partition(m: Morphism, n: int) -> tuple[tuple[str, ...], ...]:
    """The partition of the alphabet by sigma^n-image equality."""
    label = _kernel_chain(m, n)[n]
    return tuple(tuple(chr(i) for i, s in enumerate(label) if s == r) for r in dict.fromkeys(label))


@per_morphism
def injectivity_exponent(m: Morphism) -> int:
    """The injectivity exponent d, read off the kernel chain of sigma^n on
    letters (_kernel_chain), which builds no image.  The chain coarsens
    upward and is constant from level #A - 1 on, so d is read off by
    comparing each level to the stable partition.  This letter-level d is
    what the two-step bound argument consumes; forcing d = #A (safe_d)
    covers the statement quantified over words."""
    levels = _kernel_chain(m, m.size - 1)
    return next(n + 1 for n, level in enumerate(levels) if level == levels[-1])


# ---------------------------------------------------------------------------
# Interpretations, synchronizing points, synchronizing delay


class Interpretation(NamedTuple):
    """A triple (prefix, core, suffix) with sigma(core) = prefix.u.suffix,
    tight on both ends, plus the image-boundary positions inside u.

    cuts holds every k in [0, |u|] where a boundary of sigma(core) lands;
    k = 0 appears exactly when prefix is empty, k = |u| exactly when the
    suffix is empty.  Synchronization only counts boundaries with at least
    one whole image before them, i.e. cuts >= 1.
    """

    prefix: Word
    core: Word
    suffix: Word
    cuts: tuple[int, ...]


class SyncResult(NamedTuple):
    """Outcome of the delay search.

    delay is the first length at which every factor has a synchronizing
    point (None if not reached by the search's n_max, or when the
    aperiodicity screen finds a period); per_length records the
    unsynchronized words for each tested length.
    """

    delay: int | None
    per_length: tuple[tuple[int, tuple[Word, ...]], ...]


def _first_images(m: Morphism, n: int) -> Iterator[tuple[Word, Word, list[int]]]:
    """(w, sigma(w), its image boundaries 0, ..., |sigma(w)|) for each w in
    L_t, t = base_length(n, <sigma>): their windows at offsets
    o < |sigma(w[0])| are exactly L_n (see FactorLanguage)."""
    for w in language_of(m).slice(base_length(n, m.narrowest)):
        yield w, m.apply(w), list(accumulate((len(m.images[ord(c)]) for c in w), initial=0))


def interpretations(m: Morphism, u: Word) -> tuple[Interpretation, ...]:
    """All tight interpretations of u, read off the first-image pass.

    At each offset o < |sigma(w[0])| where u occurs in sigma(w), the core
    is w[:j], j the first boundary at or past o + |u|, and the cuts are the
    boundaries in [o, o + |u|], minus o.  No core is missed: tightness
    gives |sigma(v[:-1])| < o + |u| <= |sigma(v[0])| + |u| - 1, so |v| <= t.
    The pass also decides membership: every factor occurs there (see
    FactorLanguage), so u is a factor iff some interpretation is found.
    """
    if not u:
        raise InputError("u must be non-empty")
    require_letters(m, set(u))
    found: dict[tuple[Word, int], Interpretation] = {}
    for w, image, bounds in _first_images(m, len(u)):
        o = image.find(u)
        while 0 <= o < bounds[1]:
            end = o + len(u)
            j = bisect_left(bounds, end)
            cuts = tuple(b - o for b in bounds[: j + 1] if o <= b <= end)
            found[w[:j], o] = Interpretation(image[:o], w[:j], image[end : bounds[j]], cuts)
            o = image.find(u, o + 1)
    if not found:
        raise InputError(f"{m.decode(u)!r} is not a factor")
    return tuple(found[key] for key in sorted(found))


def synchronizing_point(m: Morphism, u: Word) -> tuple[int, ...]:
    """Positions k in 1..|u| where every interpretation of u places an
    image boundary, in ascending order (k = |u|, the suffix aligned with a
    full image, is allowed): the cuts k >= 1 common to all
    :func:`interpretations` of u, none when u is not synchronized."""
    cuts = [{k for k in interp.cuts if k > 0} for interp in interpretations(m, u)]
    return tuple(sorted(set.intersection(*cuts)))


def synchronizing_delay(m: Morphism, n_max: int) -> SyncResult:
    """Smallest length C <= n_max at which every factor is synchronized.

    A word containing a synchronized factor is itself synchronized (its
    interpretations induce interpretations of the factor and inherit the
    common boundary), so the first all-synchronized length is the delay.
    Periodic fixed points never have one; they are screened out first and
    reported as delay None.  Each length is one first-image pass: each
    window of sigma(w) at an offset o < |sigma(w[0])| is one interpretation
    of its factor, and the boundaries past o are intersected per factor.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if aperiodicity_check(m) is not None:
        return SyncResult(None, ())
    per_length: list[tuple[int, tuple[Word, ...]]] = []
    for n in range(1, n_max + 1):
        common: dict[Word, set[int]] = {}
        for _, image, bounds in _first_images(m, n):
            for o in range(bounds[1]):
                cuts = {b - o for b in bounds[1 : bisect_right(bounds, o + n)]}
                common.setdefault(image[o : o + n], cuts).intersection_update(cuts)
        bad = tuple(sorted(u for u, cuts in common.items() if not cuts))
        per_length.append((n, bad))
        if not bad:
            return SyncResult(n, tuple(per_length))
    return SyncResult(None, tuple(per_length))


# ---------------------------------------------------------------------------
# Window-based verifier


class Counterexample(NamedTuple):
    """A pair refuting constant L at the given level: the context around
    position m equals the context around the cut at cut_position (whose
    level-p preimage index is preimage_index), yet m is not a cut with the
    same preimage letter."""

    preimage_index: int
    cut_position: int
    position: int
    kind: Literal["not_a_cut", "preimage_mismatch"]


class VerifyResult(NamedTuple):
    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def verify_constant(window: Window, L: int, p: int) -> VerifyResult:
    """Check the recognizability property for constant L at level p: a
    position sharing its (2L+1)-letter context with a cut must be a cut
    carrying the same preimage letter.  Counterexamples are globally valid;
    "ok" only says the window exhibited no conflict.

    Cost: one pass interns each context as its first-occurrence rank, one
    loop over the cuts marks each with its preimage letter, and one set-size
    test says "ok" when no context carries two marks.  Otherwise the nearest
    cuts are tabled per context and letter (smallest |i|, then position),
    and a scan runs outward from the junction to the first |m| with a
    conflict.  Ties: smallest |m|, then |i|, then the context met first in
    the window, then a non-cut before a cut, then the position m.
    """
    if L < 0:
        raise InputError("L must be >= 0")
    cut_info = cutting_points(window, p)
    if L > _largest_constant(window, p):
        raise InputError(f"window [{window.lo},{window.hi}) too small for L={L} at level {p}")
    content, start = window.content, window.lo + L
    rank, marks, unrefuted = _marked_contexts(content, cut_info, start, L)
    if unrefuted:
        return VerifyResult(None)
    # nearest[rank][letter] = (|i|, cut, i)
    nearest: dict[int, dict[str, tuple[int, int, int]]] = {}
    for pos, (i, letter) in cut_info.items():
        if 0 <= pos - start < len(rank):
            table, cut = nearest.setdefault(rank[pos - start], {}), (abs(i), pos, i)
            table[letter] = min(table.get(letter, cut), cut)
    # a context carries two marks, so the scan meets a pair before r = len(content)
    for r in range(len(content)):
        found = []
        for k in {-r - start, r - start}:
            if 0 <= k < len(rank):
                rivals = [c for letter, c in nearest.get(rank[k], {}).items() if letter != marks[k]]
                if rivals:
                    cut = min(rivals)
                    found.append((cut[0], rank[k], marks[k] is not None, k, cut))
        if found:
            *_, k, (_, c_pos, i) = min(found)
            kind = "not_a_cut" if marks[k] is None else "preimage_mismatch"
            return VerifyResult(Counterexample(i, c_pos, start + k, kind))


def _marked_contexts(
    content: Word, cut_info: dict[int, tuple[int, str]], start: int, L: int
) -> tuple[list[int], list[str | None], bool]:
    """(rank, marks, unrefuted) for the window positions start + k:
    rank[k] is the first-occurrence rank of the (2L+1)-letter context
    there, marks[k] the preimage letter of a cut there (None elsewhere),
    and unrefuted says that no context carries two marks."""
    ranks: dict[Word, int] = {}
    width = 2 * L + 1
    rank = [ranks.setdefault(content[k : k + width], len(ranks)) for k in range(len(content) - 2 * L)]
    marks: list[str | None] = [None] * len(rank)
    for pos, (_, letter) in cut_info.items():
        if 0 <= pos - start < len(rank):
            marks[pos - start] = letter
    return rank, marks, len(set(zip(rank, marks))) == len(ranks)


def _largest_constant(window: Window, p: int) -> int:
    """Largest L whose span of centres still covers two level-p images."""
    widest_p = extreme_lengths(window.morphism, p)[0]
    return (window.hi - window.lo - 1 - 2 * widest_p) // 2


def minimal_constant_empirical(window: Window, p: int, L_max: int) -> tuple[int, int]:
    """(L, checked): an ascending scan of verify_constant's verdict over
    L = 0..checked, checked being L_max cut to the largest L the window
    can check (L = 0 always runs).  L is the least L the window does not
    refute, checked + 1 when it refutes them all.  The cuts and the
    content are read once per scan, and each L is decided by the set-size
    test alone: no refutation is built.

    Every refuted L is a global fact, so L is a certified lower bound.
    Window-relative "ok" is monotone in L (a longer context only refines
    the partition), so when L <= checked it is also the heuristic minimum."""
    if L_max < 0:
        raise InputError("L_max must be >= 0")
    checked = max(0, min(L_max, _largest_constant(window, p)))
    cut_info, content = cutting_points(window, p), window.content
    for L in range(checked + 1):
        if _marked_contexts(content, cut_info, window.lo + L, L)[2]:
            return L, checked
    return checked + 1, checked


# ---------------------------------------------------------------------------
# Certified constants and bounds


class BigValue(NamedTuple):
    """An exact big natural, or its symbolic/logarithmic stand-in once the
    exact form would blow past the digit cap; log10 is a Decimal once it
    passes float range."""

    expr: str
    log10: float | Decimal
    exact: int | None = None

    @classmethod
    def from_int(cls, x: int, expr: str) -> "BigValue":
        return cls(expr, int_log10(x) if x > 0 else 0.0, x)

    @property
    def digits(self) -> int | None:
        return None if self.exact is None else digits10(self.exact)


class BoundBreakdown(NamedTuple):
    N: int
    k: int
    K: Fraction | int
    d: int
    R: int
    Q: int
    M: BigValue
    bound: BigValue
    warnings: tuple[str, ...]


@per_morphism
def certified_constants(m: Morphism) -> tuple[int, int]:
    """(N_cert, K_cert), exact big-integer certificates from image lengths
    alone.  N_cert = |sigma^((#A)^2)| bounds |sigma^n|/<sigma^n> for every
    n; rret = 2 |sigma^(2 (#A)^2)| bounds return words to length-2
    factors, and K_cert = rret * N_cert * |sigma| bounds linear recurrence,
    making the fixed point (K_cert + 1)-power-free."""
    require_primitive(m)
    a2 = m.size * m.size
    n_cert, widest_2a2 = (max(row) for row in islice(length_rows(m), a2, 2 * a2 + 1, a2))
    return n_cert, 2 * widest_2a2 * n_cert * m.widest


@per_morphism
def exact_ratio_constant(m: Morphism) -> tuple[int, tuple[str, ...]]:
    """Smallest N certified to satisfy |sigma^n| <= N <sigma^n> for all n.

    Exact ratios are sampled for n <= 4 (#A)^2; the tail is certified by
    induction with a positivity stride t (M^t > 0): the one-step estimate
    r(n) <= |sigma^t| r(n-t) / (r(n-t) + <sigma^t> - 1) keeps any bound
    B >= |sigma^t| - <sigma^t> + 1 invariant.  The result is the sampled
    maximum, escalated to the best stride bound when necessary."""
    require_primitive(m)
    span = 4 * m.size * m.size
    extremes = [(max(row), min(row)) for row in islice(length_rows(m), 1, span + 1)]
    sampled = max(Fraction(widest, narrowest) for widest, narrowest in extremes)
    stride_bounds = [
        widest - narrowest + 1 for widest, narrowest in extremes[primitivity(m) - 1 :]
    ]
    sampled_int = -(-sampled.numerator // sampled.denominator)
    n_exact = max(sampled_int, min(stride_bounds))
    warnings = ()
    if n_exact > sampled_int:
        warnings = (
            f"N escalated from sampled {sampled_int} to {n_exact} by the tail certificate",
        )
    return n_exact, warnings


def _log10_scaled_power(m: Morphism, r: int, n: int) -> float | Decimal:
    """Approximate log10 (r |sigma^n|) for n past the exact cap: linear
    extrapolation of log10 |sigma^n| from two exact sample points, which
    cancels the constant in front of the dominant growth term."""
    base = 1024
    l1 = int_log10(extreme_lengths(m, base)[0])
    l2 = int_log10(extreme_lengths(m, 2 * base)[0])
    return log10_line(l1, n - base, (l2 - l1) / base, int_log10(r))


def recognizability_bound(
    m: Morphism,
    mode: Literal["empirical_exact", "certified"],
    safe_d: bool = False,
) -> BoundBreakdown:
    """Evaluate the recognizability bound R |sigma^(dQ)| + |sigma^d| with

        R = ceil(N^2 (k+1) + 2N),
        Q = 1 + p(R) * sum of p(i) for ceil(R/N) <= i <= RN + 2.

    In empirical_exact mode k, N and every p(i) are exact values computed
    by the language/morphism modules; in certified mode they are the
    alphabet-and-width certificates, with p(i) replaced by its certified
    ceiling K*i.  Values whose exact form would exceed the digit cap are
    returned in logarithmic form, labeled approximate."""
    require_aperiodic(m)
    warnings = [f"aperiodicity screened to n={DEFAULT_APERIODICITY_N}, not proven"]
    d = m.size if safe_d else injectivity_exponent(m)

    if mode == "empirical_exact":
        k = power_free_index(m)
        n_value, n_warnings = exact_ratio_constant(m)
        warnings.extend(n_warnings)
        k_ratio: Fraction | int = recurrence_constant_empirical(m)
        warnings.append(f"K is an empirical lower bound (scan up to length {RECURRENCE_MAX_LEN})")
    elif mode == "certified":
        n_value, k_ratio = certified_constants(m)
        k = k_ratio + 1
    else:
        raise InputError(f"unknown mode {mode!r}")

    r_value = n_value * n_value * (k + 1) + 2 * n_value
    i_lo = -((-r_value) // n_value)
    i_hi = r_value * n_value + 2
    if mode == "empirical_exact":
        counts = language_of(m).ensure(max(r_value, i_hi))
        q_value = 1 + counts[r_value] * sum(counts[i_lo : i_hi + 1])
    else:
        total = (i_hi * (i_hi + 1) - (i_lo - 1) * i_lo) // 2
        q_value = 1 + (k_ratio * r_value) * (k_ratio * total)

    dq = d * q_value
    est_digits = _log10_scaled_power(m, r_value, dq) + 1
    m_expr = f"{big_str(r_value)}*|sigma^{big_str(dq)}|"
    bound_expr = f"{m_expr} + |sigma^{d}|"
    if est_digits <= DEFAULT_EXACT_CAP:
        m_value = BigValue.from_int(r_value * extreme_lengths(m, dq)[0], m_expr)
        bound = BigValue.from_int(m_value.exact + extreme_lengths(m, d)[0], bound_expr)
    else:
        m_value, bound = BigValue(m_expr, est_digits - 1), BigValue(bound_expr, est_digits - 1)
        warnings.append(
            "bound exceeds the exact digit cap; logarithmic form uses measured growth"
        )

    return BoundBreakdown(n_value, k, k_ratio, d, r_value, q_value, m_value, bound, tuple(warnings))


def closed_form_bound(m: Morphism, injective_hint: bool = False) -> tuple[int, BigValue]:
    """(exponent, value) of the alphabet-and-width-only bound
    2|sigma|^exponent + |sigma|^(#A), exponent = 6(#A)^2 + 6(#A)|sigma|^(28(#A)^2);
    with the injectivity hint the inner factor #A and the addend power drop
    to 1.  The exponent is always exact, the value materialized only under
    the digit cap."""
    require_primitive(m)
    base = m.widest
    size = m.size
    tower = base ** (28 * size * size)
    factor = 6 if injective_hint else 6 * size
    exponent = 6 * size * size + factor * tower
    addend_power = 1 if injective_hint else size
    expr = f"2*{base}^{exponent if digits10(exponent) <= 40 else '<exponent>'} + {base}^{addend_power}"
    log10_value = log10_line(int_log10(2), exponent, int_log10(base))
    if log10_value + 1 <= DEFAULT_EXACT_CAP:
        return exponent, BigValue.from_int(2 * base**exponent + base**addend_power, expr)
    return exponent, BigValue(expr, log10_value)


def _least_divisor(k: int) -> int:
    d = 2
    while d * d <= k:
        if k % d == 0:
            return d
        d += 1
    return k


def klouda_medkova_bound(k: int) -> int:
    """Synchronizing-delay bound for k-uniform morphisms on two letters:
    8 when k = 2; k^2 + 3k - 4 when k is an odd prime;
    k^2 (k/d - 1) + 5k - 4 otherwise, d the least divisor of k above 1."""
    if k < 2:
        raise InputError("k must be >= 2")
    d = _least_divisor(k)
    if k == 2:
        return 8
    if k % 2 == 1 and d == k:
        return k * k + 3 * k - 4
    return k * k * (k // d - 1) + 5 * k - 4
