import copy
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from subrec import (
    aperiodicity_check,
    complexity,
    factor_language,
    fixed_point_prefix,
    language_of,
    power_free_index,
    recurrence_constant_empirical,
)
from subrec import certified_constants, language, zoo
from subrec.errors import CapExceeded, InputError, NotAperiodicError, SubrecError
from subrec.language import (
    BLOCK_SCAN_PERIOD,
    FactorLanguage,
    _common_prefix,
    _longest_return,
    _max_power_exponent,
    _prefix_counts,
)
from subrec.morphism import parse_morphism
from subrec.recognizability import recognizability_bound

from oracles import (
    FIB_RULES,
    TM_RULES,
    TRIB_RULES,
    closure_reference,
    distinct_factors,
    expand,
    max_power_exponent_brute,
    max_power_exponent_reference,
    prefix,
    random_primitive_rules,
    recurrence_ratio_reference,
    return_words_scan,
)

ZOO = [zoo.FIBONACCI, zoo.THUE_MORSE, zoo.TRIBONACCI, zoo.COLLAPSING]
RULED = [
    (zoo.FIBONACCI, FIB_RULES),
    (zoo.THUE_MORSE, TM_RULES),
    (zoo.TRIBONACCI, TRIB_RULES),
]


def decoded(m, words):
    return sorted(m.decode(w) for w in words)


def parsed(rules):
    return parse_morphism("\n".join(f"{a} -> {' '.join(image)}" for a, image in rules.items()))


class TestFactorLanguage:
    def test_fib_small(self, fib):
        assert decoded(fib, factor_language(fib, 1)) == ["a", "b"]
        assert decoded(fib, factor_language(fib, 2)) == ["aa", "ab", "ba"]

    def test_tm_two(self, tm):
        assert decoded(tm, factor_language(tm, 2)) == ["aa", "ab", "ba", "bb"]

    def test_requires_primitive(self):
        m = parse_morphism("a -> a b\nb -> b")
        with pytest.raises(InputError, match="the morphism is not primitive"):
            factor_language(m, 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_window_oracle_equivalence(self, n):
        for m, rules in RULED:
            window = prefix(rules, 10_000)
            assert decoded(m, factor_language(m, n)) == sorted(
                distinct_factors(window, n)
            )

    def test_closure_matches_reference(self):
        """The first-image frontier closure gives the full-window closure's
        slice, and the one-pass counts give the sizes of its prefix sets,
        both after the first ensure and after a longer one."""
        drawn = random_primitive_rules(random.Random(8), 60, (1, 5), (1, 4))
        assert any(min(map(len, rules.values())) == 1 for rules in drawn)  # <sigma> = 1
        for rules in drawn:
            m = parsed(rules)
            for c in (1, 2, 5, 17, 40):
                expected = sorted(closure_reference(rules, c))
                lang = FactorLanguage(m)
                for closed in (c, 2 * c + 3):
                    counts = lang.ensure(closed)
                    words = lang.slice(c)
                    assert decoded(m, words) == expected, (rules, c)
                    assert len(counts) == closed + 1
                    for k in range(c + 1):
                        assert counts[k] == len({w[:k] for w in words})

    def test_streamed_counts_match_closure(self, monkeypatch):
        """Past STREAM_BASE, ensure counts p(k) from sigma^j-windows of the
        base slice, one prefix bucket at a time, and stores no slice.  The
        counts equal those of the full-window reference and of the
        fixpoint closure, and slices on both sides of the base stay exact."""
        drawn = random_primitive_rules(random.Random(16), 12, (2, 4), (1, 3))
        drawn.append({"a": "a"})  # the one-letter identity: closed, never streamed
        cases = [(rules, parsed(rules)) for rules in drawn]
        assert any(m.narrowest == 1 < m.widest for _, m in cases)  # <sigma> = 1
        assert any(aperiodicity_check(m) is not None for _, m in cases[:-1])  # periodic
        for rules, m in cases:
            reference = [m.encode(w) for w in closure_reference(rules, 150)]
            counts = [len({w[:k] for w in reference}) for k in range(151)]
            assert FactorLanguage(m).ensure(150) == counts
            for base, buckets in ((8, 2), (8, 64), (12, 2), (12, 64)):
                monkeypatch.setattr(language, "STREAM_BASE", base)
                monkeypatch.setattr(language, "STREAM_BUCKETS", buckets)
                for n in (13, 40, 150):
                    lang = FactorLanguage(m)
                    assert lang.ensure(n) == counts[: n + 1], (rules, base, buckets, n)
                    assert (n in lang._slices) == (m.widest == 1)
                    for k in (base - 1, base, base + 1, n):
                        assert lang.slice(k) == {w[:k] for w in reference}
                        assert lang.ensure(k)[k] == counts[k]

    def test_streamed_counts_from_every_power(self, monkeypatch):
        """Every candidate sigma^j gives the counts of the full-window
        reference, with j pinned in turn.  Its predicted p(t) is the size
        of the reference slice L_t, and its window count W the sum of
        |sigma^j(v[0])| over it, one window per offset of each first
        image, which the pass reads."""
        drawn = random_primitive_rules(random.Random(40), 12, (2, 4), (1, 4))
        cases = [(rules, parsed(rules)) for rules in drawn]
        assert any(m.narrowest == 1 < m.widest for _, m in cases)  # <sigma> = 1
        assert any(m.widest > 1 and aperiodicity_check(m) is not None for _, m in cases)
        assert any(1 < m.narrowest < m.widest for _, m in cases)  # mixed image lengths
        monkeypatch.setattr(language, "STREAM_BASE", 12)
        for rules, m in cases:
            reference = [m.encode(w) for w in closure_reference(rules, 100)]
            counts = [len({w[:k] for w in reference}) for k in range(101)]
            for n in (40, 100):
                candidates = list(FactorLanguage(m)._stream_candidates(n))
                assert candidates[-1][1] == 2
                assert FactorLanguage(m)._stream_power(n) in [j for j, *_ in candidates]
                for j, t, words, windows in candidates:
                    base = closure_reference(rules, t)
                    lead = {a: len(expand(rules, a, j)) for a in rules}
                    assert (words, windows) == (len(base), sum(lead[v[0]] for v in base))
                    with monkeypatch.context() as pinned:
                        pinned.setattr(FactorLanguage, "_stream_power", lambda self, n, j=j: j)
                        for buckets in (2, 512):
                            pinned.setattr(language, "STREAM_BUCKETS", buckets)
                            assert FactorLanguage(m).ensure(n) == counts[: n + 1], (rules, n, j)

    def test_streamed_count_memory(self):
        """A streamed count holds one bucket of length-n words at a time:
        L_2000 of f -> uu, p -> fux, u -> ux, x -> xp is 11,746 words,
        23 MB stored, and the count peaks near 2.3 MB traced, its base
        slice closed beforehand.  The bound sits below the 3.2 MB that a
        stream of set-deduplicated buckets peaks at."""
        m = parse_morphism("f -> u u\np -> f u x\nu -> u x\nx -> x p")
        lang = FactorLanguage(m)
        lang.ensure(language.STREAM_BASE)
        tracemalloc.start()
        try:
            assert lang.ensure(2000)[2000] == 11_746
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_streamed_count_memory_fewest_bytes(self):
        """The count streams from the sigma^j predicted to hold the fewest
        bytes: L_4000 of the same morphism from sigma^8 (t = 11) peaks near
        1.7 MB traced, its base slice closed beforehand.  sigma^5, the
        least j with t <= STREAM_BASE (t = 101), peaks at 3.4 MB with 512
        buckets and at 5.4 MB with 64."""
        m = parse_morphism("f -> u u\np -> f u x\nu -> u x\nx -> x p")
        lang = FactorLanguage(m)
        lang.ensure(language.STREAM_BASE)
        tracemalloc.start()
        try:
            assert lang.ensure(4000)[4000] == 23_449
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_500_000

    def test_membership_checks_letters(self):
        """A character past the alphabet is refused before any slice is
        closed, not answered False."""
        lang = FactorLanguage(zoo.FIBONACCI)
        assert "\x00\x01" in lang and "\x01\x01" not in lang
        for word in ("z", "\x00" * 2000 + "\x02"):
            with pytest.raises(InputError, match="is not a letter index"):
                word in lang
        assert max(lang._slices) == 2

    def test_periodic_slice_priced(self, monkeypatch):
        """A periodic slice is priced at P n letters, P the period the
        screen finds: L_600 of (ab)^inf holds 1,200."""
        monkeypatch.setattr(language, "CLOSURE_MAX_LETTERS", 1199)
        with pytest.raises(CapExceeded, match="holds at least 1200 letters"):
            FactorLanguage(zoo.PERIODIC).slice(600)
        monkeypatch.setattr(language, "CLOSURE_MAX_LETTERS", 1200)
        assert len(FactorLanguage(zoo.PERIODIC).slice(600)) == 2

    def test_slice_counts_nothing(self):
        """slice builds words and ensure counts them: a slice alone leaves
        the counts at p(0)."""
        lang = FactorLanguage(zoo.FIBONACCI)
        assert len(lang.slice(300)) == 301
        assert len(lang._counts) == 1

    def test_extension_closure(self):
        for m in ZOO:
            for n in range(1, 13):
                here = factor_language(m, n)
                above = factor_language(m, n + 1)
                rights = {w[:-1] for w in above}
                lefts = {w[1:] for w in above}
                assert here <= rights
                assert here <= lefts


class TestComplexity:
    def test_values(self, fib, tm):
        assert complexity(fib, 3) == 4
        assert complexity(tm, 3) == 6
        assert complexity(fib, 0) == 1

    def test_every_letter_occurs(self):
        for m in ZOO:
            assert complexity(m, 1) == m.size

    def test_monotone_and_bounded_growth(self):
        for m in ZOO:
            prev = complexity(m, 1)
            for n in range(2, 20):
                current = complexity(m, n)
                assert current >= prev
                assert current <= prev * m.size
                prev = current

    def test_roadmap5_streamed(self):
        """a->ee; b->ce; c->eae; d->dc; e->bd: its empirical bound reads
        p(i) up to c = R N + 2 = 3080 from one streamed count."""
        m = parse_morphism("a -> e e\nb -> c e\nc -> e a e\nd -> d c\ne -> b d")
        b = recognizability_bound(m, "empirical_exact")
        assert (b.R * b.N + 2, b.Q) == (3080, 274525729206)
        counts = language_of(m).ensure(3080)
        assert (counts[3080], sum(counts)) == (39_954, 61_769_249)

    def test_certified_k_dominates(self):
        # exact complexity sits below the certified linear bound
        for m in ZOO:
            k_cert = certified_constants(m)[1]
            for n in range(1, 31):
                assert complexity(m, n) <= k_cert * n


class TestReturnWords:
    """The longest return word the K_emp scan finds for one factor u."""

    def test_fib_a(self, fib):
        # return words to a are {a, ab}
        assert _longest_return(fib, fib.encode("a")) == 2

    def test_fib_ab(self, fib):
        # return words to ab are {ab, aba}
        assert _longest_return(fib, fib.encode("ab")) == 3

    def test_tm_ab(self, tm):
        # gaps between "ab" occurrences in abbabaab... are 3,3,4,2
        assert _longest_return(tm, tm.encode("ab")) == 4

    def test_against_scan_oracle(self):
        for m, rules in RULED:
            window = prefix(rules, 20_000)
            for u in ("a", "ab"):
                want = max(map(len, return_words_scan(window[:10_000], u)))
                assert _longest_return(m, m.encode(u)) == want

    def test_window_cap(self, fib, monkeypatch):
        monkeypatch.setattr(language, "RETURN_WINDOW_CAP", 32)
        with pytest.raises(CapExceeded, match="return-word scan needs window > cap 32$"):
            recurrence_constant_empirical(copy.copy(fib))


class TestPowerFreeIndex:
    def test_tm(self, tm):
        assert power_free_index(tm) == 3

    def test_fib(self, fib):
        assert power_free_index(fib) == 4

    def test_periodic_is_unbounded(self, per):
        with pytest.raises(NotAperiodicError):
            power_free_index(per)

    def test_max_k_exceeded(self):
        # a 66-th power within the first 10,000 letters: past max_k = 64
        m = parse_morphism(f"a -> {' a' * 65} b\nb -> a")
        message = (
            "power-free index inconclusive: exponent 66 in the first 10000 letters"
            " puts k past max_k=64"
        )
        with pytest.raises(CapExceeded) as caught:
            power_free_index(m)
        assert str(caught.value) == message

    def test_oracle_agreement(self):
        for m, rules in RULED:
            window = prefix(rules, language.DEFAULT_SCAN_LEN)
            brute = max_power_exponent_brute(window, 60)
            assert power_free_index(m) == brute + 1

    # largest letters needing one, two and three bytes, chr(300) and up among them
    @pytest.mark.parametrize("first,size", [(0, 2), (0, 3), (0, 256), (300, 3), (0, 300), (0, 70_000)])
    def test_scan_matches_brute_force(self, first, size):
        rng = random.Random(size + first)
        for _ in range(200):
            text = [chr(first + rng.randrange(size)) for _ in range(rng.randrange(40))]
            if text and rng.random() < 0.7:  # plant u^e
                u = rng.choices(text, k=rng.randrange(1, 6))
                at = rng.randrange(len(text) + 1)
                text[at:at] = u * rng.randrange(2, 6)
            text = "".join(text)
            assert _max_power_exponent(text) == max_power_exponent_brute(text, len(text) // 2)

    @pytest.mark.parametrize("high", [0x100, 0x10000])
    def test_scan_reads_every_code_byte(self, high):
        # a and b differ in one byte of their four-byte codes only
        a, b = chr(0x61), chr(0x61 + high)
        text = (a + b) * 3 + a
        assert _max_power_exponent(text) == max_power_exponent_brute(text, 3) == 3

    @pytest.mark.parametrize("first,size", [(97, 2), (97, 3), (70_000, 40)])
    def test_block_scan_matches_reference(self, first, size):
        # 100-3,000 letters with powers of periods 1-400 planted, exponents
        # fractional and up to 12, so periods past the cut are scanned by
        # blocks and some of their runs raise the best exponent
        rng = random.Random(first + size)
        for _ in range(4):
            text = [chr(first + rng.randrange(size)) for _ in range(rng.randrange(100, 3001))]
            for _ in range(rng.randrange(1, 4)):
                p = rng.randrange(1, 401)
                u = [chr(first + rng.randrange(size)) for _ in range(p)]
                at = rng.randrange(len(text) + 1)
                text[at:at] = (u * 12)[: min(1500, rng.randrange(p + 1, 12 * p + 1))]
            text = "".join(text)
            assert _max_power_exponent(text) == max_power_exponent_reference(text)

    # best exponent b before the block scan, then u^(b+1) with a tail: its
    # run is b*|u| + tail letters, and its offset sweeps the block boundaries
    @pytest.mark.parametrize(
        "b,p,tail", [(1, 64, 0), (1, 65, 0), (3, 65, 0), (2, 67, 0), (1, 100, 37), (2, 64, 63)]
    )
    def test_block_scan_medium_texts(self, b, p, tail):
        assert p >= BLOCK_SCAN_PERIOD
        fresh = map(chr, range(70_000, 80_000))  # distinct letters: no other repeats
        h = -(-b * p // 2)
        for at in sorted({0, 1, 2, h - 1, h, h + 1}):
            u = "".join(next(fresh) for _ in range(p))
            filler = "".join(next(fresh) for _ in range(at))
            text = filler + u * (b + 1) + u[:tail] + next(fresh) + next(fresh) * b
            assert len(text) <= 400
            brute = max_power_exponent_brute(text, len(text) // 2)
            assert _max_power_exponent(text) == brute == b + 1

    # u^(b+1) with a run of exactly b*|u| positions, |u| at the edges of
    # the bands [64, 128), [128, 256) and [256, 512), behind fillers whose
    # lengths sweep the band's anchor grid; letters past 255 and past 65,535
    # take the utf-32-be codes
    @pytest.mark.parametrize("first", [300, 70_000])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("p", [127, 128, 255, 256, 511, 512])
    def test_banded_scan_at_band_edges(self, p, b, first):
        band = BLOCK_SCAN_PERIOD
        while 2 * band <= p:
            band *= 2
        fresh = map(chr, range(first, first + 20_000))  # distinct letters: no other repeats
        h = -(-b * band // 2)
        for at in sorted({0, 1, h - 1, h, h + 1, 2 * h - 1, 2 * h}):
            u = "".join(next(fresh) for _ in range(p))
            filler = "".join(next(fresh) for _ in range(at))
            text = filler + u * (b + 1) + next(fresh) + next(fresh) * b
            assert _max_power_exponent(text) == max_power_exponent_reference(text) == b + 1

    def test_banded_scan_on_random_fixed_points(self):
        for rules in random_primitive_rules(random.Random(39), 40, (2, 5), (1, 4)):
            text = fixed_point_prefix(parsed(rules), 10_000)
            assert _max_power_exponent(text) == max_power_exponent_reference(text)

    def test_block_scan_on_fixed_points(self):
        others = [
            "a -> b c\nb -> a a d\nc -> b b d\nd -> d b b",
            "a -> e e\nb -> c e\nc -> e a e\nd -> d c\ne -> b d",
            "a -> e e\nb -> c e\nc -> f e a\nd -> d c\ne -> b f\nf -> e e d",
            f"a -> {' a' * 20} b\nb -> a",
            f"a -> {' a' * 65} b\nb -> a",
            "a -> b b c b\nb -> c c c\nc -> a c b b",
        ]
        for m in [*ZOO, zoo.PERIODIC, *map(parse_morphism, others)]:
            text = fixed_point_prefix(m, 10_000)
            assert _max_power_exponent(text) == max_power_exponent_reference(text)


@given(st.text("ab", max_size=40), st.text("ab", max_size=40), st.data())
def test_common_prefix_from_any_lower_bound(a, b, data):
    """_common_prefix(a, b, i, j, lo) is the longest common prefix of a[i:]
    and b[j:] for every lo up to it."""
    i = data.draw(st.integers(0, len(a)))
    j = data.draw(st.integers(0, len(b)))
    brute = 0
    while i + brute < len(a) and j + brute < len(b) and a[i + brute] == b[j + brute]:
        brute += 1
    for lo in range(brute + 1):
        assert _common_prefix(a, b, i, j, lo) == brute


# letters needing one, two and three bytes, the surrogate range from 55,296,
# and letters on both sides of 256 (one word's letters fix no code width)
@pytest.mark.parametrize("first", [0, 250, 300, 55_290, 70_000])
def test_prefix_counts_match_naive(first):
    """_prefix_counts reads the LCP of sorted neighbours off the XOR of
    their one-byte or four-byte codes: p(k) for every k <= n, for n = 1, a
    single word and an iterator of words among them."""
    rng = random.Random(first)
    for n in (1, 2, 3, 8, 24):
        for size in (1, 2, 3, 9):
            words = sorted(
                {"".join(chr(first + rng.randrange(size)) for _ in range(n)) for _ in range(30)}
            )
            for ordered in (words, words[:1]):
                naive = [len({w[:k] for w in ordered}) for k in range(n + 1)]
                assert _prefix_counts(iter(ordered), n) == naive


class TestAperiodicity:
    def test_periodic_pair(self, per):
        assert aperiodicity_check(per) == 2

    def test_aperiodic_screenings(self, fib, tm):
        assert language.DEFAULT_APERIODICITY_N == 200
        for m in (fib, tm):
            assert aperiodicity_check(m) is None


class TestRecurrenceConstant:
    # The ratio is memoized on the morphism, so a scan length other than
    # RECURRENCE_MAX_LEN runs on a copy with an empty memo.

    def test_fib_length_one(self, fib):
        # return words to b are {ba, baa}: the ratio at length 1 is 3, and no
        # longer factor up to RECURRENCE_MAX_LEN beats it
        assert recurrence_constant_empirical(fib) == Fraction(3)

    def test_tm_length_one(self, tm, monkeypatch):
        monkeypatch.setattr(language, "RECURRENCE_MAX_LEN", 1)
        assert recurrence_constant_empirical(copy.copy(tm)) == Fraction(3)

    def test_fib_length_eight_band(self, fib, monkeypatch):
        monkeypatch.setattr(language, "RECURRENCE_MAX_LEN", 8)
        assert Fraction(2) <= recurrence_constant_empirical(copy.copy(fib)) < Fraction(6)

    @pytest.mark.parametrize("seed, cap, some_refused", [(23, 1_000_000, False), (29, 256, True)])
    def test_matches_rescanning_reference(self, seed, cap, some_refused, monkeypatch):
        """The one-pass scan against a reference that rescans every window
        from its start, on random primitive aperiodic morphisms: the same
        ratio, or a refusal exactly where the reference needs a window
        past the cap.  No draw reaches the default cap; about half reach
        the low one."""
        monkeypatch.setattr(language, "RETURN_WINDOW_CAP", cap)
        refused = []
        for rules in random_primitive_rules(random.Random(seed), 30, (2, 3), (1, 4)):
            m = parsed(rules)
            if aperiodicity_check(m) is not None:
                continue
            want = recurrence_ratio_reference(rules, cap=cap)
            if want is None:
                with pytest.raises(CapExceeded, match=f"needs window > cap {cap}$"):
                    recurrence_constant_empirical(m)
            else:
                assert recurrence_constant_empirical(m) == want, rules
            refused.append(want is None)
        assert len(refused) >= 20 and refused.count(False) >= 10
        assert any(refused) == some_refused

    def test_power_free_consistency(self):
        # the scanned window shows no power beyond the certified ceiling
        for m, rules in RULED:
            window = prefix(rules, 2000)
            k_cert = certified_constants(m)[1]
            assert max_power_exponent_brute(window, 40) <= k_cert


class TestFixedPointPrefix:
    def test_requires_primitive(self):
        # the ray of a never grows: without the guard this would not return
        with pytest.raises(InputError, match="the morphism is not primitive"):
            fixed_point_prefix(parse_morphism("a -> a\nb -> a b"), 10)

    def test_is_prefix_closed(self, fib):
        short = fixed_point_prefix(fib, 100)
        long = fixed_point_prefix(fib, 400)
        assert long.startswith(short)

    def test_matches_oracle(self):
        for m, rules in RULED:
            assert m.decode(fixed_point_prefix(m, 500)) == prefix(rules, 500)

    def test_kept_ray_serves_any_length(self):
        """The longest prefix built so far is kept on the morphism and
        sliced: shorter and longer requests after it match the oracle.  The
        ray of a -> b a, b -> a b is fixed by sigma^2 only."""
        for rules in [rules for _, rules in RULED] + [{"a": "ba", "b": "ab"}]:
            m = parsed(rules)
            for length in (500, 37, 3000, 1):
                assert m.decode(fixed_point_prefix(m, length)) == prefix(rules, length)


class TestRefusals:
    """Each library refusal of a factor slice: its exact class and message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: language_of(zoo.FIBONACCI).slice(-1), InputError,
                     "factor length must be >= 0", id="slice"),
        pytest.param(lambda: factor_language(zoo.FIBONACCI, 0), InputError,
                     "n must be >= 1", id="factor-language"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(SubrecError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
