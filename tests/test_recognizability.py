import cProfile
import functools
import math
import random
import time
import timeit
import tracemalloc

import pytest

from subrec import (
    Counterexample,
    VerifyResult,
    admissible_seeds,
    build_window,
    certified_constants,
    closed_form_bound,
    exact_ratio_constant,
    factor_language,
    fixed_point_prefix,
    injectivity_exponent,
    interpretations,
    klouda_medkova_bound,
    minimal_constant_empirical,
    power_scaled_constant,
    recognizability_bound,
    synchronizing_delay,
    synchronizing_point,
    verify_constant,
)
from subrec import language, power_free_index, recognizability, recurrence_constant_empirical, zoo
from subrec.cli import _delay_json
from subrec.errors import CapExceeded, InputError, NotAperiodicError, SubrecError
from subrec.language import aperiodicity_check
from subrec.morphism import IncidenceMatrix, parse_morphism, primitivity
from subrec.recognizability import _kernel_partition, _largest_constant

from oracles import (
    COLL_RULES,
    FIB_RULES,
    MIXED_RULES,
    PER_RULES,
    TM_RULES,
    TRIB_RULES,
    OracleWindow,
    chain_text,
    check_counterexample,
    closure_reference,
    delay_reference,
    distinct_factors,
    interpretations_reference,
    kernel_partition_reference,
    prefix,
    random_primitive_rules,
    sync_points_reference,
    tight_interpretations_brute,
    verify_reference,
)

RULED = [
    (zoo.FIBONACCI, FIB_RULES),
    (zoo.THUE_MORSE, TM_RULES),
    (zoo.TRIBONACCI, TRIB_RULES),
    (zoo.COLLAPSING, COLL_RULES),
]
MIXED = parse_morphism("a -> a a b\nb -> b c a\nc -> c a b")


def rules_id(rules):
    return "; ".join(f"{a}->{image}" for a, image in rules.items())


def window_of(m, radius=1000, min_level=4):
    return build_window(m, admissible_seeds(m)[0], radius, min_level=min_level)


def oracle_of(w, rules):
    """The independent window of the same seed and depth as w."""
    m, seed = w.morphism, w.seed
    return OracleWindow(
        rules, m.decode(seed.left), m.decode(seed.right), seed.power, w.max_level // seed.power
    )


def reference_result(oracle, L, p):
    ref = verify_reference(oracle, L, p)
    return VerifyResult(None if ref is None else Counterexample(*ref))


class TestInjectivityExponent:
    def test_fib_tm_trivial_kernel(self, fib, tm):
        assert injectivity_exponent(fib) == 1
        assert injectivity_exponent(tm) == 1

    def test_coll(self, coll):
        assert injectivity_exponent(coll) == 2
        a, b, c = coll.encode("a"), coll.encode("b"), coll.encode("c")
        assert _kernel_partition(coll, 1) == ((a, b), (c,))
        assert recognizability_bound(coll, "certified", safe_d=True).d == 3

    def test_chain_monotone_and_stable(self):
        for m, _ in RULED:
            levels = [_kernel_partition(m, n) for n in range(m.size + 1)]
            as_pairs = [
                {(x, y) for cls in level for x in cls for y in cls}
                for level in levels
            ]
            for lower, higher in zip(as_pairs, as_pairs[1:]):
                assert lower <= higher
            assert levels[m.size - 1] == levels[m.size]

    def test_partitions_match_expanded_images(self):
        """Each level's partition, decided from the levels below it, is the
        partition by literally expanded images, at every level up to #A + 1:
        on draws with equal images, and with images that become equal only
        past level 1."""
        drawn = random_primitive_rules(random.Random(41), 600, (3, 5), (1, 2))
        levels = [
            [kernel_partition_reference(rules, n) for n in range(len(rules) + 2)] for rules in drawn
        ]
        assert sum(len(set(rules.values())) < len(rules) for rules in drawn) >= 10
        assert sum(chain[1] != chain[-1] for chain in levels) >= 5
        for rules, chain in zip(drawn, levels):
            m = parse_morphism("\n".join(f"{a} -> {' '.join(image)}" for a, image in rules.items()))
            for n, expected in enumerate(chain):
                got = [[m.decode(c) for c in cls] for cls in _kernel_partition(m, n)]
                assert got == expected, (rules, n)

    def test_equal_images_with_misaligned_blocks(self):
        # sigma(a) = cc and sigma(b) = d cut sigma^2 into different blocks,
        # yet sigma^2(a) = abcabc = sigma^2(b)
        m = parse_morphism("a -> c c\nb -> d\nc -> a b c\nd -> a b c a b c")
        a, b, c, d = map(m.encode, "abcd")
        assert _kernel_partition(m, 1) == ((a,), (b,), (c,), (d,))
        assert _kernel_partition(m, 2) == _kernel_partition(m, 3) == ((a, b), (c,), (d,))
        assert injectivity_exponent(m) == 3
        # here a misaligned walk meets level-1 blocks of letters whose
        # images differ at level 1 and agree at level 2
        rules = {"a": "ba", "b": "c", "c": "d", "d": "eba", "e": "d"}
        m = parse_morphism("\n".join(f"{x} -> {' '.join(image)}" for x, image in rules.items()))
        for n in range(m.size + 2):
            got = [[m.decode(x) for x in cls] for cls in _kernel_partition(m, n)]
            assert got == kernel_partition_reference(rules, n), n

    def test_twenty_letters_in_under_a_second(self):
        # equal images [x0], [x1] on a chain whose images stay aligned
        m = parse_morphism(chain_text(20))
        start = time.perf_counter()
        assert injectivity_exponent(m) == 2
        assert time.perf_counter() - start < 1.0

    def test_walk_past_the_cap_refused(self, monkeypatch):
        monkeypatch.setattr(recognizability, "CLOSURE_MAX_LETTERS", 1)
        m = parse_morphism("a -> c c\nb -> d\nc -> a b c\nd -> a b c a b c")
        with pytest.raises(CapExceeded, match="expanded more than 1 blocks"):
            injectivity_exponent(m)


class TestInterpretations:
    def test_fib_aba(self, fib):
        u = fib.encode("aba")
        got = {
            (fib.decode(i.prefix), fib.decode(i.core), fib.decode(i.suffix), i.cuts)
            for i in interpretations(fib, u)
        }
        assert got == {("", "ab", "", (0, 2, 3)), ("", "aa", "b", (0, 2))}

    def test_fib_a(self, fib):
        u = fib.encode("a")
        got = {
            (fib.decode(i.prefix), fib.decode(i.core), fib.decode(i.suffix), i.cuts)
            for i in interpretations(fib, u)
        }
        assert got == {("", "a", "b", (0,)), ("", "b", "", (0, 1))}

    def test_tm_ab_contains_exact_image(self, tm):
        u = tm.encode("ab")
        triples = {
            (tm.decode(i.prefix), tm.decode(i.core), tm.decode(i.suffix))
            for i in interpretations(tm, u)
        }
        assert ("", "a", "") in triples

    def test_not_a_factor(self, fib):
        with pytest.raises(InputError, match="'bb' is not a factor"):
            interpretations(fib, fib.encode("bb"))

    def test_refuses_character_past_alphabet(self, fib):
        with pytest.raises(InputError, match=r"character '\\x05' .*Morphism\.encode"):
            interpretations(fib, chr(5))

    def test_membership_from_own_pass(self):
        """A long factor is decided by the first-image pass over L_t,
        t = 334 here: no slice of its own length is closed."""
        m = parse_morphism("a -> a a b\nb -> b c a\nc -> c a b")
        u = fixed_point_prefix(m, 1000)
        assert interpretations(m, u)
        assert max(language.language_of(m)._slices) < 1000

    def test_brute_force_agreement(self):
        for m, rules in RULED[:2]:
            window = prefix(rules, 4000)
            language = set()
            for t in range(1, 8):
                language |= distinct_factors(window, t)
            for n in (1, 2, 3, 4):
                for u in sorted(distinct_factors(window[:200], n)):
                    expected = tight_interpretations_brute(rules, u, language)
                    got = {
                        (m.decode(i.prefix), m.decode(i.core), m.decode(i.suffix), i.cuts)
                        for i in interpretations(m, m.encode(u))
                    }
                    assert got == expected

    def test_cut_zero_iff_empty_prefix(self):
        for m, rules in RULED:
            for u in sorted(factor_language(m, 3)):
                for interp in interpretations(m, u):
                    assert (0 in interp.cuts) == (interp.prefix == "")


class TestPeriodicRefusal:
    """Every value that exists only for an aperiodic fixed point refuses a
    periodic one the same way."""

    def test_same_refusal(self, per):
        message = "fixed point is periodic (period 2); not recognizable"
        refusals = [
            lambda: power_free_index(per),
            lambda: recurrence_constant_empirical(per),
            lambda: recognizability_bound(per, "empirical_exact"),
            lambda: recognizability_bound(per, "certified"),
        ]
        for refusal in refusals:
            with pytest.raises(NotAperiodicError) as caught:
                refusal()
            assert str(caught.value) == message


class TestFirstImagePass:
    """interpretations, synchronizing_point and synchronizing_delay against
    the enumeration over the full core-length range, on exact slices from
    the full-window closure."""

    DRAWN = random_primitive_rules(random.Random(9), 60, (2, 4), (1, 5))
    LONG_A = {"a": "a" * 20 + "b", "b": "a"}  # C = 21

    @pytest.mark.parametrize("rules", DRAWN + [LONG_A], ids=rules_id)
    def test_matches_reference(self, rules):
        m = parse_morphism("\n".join(f"{a} -> {' '.join(image)}" for a, image in rules.items()))
        factors = functools.cache(lambda t: closure_reference(rules, t))
        for n in (1, 2, 3, 5):
            expected = interpretations_reference(rules, n, factors)
            assert set(expected) == factors(n)
            for u, interps in expected.items():
                got = [
                    (m.decode(i.prefix), m.decode(i.core), m.decode(i.suffix), i.cuts)
                    for i in interpretations(m, m.encode(u))
                ]
                assert got == interps, u
                points = synchronizing_point(m, m.encode(u))
                assert points == sync_points_reference(interps, n, False)
        result = synchronizing_delay(m, 16)
        delay, per_length, periodic = delay_reference(rules, 16, False, factors)
        assert (result.per_length == ()) == periodic
        assert result.delay == delay
        reported = _delay_json(m, result, 16)
        assert reported["L_from_C"] == (None if delay is None else delay // 2)
        assert reported["n_max"] == 16
        assert [(n, [m.decode(u) for u in bad]) for n, bad in result.per_length] == per_length

    def test_long_first_image(self):
        m = parse_morphism(f"a -> {' '.join('a' * 65)} b\nb -> a")
        result = synchronizing_delay(m, 24)
        assert result.delay is None
        assert [n for n, bad in result.per_length] == list(range(1, 25))
        assert dict(result.per_length)[24] == (m.encode("a" * 24),)


class TestSynchronizingPoint:
    def test_fib_aba_strict(self, fib):
        assert synchronizing_point(fib, fib.encode("aba")) == (2,)

    def test_fib_single_letter_unsynchronized(self, fib):
        assert synchronizing_point(fib, fib.encode("a")) == ()

    def test_tm_abba(self, tm):
        assert synchronizing_point(tm, tm.encode("abba")) == (2, 4)

    def test_refuses_unencoded_word(self, fib):
        with pytest.raises(InputError, match=r"character 'a' .*Morphism\.encode"):
            synchronizing_point(fib, "a")


class TestSynchronizingDelay:
    def test_fib(self, fib):
        result = synchronizing_delay(fib, 16)
        assert result.delay == 2
        assert _delay_json(fib, result, 16)["L_from_C"] == 1
        assert dict(result.per_length)[1] == (fib.encode("a"),)

    def test_tm_within_klouda_medkova(self, tm):
        result = synchronizing_delay(tm, 16)
        assert result.delay == 4
        assert result.delay <= klouda_medkova_bound(2)

    def test_periodic_none(self, per):
        result = synchronizing_delay(per, 16)
        assert result.delay is None
        assert result.per_length == ()
        assert _delay_json(per, result, 16)["n_max"] == 16

    def test_monotone_in_length(self):
        for m, _ in RULED[:3]:
            all_sync_seen = False
            for n in range(1, 13):
                words = sorted(factor_language(m, n))
                all_sync = all(synchronizing_point(m, u) for u in words)
                if all_sync_seen:
                    assert all_sync
                all_sync_seen = all_sync_seen or all_sync


class TestVerifyConstant:
    def test_fib_level_one(self, fib):
        w = window_of(fib)
        refuted = verify_constant(w, 0, 1)
        assert not refuted.ok and refuted.counterexample.kind == "preimage_mismatch"
        assert verify_constant(w, 1, 1).ok

    def test_counterexample_is_globally_valid(self):
        for m, rules in RULED:
            w = window_of(m, 300, min_level=0)
            oracle = oracle_of(w, rules)
            for p in (1, 2):
                for L in range(0, 4):
                    result = verify_constant(w, L, p)
                    if result.ok:
                        break
                    ce = result.counterexample
                    assert check_counterexample(oracle, L, p, ce.cut_position, ce.position)

    def test_periodic_fails_everywhere(self, per):
        w = window_of(per)
        for L in range(0, 33):
            assert not verify_constant(w, L, 1).ok

    def test_window_too_small(self, fib):
        w = build_window(fib, admissible_seeds(fib)[0], 8)
        with pytest.raises(InputError, match=r"too small for L=6 at level 1"):
            verify_constant(w, 6, 1)

    def test_tie_break_smallest_position(self, per):
        ce = verify_constant(window_of(per), 3, 1).counterexample
        assert ce == Counterexample(-1, -2, 0, "preimage_mismatch")

    def test_matches_bucket_reference_random(self):
        """The bucket reference on random aperiodic draws, at three levels
        and every L up to 12 the radius-300 window can check: L = 3, 5-7
        and 9-12 each pass the radii 1, 2, 4, ... below them first."""
        kept = 0
        for rules in random_primitive_rules(random.Random(36), 20, (2, 4), (1, 4)):
            m = parse_morphism("\n".join(f"{a} -> {' '.join(image)}" for a, image in rules.items()))
            if m.widest == 1 or aperiodicity_check(m) is not None:
                continue
            kept += 1
            w = window_of(m, 300, min_level=3)
            oracle = oracle_of(w, rules)
            for p in (1, 2, 3):
                for L in range(min(12, _largest_constant(w, p)) + 1):
                    assert verify_constant(w, L, p) == reference_result(oracle, L, p), (rules, L, p)
        assert kept >= 10

    def test_matches_bucket_reference_at_large_L(self, fib, per):
        """An unrefuted L = 500 on the 13,530-letter Fibonacci window, and a
        refuted L = 100 on the periodic one."""
        w = build_window(fib, admissible_seeds(fib)[0], 5_000)
        assert len(w.content) == 13_530
        result = verify_constant(w, 500, 1)
        assert result.ok and result == reference_result(oracle_of(w, FIB_RULES), 500, 1)
        w = window_of(per)
        expected = reference_result(oracle_of(w, PER_RULES), 100, 1)
        assert not expected.ok and verify_constant(w, 100, 1) == expected

    def test_large_L_decided_at_a_small_radius(self, fib):
        """An unrefuted L is decided at the first radius 1, 2, 4, ... with no
        conflict, not by searching the window for each of the ~1,000 cut
        contexts of radius 500 (about ten times the time of L = 8)."""
        w = build_window(fib, admissible_seeds(fib)[0], 5_000)

        def fastest(L):
            return min(timeit.repeat(lambda: verify_constant(w, L, 1), number=1, repeat=3))

        fastest(8)
        assert fastest(500) <= 4 * fastest(8)

    def test_memory_one_int_per_position(self, fib):
        """The verifier reads only the cuts' contexts and keeps one string
        per distinct cut context it searches for.  A (2L+1)-letter string
        per position would cost about 13 MB on this 13,530-letter window at
        L = 500; the call peaks near 1.2 MB, nearly all of it the cut dict
        of cutting_points."""
        w = build_window(fib, admissible_seeds(fib)[0], 5_000)
        assert len(w.content) == 13_530
        tracemalloc.start()
        try:
            verify_constant(w, 500, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000

    @pytest.mark.parametrize(
        "m, rules",
        RULED + [(zoo.PERIODIC, PER_RULES), (MIXED, MIXED_RULES)],
        ids=["fib", "tm", "trib", "coll", "per", "mixed"],
    )
    def test_matches_bucket_reference(self, m, rules):
        w = window_of(m, 300, min_level=3)
        oracle = oracle_of(w, rules)
        for p in (1, 2, 3):
            for L in (0, 1, 2, 3, 4, 6, 8):
                assert verify_constant(w, L, p) == reference_result(oracle, L, p)

    def test_tie_break_context_order_tm(self, tm):
        # (|m|, |i|) ties between m = 4 and m = -4; the context met first wins
        ce = verify_constant(window_of(tm), 3, 3).counterexample
        assert ce == Counterexample(2, 16, 4, "not_a_cut")

    def test_tie_break_context_order_mixed(self):
        ce = verify_constant(window_of(MIXED), 2, 2).counterexample
        assert ce == Counterexample(3, 27, 3, "not_a_cut")

    def test_tie_break_context_before_cut_status(self):
        # the non-cut m = -2 and the cut m = 2 tie on (|m|, |i|); the context
        # met first decides before the non-cut rule does
        m = parse_morphism("a -> b c a d\nb -> a\nc -> d\nd -> b d c")
        ce = verify_constant(window_of(m), 0, 1).counterexample
        assert ce == Counterexample(-1, -3, 2, "preimage_mismatch")


class TestMinimalConstant:
    def test_fib(self, fib):
        assert minimal_constant_empirical(window_of(fib), 1, 16) == (1, 16)

    def test_tm_level_two(self, tm):
        assert minimal_constant_empirical(window_of(tm), 2, 16) == (3, 16)

    def test_periodic_exhausts(self, per):
        # every L <= 8 refuted: L = checked + 1
        assert minimal_constant_empirical(window_of(per), 1, 8) == (9, 8)

    def test_scan_matches_bucket_reference(self):
        """The scan's L is the least L that the bucket reference does not
        refute, checked + 1 when it refutes them all, on random draws
        (periodic ones included) at two levels."""
        kept = periodic = 0
        for rules in random_primitive_rules(random.Random(40), 20, (2, 4), (1, 4)):
            m = parse_morphism("\n".join(f"{a} -> {' '.join(image)}" for a, image in rules.items()))
            if m.widest == 1:
                continue
            kept += 1
            periodic += aperiodicity_check(m) is not None
            w = window_of(m, 300, min_level=2)
            oracle = oracle_of(w, rules)
            for p in (1, 2):
                L, checked = minimal_constant_empirical(w, p, 12)
                assert checked == max(0, min(12, _largest_constant(w, p)))
                unrefuted = (k for k in range(checked + 1) if verify_reference(oracle, k, p) is None)
                assert L == next(unrefuted, checked + 1), (rules, p)
        assert kept >= 10 and periodic >= 1


class TestPowerScaling:
    def test_soundness_fib_tm(self, fib, tm):
        for m in (fib, tm):
            w = window_of(m, min_level=4)
            base, checked = minimal_constant_empirical(w, 1, 16)
            assert base <= checked
            scaled = power_scaled_constant(base, 2, m.widest)
            assert verify_constant(w, scaled, 2).ok


class TestCertifiedConstants:
    def test_fib_values(self, fib):
        n_cert, k_cert = certified_constants(fib)
        assert n_cert == 8
        # return words to length-2 factors: 2 |sigma^8| = 110
        assert k_cert == 110 * n_cert * fib.widest == 1760
        assert recognizability_bound(fib, "certified").k == k_cert + 1 == 1761

    def test_exact_ratio_constants(self, fib, tm):
        assert exact_ratio_constant(fib)[0] == 2
        assert exact_ratio_constant(tm)[0] == 1

    def test_ratio_constant_is_valid_for_sampled_powers(self):
        from subrec import extreme_lengths

        for m, _ in RULED:
            n_value = exact_ratio_constant(m)[0]
            for n in range(1, 40):
                widest, narrowest = extreme_lengths(m, n)
                assert widest <= n_value * narrowest


class TestLargeAlphabetStages:
    """Stages that walk consecutive exponents step each from the last and
    never power the #A x #A matrix (chain_text: 30 and 60 letters)."""

    def test_no_matrix_power(self):
        m = parse_morphism(chain_text(30))
        profile = cProfile.Profile()
        for stage in (injectivity_exponent, certified_constants, admissible_seeds):
            profile.runcall(stage, m)
        counts = {entry.code: entry.callcount for entry in profile.getstats()}
        assert counts.get(IncidenceMatrix.power.__code__, 0) == 0

    def test_sixty_letters_in_under_three_seconds(self):
        m = parse_morphism(chain_text(60))
        start = time.perf_counter()
        assert primitivity(m) and injectivity_exponent(m) == 2
        certified_constants(m)
        assert time.perf_counter() - start < 3.0


class TestRecognizabilityBound:
    def test_fib_empirical_chain(self, fib):
        b = recognizability_bound(fib, "empirical_exact")
        assert (b.N, b.k, b.d, b.R, b.Q) == (2, 4, 1, 24, 31201)
        # independent big-integer oracle: bound = 24 * F(31203) + 2
        x, y = 0, 1
        for _ in range(31203):
            x, y = y, x + y
        assert b.bound.exact == 24 * x + 2
        assert b.M.exact == 24 * x

    def test_fib_certified_goes_logarithmic(self, fib):
        b = recognizability_bound(fib, "certified")
        assert (b.N, b.k, b.R) == (8, 1761, 112784)
        assert b.Q > 10**20
        assert b.bound.exact is None and b.bound.log10 > 10**20

    def test_safe_d_mode(self, fib):
        assert recognizability_bound(fib, "certified", safe_d=True).d == 2

    def test_periodic_rejected(self, per):
        with pytest.raises(NotAperiodicError):
            recognizability_bound(per, "empirical_exact")

    def test_degenerate_identity_rejected(self):
        single = parse_morphism("a -> a")
        with pytest.raises(NotAperiodicError):
            recognizability_bound(single, "certified")

    def test_bound_dominates_empirical_constant(self):
        for m, _ in RULED:
            b = recognizability_bound(m, "empirical_exact")
            heuristic, checked = minimal_constant_empirical(window_of(m), 1, 16)
            assert heuristic <= checked
            assert b.bound.log10 > math.log10(max(heuristic, 1))

    def test_closed_form_dominates_certified(self):
        for m, _ in RULED:
            certified = recognizability_bound(m, "certified")
            _, closed = closed_form_bound(m)
            assert closed.log10 >= certified.bound.log10

    def test_delay_constant_band(self):
        for m, _ in RULED:
            delay = synchronizing_delay(m, 16).delay
            heuristic, checked = minimal_constant_empirical(window_of(m), 1, 16)
            assert heuristic <= checked
            assert delay <= 2 * heuristic + 1 + 2 * m.widest

    def test_closure_cap_boundary(self, monkeypatch):
        # R = 88 and N = 4 count p(i) up to c = 354: at least 355 * 354 letters
        trib = parse_morphism("a -> a b\nb -> a c\nc -> a")  # nothing counted yet
        monkeypatch.setattr(language, "CLOSURE_MAX_LETTERS", 355 * 354 - 1)
        with pytest.raises(CapExceeded, match="language closure at length 354 holds at least 125670"):
            recognizability_bound(trib, "empirical_exact")
        assert recognizability_bound(trib, "certified").R == 5431685086252  # no closure
        monkeypatch.setattr(language, "CLOSURE_MAX_LETTERS", 355 * 354)
        assert recognizability_bound(trib, "empirical_exact").Q == 22220758

    def test_exact_and_log_agree(self, fib):
        b = recognizability_bound(fib, "empirical_exact")
        from subrec.bignum import int_log10

        assert math.isclose(b.bound.log10, int_log10(b.bound.exact), rel_tol=1e-12)


class TestClosedForm:
    def test_fib_exponent(self, fib):
        exponent, value = closed_form_bound(fib)
        expected = 24
        piece = 2
        for _ in range(111):
            piece *= 2
        expected += 12 * piece
        assert exponent == expected
        assert len(str(exponent)) == 35
        assert abs(value.log10 - 1.8756e34) / 1.8756e34 < 1e-3

    def test_injective_variant(self, fib):
        exponent, value = closed_form_bound(fib, injective_hint=True)
        assert exponent == 24 + 6 * 2**112
        assert value.expr.endswith(" + 2^1")

    def test_single_letter_formula_valid(self):
        doubling = parse_morphism("a -> a a")
        exponent, value = closed_form_bound(doubling)
        assert exponent == 6 + 6 * 2**28
        assert value.exact is None  # past the digit cap, logarithmic only
        identity = parse_morphism("a -> a")  # |sigma| = 1: 2 + 1 on the general path
        for hint in (False, True):
            exponent, value = closed_form_bound(identity, injective_hint=hint)
            assert (exponent, value.exact, value.expr) == (12, 3, "2*1^12 + 1^1")
            assert math.isclose(value.log10, math.log10(3))


class TestKloudaMedkova:
    def test_paper_values(self):
        assert klouda_medkova_bound(2) == 8
        assert klouda_medkova_bound(3) == 14
        assert klouda_medkova_bound(4) == 32

    def test_bad_parameters(self):
        with pytest.raises(InputError, match="k must be >= 2"):
            klouda_medkova_bound(1)
        with pytest.raises(TypeError):  # the least divisor is derived from k
            klouda_medkova_bound(4, 2)

    def test_more_values(self):
        assert klouda_medkova_bound(5) == 36  # odd prime
        assert klouda_medkova_bound(6) == 98  # 36*(3-1) + 26
        assert klouda_medkova_bound(9) == 203  # odd composite: 81*(3-1) + 41


class TestRefusals:
    """Each library refusal of this module: its exact class and message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: interpretations(zoo.FIBONACCI, ""), InputError,
                     "u must be non-empty", id="interpretations"),
        pytest.param(lambda: synchronizing_delay(zoo.FIBONACCI, 0), InputError,
                     "n_max must be >= 1", id="delay"),
        pytest.param(lambda: verify_constant(window_of(zoo.FIBONACCI, 50), -1, 1), InputError,
                     "L must be >= 0", id="verify"),
        pytest.param(lambda: minimal_constant_empirical(window_of(zoo.FIBONACCI, 50), 1, -1),
                     InputError, "L_max must be >= 0", id="scan"),
        pytest.param(lambda: recognizability_bound(zoo.FIBONACCI, "exact"), InputError,
                     "unknown mode 'exact'", id="bound-mode"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(SubrecError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
