"""Acceptance suite: one test per criterion, each timed against its budget
and printing a single PASS line (run with -s to stream them)."""

import math
import time

from subrec import (
    admissible_seeds,
    aperiodicity_check,
    build_window,
    closed_form_bound,
    complexity,
    cutting_points,
    extreme_lengths,
    interpretations,
    is_primitive,
    klouda_medkova_bound,
    minimal_constant_empirical,
    power,
    power_free_index,
    power_scaled_constant,
    recognizability_bound,
    synchronizing_delay,
    verify_constant,
)
from subrec import zoo
from subrec.bignum import digits10
from subrec.morphism import IncidenceMatrix
from subrec.recognizability import _kernel_partition

from oracles import (
    COLL_RULES,
    FIB_RULES,
    TM_RULES,
    TRIB_RULES,
    OracleWindow,
    check_counterexample,
    distinct_factors,
    first_positive_power,
    max_power_exponent_brute,
    prefix,
)

RULED = [
    (zoo.FIBONACCI, FIB_RULES),
    (zoo.THUE_MORSE, TM_RULES),
    (zoo.TRIBONACCI, TRIB_RULES),
    (zoo.COLLAPSING, COLL_RULES),
]


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget"
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s < {self.seconds}s)", flush=True)


def test_01_wielandt_equivalence():
    with Budget("1 wielandt-equivalence", 5):
        for bits in range(512):
            rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            witness = is_primitive(IncidenceMatrix(tuple(tuple(r) for r in rows)))
            assert witness == first_positive_power(rows, 64)
            if witness is not None:
                assert witness <= 5


def test_02_fibonacci_complexity():
    with Budget("2 fibonacci-complexity", 30):
        window = prefix(FIB_RULES, 10_000)
        for n in range(1, 31):
            assert complexity(zoo.FIBONACCI, n) == n + 1
            assert len(distinct_factors(window, n)) == n + 1


def test_03_power_free_indices():
    with Budget("3 power-free-indices", 60):
        assert power_free_index(zoo.THUE_MORSE) == 3
        assert power_free_index(zoo.FIBONACCI) == 4
        # cross-check the maximal exponents on a brute-scanned window
        assert max_power_exponent_brute(prefix(TM_RULES, 1500), 60) == 2
        assert max_power_exponent_brute(prefix(FIB_RULES, 1500), 60) == 3


def test_04_klouda_medkova_cross_check():
    with Budget("4 klouda-medkova", 60):
        result = synchronizing_delay(zoo.THUE_MORSE, 16)
        assert result.delay is not None and result.delay <= 8
        assert klouda_medkova_bound(2) == 8
        assert klouda_medkova_bound(3) == 14
        assert klouda_medkova_bound(4) == 32


def test_05_fibonacci_empirical_constant():
    with Budget("5 fibonacci-empirical-constant", 30):
        m = zoo.FIBONACCI
        seed = admissible_seeds(m)[0]
        window = build_window(m, seed, 1000)
        assert minimal_constant_empirical(window, 1, 16) == (1, 16)
        # the refutation of L = 0 re-checked on an independent window
        refuted = verify_constant(window, 0, 1)
        steps = window.max_level // seed.power
        oracle = OracleWindow(
            FIB_RULES, m.decode(seed.left), m.decode(seed.right), seed.power, steps
        )
        ce = refuted.counterexample
        assert check_counterexample(oracle, 0, 1, ce.cut_position, ce.position)


def test_06_fibonacci_bound_chain():
    with Budget("6 fibonacci-bound-chain", 120):
        m = zoo.FIBONACCI
        breakdown = recognizability_bound(m, "empirical_exact")
        assert breakdown.N == 2
        assert breakdown.k == 4
        assert breakdown.d == 1
        assert breakdown.R == 24
        assert breakdown.Q == 31201
        # the matrix-power factor has floor(31203 log10 phi) +- 1 digits
        widest = extreme_lengths(m, 31201)[0]
        target = math.floor(31203 * math.log10((1 + math.sqrt(5)) / 2))
        assert abs(digits10(widest) - target) <= 1
        # exact integer identity against an independently computed Fibonacci number
        a, b = 0, 1
        for _ in range(31203):
            a, b = b, a + b
        assert widest == a
        assert breakdown.bound.exact == 24 * a + 2
        heuristic, checked = minimal_constant_empirical(
            build_window(m, admissible_seeds(m)[0], 1000), 1, 16
        )
        assert heuristic <= checked
        assert breakdown.bound.exact >= heuristic


def test_07_closed_form_exponent():
    with Budget("7 closed-form-exponent", 1):
        exponent, value = closed_form_bound(zoo.FIBONACCI)
        piece = 1
        for _ in range(112):
            piece *= 2
        assert exponent == 24 + 12 * piece
        assert digits10(exponent) == 35
        assert abs(value.log10 - 1.8756e34) / 1.8756e34 < 1e-3


def test_08_structural_invariants_suite():
    with Budget("8 structural-invariants", 120):
        for m, _rules in RULED:
            window = build_window(m, admissible_seeds(m)[0], 600, min_level=8)
            e = window.seed.power

            # composition of the level maps f_p (i -> position of the i-th
            # level-p boundary, the junction being 0 and the window's end the
            # last one): f_(p+1) = f_1 . f_p on the right ray at every level,
            # and f_(P+e) = f_e . f_P on both rays at window granularity
            # (multiples of e, where the two-sided word genuinely is a fixed
            # point)
            f = {}
            for p in range(0, window.max_level + 1):
                f[p] = {i: pos for pos, (i, _) in cutting_points(window, p).items()}
                f[p][max(f[p]) + 1] = window.hi
            for p in range(1, min(6, window.max_level)):
                for i in range(0, 50):
                    if i in f[p] and i in f[p + 1] and f[p][i] in f[1]:
                        assert f[1][f[p][i]] == f[p + 1][i]
            for big_p in range(e, window.max_level - e + 1, e):
                for i in range(-50, 51):
                    if i in f[big_p] and i in f[big_p + e] and f[big_p][i] in f[e]:
                        assert f[e][f[big_p][i]] == f[big_p + e][i]

            # cut-set nesting and gap bounds
            for p in range(1, min(window.max_level, 5)):
                finer = cutting_points(window, p)
                coarser = cutting_points(window, p + 1)
                assert set(coarser) <= set(finer)
            for p in (1, 2, 3):
                widest, narrowest = extreme_lengths(m, p)
                positions = list(cutting_points(window, p))
                assert all(
                    narrowest <= b - a <= widest for a, b in zip(positions, positions[1:])
                )

            # kernel chain stabilization at #A - 1
            assert _kernel_partition(m, m.size - 1) == _kernel_partition(m, m.size)

            # inner-length containment for tight interpretations of
            # sigma^n(u), for every window factor u with |u| <= 30:
            # ceil(<sigma^n>|u| / |sigma^n|) - 2 <= t <= floor(|sigma^n||u| / <sigma^n>)
            content = window.content
            factors = set()
            for n in range(1, 31):
                level = {content[i : i + n] for i in range(len(content) - n + 1)}
                assert len(level) == complexity(m, n)
                factors |= level
            for n in (1, 2, 3):
                sigma_n = power(m, n)
                widest, narrowest = extreme_lengths(m, n)
                for u in factors:
                    t_min = -(-narrowest * len(u) // widest) - 2
                    t_max = widest * len(u) // narrowest
                    for interp in interpretations(sigma_n, sigma_n.apply(u)):
                        assert t_min <= len(interp.core) - 2 <= t_max


def test_09_negative_controls():
    with Budget("9 negative-controls", 30):
        per = zoo.PERIODIC
        assert aperiodicity_check(per) == 2
        window = build_window(per, admissible_seeds(per)[0], 1000)
        for L in range(0, 33):
            assert not verify_constant(window, L, 1).ok
        result = synchronizing_delay(per, 16)
        assert result.delay is None and result.per_length == ()


def test_10_power_scaling_check():
    with Budget("10 power-scaling", 30):
        m = zoo.FIBONACCI
        window = build_window(m, admissible_seeds(m)[0], 1000, min_level=2)
        assert verify_constant(window, 1, 1).ok
        scaled = power_scaled_constant(1, 2, m.widest)
        assert scaled == 3
        assert verify_constant(window, scaled, 2).ok
