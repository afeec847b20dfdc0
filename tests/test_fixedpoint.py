import pytest

from subrec import (
    admissible_seeds,
    build_window,
    cutting_points,
    extreme_lengths,
    parse_morphism,
    power,
)
from subrec import fixedpoint, zoo
from subrec.errors import CapExceeded, InputError, SubrecError
from subrec.morphism import FixedPointSeed

from oracles import COLL_RULES, FIB_RULES, TM_RULES, TRIB_RULES, OracleWindow

RULED = [
    (zoo.FIBONACCI, FIB_RULES),
    (zoo.THUE_MORSE, TM_RULES),
    (zoo.TRIBONACCI, TRIB_RULES),
    (zoo.COLLAPSING, COLL_RULES),
]


def window_of(m, radius=200, min_level=6):
    return build_window(m, admissible_seeds(m)[0], radius, min_level=min_level)


def segment(w, start, stop):
    """The window letters at positions [start, stop)."""
    return w.content[start - w.lo : stop - w.lo]


def cut_map(w, p):
    """i -> window position of the i-th level-p image boundary: boundary 0
    is the junction, i < 0 counts the left preimage ray backwards, and the
    window's end closes the right one."""
    f = {i: pos for pos, (i, _) in cutting_points(w, p).items()}
    f[max(f) + 1] = w.hi
    return f


class TestBuildWindow:
    def test_fib_right_ray(self, fib):
        w = build_window(fib, FixedPointSeed(2, fib.encode("a"), fib.encode("a")), 8)
        assert fib.decode(segment(w, 0, 8)) == "abaababa"
        assert w.lo <= -8 and w.hi >= 8

    def test_tm_right_ray(self, tm):
        w = build_window(tm, FixedPointSeed(2, tm.encode("a"), tm.encode("b")), 8)
        assert tm.decode(segment(w, 0, 8)) == "baababba"

    def test_junction_letters(self):
        for m, _ in RULED:
            seed = admissible_seeds(m)[0]
            w = build_window(m, seed, 50)
            assert segment(w, -1, 1) == seed.left + seed.right

    def test_invalid_seed(self, fib):
        with pytest.raises(InputError, match=r"sigma\^2\(b\) does not start with it"):
            build_window(fib, FixedPointSeed(2, fib.encode("a"), fib.encode("b")), 8)

    def test_inadmissible_pair_rejected(self):
        # sigma(a) starts and ends with a, but "aa" is not a factor of (ab)^inf
        per = parse_morphism("a -> a b a\nb -> b a b")
        with pytest.raises(InputError, match="seed pair is not admissible"):
            build_window(per, FixedPointSeed(1, per.encode("a"), per.encode("a")), 8)

    def test_growth_keeps_positions(self, fib):
        seed = admissible_seeds(fib)[0]
        small = build_window(fib, seed, 30)
        large = build_window(fib, seed, 300)
        assert segment(large, small.lo, small.hi) == small.content

    def test_self_consistency(self):
        for m, _ in RULED:
            w = window_of(m, radius=60)
            e = w.seed.power
            left, right = w.tower[e]
            grown_left, grown_right = left, right
            for _ in range(e):
                grown_left = m.apply(grown_left)
                grown_right = m.apply(grown_right)
            assert grown_left + grown_right == w.content

    def test_size_cap(self, fib, monkeypatch):
        """The window cap is always on: build_window takes no cap argument
        and refuses a step past fixedpoint.WINDOW_MAX_LETTERS."""
        monkeypatch.setattr(fixedpoint, "WINDOW_MAX_LETTERS", 500)
        seed = admissible_seeds(fib)[0]
        with pytest.raises(CapExceeded, match="exceeds cap 500$"):
            build_window(fib, seed, 10_000)

    def test_min_level(self, fib):
        seed = admissible_seeds(fib)[0]
        w = build_window(fib, seed, 2, min_level=9)
        assert w.max_level >= 9


class TestCutPosition:
    def test_spec_values(self, fib):
        w = window_of(fib)
        assert cut_map(w, 1)[2] == 3
        assert cut_map(w, 2)[1] == 3
        for p in range(0, 5):
            assert cut_map(w, p)[0] == 0

    def test_monotone(self):
        for m, _ in RULED:
            w = window_of(m)
            for p in (1, 2, 3):
                f = cut_map(w, p)
                values = [f[i] for i in range(-10, 11)]
                assert values == sorted(values)
                assert len(set(values)) == len(values)

    def test_level_unavailable(self, fib):
        w = build_window(fib, admissible_seeds(fib)[0], 10)
        with pytest.raises(InputError, match=rf"level {w.max_level + 1} unavailable"):
            cutting_points(w, w.max_level + 1)


class TestCuttingPoints:
    def test_fib_level_one(self, fib):
        w = window_of(fib)
        cuts = cutting_points(w, 1)
        visible = [(p, fib.decode(c)) for p, (_, c) in cuts.items() if 0 <= p < 8]
        assert visible == [(0, "a"), (2, "b"), (3, "a"), (5, "a"), (7, "b")]

    def test_fib_level_two(self, fib):
        w = window_of(fib)
        assert [p for p in cutting_points(w, 2) if 0 <= p < 8] == [0, 3, 5]

    def test_level_zero_is_identity(self, fib):
        w = build_window(fib, admissible_seeds(fib)[0], 20)
        cuts = cutting_points(w, 0)
        assert list(cuts) == list(range(w.lo, w.hi))
        assert [i for i, _ in cuts.values()] == list(cuts)
        assert "".join(c for _, c in cuts.values()) == w.content

    def test_oracle_agreement(self):
        for m, rules in RULED:
            seed = admissible_seeds(m)[0]
            w = build_window(m, seed, 100)
            steps = w.max_level // seed.power
            oracle = OracleWindow(
                rules, m.decode(seed.left), m.decode(seed.right), seed.power, steps
            )
            for p in (1, 2, 3):
                expected = oracle.cuts(p)
                got = {pos: m.decode(c) for pos, (_, c) in cutting_points(w, p).items()}
                assert got == expected


class TestStructuralInvariants:
    def test_nesting(self):
        for m, _ in RULED:
            w = window_of(m)
            for p in range(1, min(w.max_level, 5)):
                finer = set(cutting_points(w, p))
                coarser = set(cutting_points(w, p + 1))
                assert coarser <= finer

    def test_gap_bounds(self):
        for m, _ in RULED:
            w = window_of(m)
            for p in (1, 2, 3, 4):
                widest, narrowest = extreme_lengths(m, p)
                positions = list(cutting_points(w, p))
                gaps = [b - a for a, b in zip(positions, positions[1:])]
                assert all(narrowest <= g <= widest for g in gaps)

    def test_refactorization(self):
        for m, _ in RULED:
            w = window_of(m)
            for p in (1, 2, 3):
                images = power(m, p).images
                for pos, (_, pre) in list(cutting_points(w, p).items())[1:-1]:
                    block = images[ord(pre)]
                    if pos + len(block) <= w.hi:
                        assert segment(w, pos, pos + len(block)) == block

    def test_composition_right_half(self):
        # on the right ray all tower levels describe the same one-sided
        # fixed point, so the level maps compose exactly
        for m, _ in RULED:
            w = window_of(m, radius=400, min_level=8)
            f1 = cut_map(w, 1)
            for p in range(1, 6):
                if p + 1 > w.max_level:
                    break
                fp, fnext = cut_map(w, p), cut_map(w, p + 1)
                for i in range(0, 50):
                    if i in fp and i in fnext and fp[i] in f1:
                        assert f1[fp[i]] == fnext[i]

    def test_composition_window_granularity(self):
        # both halves compose at multiples of the seed power, where the
        # two-sided word genuinely is a fixed point
        for m, _ in RULED:
            w = window_of(m, radius=600, min_level=12)
            e = w.seed.power
            fe = cut_map(w, e)
            for big_p in range(e, w.max_level - e + 1, e):
                fp, fnext = cut_map(w, big_p), cut_map(w, big_p + e)
                for i in range(-30, 31):
                    if i in fp and i in fnext and fp[i] in fe:
                        assert fe[fp[i]] == fnext[i]


class TestInterpretationLengthBounds:
    def test_lemma_containment_small(self):
        """Inner length t of a tight interpretation of sigma^n(u):
        ceil(<sigma^n>|u| / |sigma^n|) - 2 <= t <= floor(|sigma^n||u| / <sigma^n>)."""
        from subrec import interpretations

        for m, _ in RULED:
            lang_window = window_of(m, radius=120)
            factors = {
                segment(lang_window, i, i + n)
                for n in range(1, 9)
                for i in range(0, 40)
            }
            for n in (1, 2):
                sigma_n = power(m, n)
                widest, narrowest = extreme_lengths(m, n)
                for u in factors:
                    image = sigma_n.apply(u)
                    t_min = -(-narrowest * len(u) // widest) - 2
                    t_max = widest * len(u) // narrowest
                    for interp in interpretations(sigma_n, image):
                        assert t_min <= len(interp.core) - 2 <= t_max


FIB_SEED = FixedPointSeed(2, "\0", "\0")
IDENTITY = parse_morphism("a -> a")


class TestRefusals:
    """Each library refusal of build_window: its exact class and message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: build_window(zoo.FIBONACCI, FIB_SEED, 0), InputError,
                     "radius must be >= 1", id="radius"),
        pytest.param(lambda: build_window(zoo.FIBONACCI, FIB_SEED._replace(power=0), 8),
                     InputError, "seed power must be >= 1", id="seed-power"),
        pytest.param(lambda: build_window(zoo.FIBONACCI, FIB_SEED._replace(left="\2"), 8),
                     InputError, "seed letter out of range", id="seed-letter"),
        pytest.param(lambda: build_window(zoo.FIBONACCI, FixedPointSeed(1, "\1", "\0"), 8),
                     InputError, "sigma^1(b) does not end with it", id="seed-end"),
        pytest.param(lambda: build_window(IDENTITY, FixedPointSeed(1, "\0", "\0"), 8),
                     InputError, "images of length 1 only: no growing fixed point", id="identity"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(SubrecError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
