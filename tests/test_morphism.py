import random
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from subrec import (
    admissible_seeds,
    build_window,
    extreme_lengths,
    factor_language,
    image_lengths,
    incidence_matrix,
    is_primitive,
    parse_morphism,
    power,
    power_scaled_constant,
    wielandt_bound,
)
from subrec import zoo
from subrec.errors import CapExceeded, InputError, MorphismSyntaxError, SubrecError
from subrec.morphism import IncidenceMatrix, Morphism, end_letters, length_rows

from oracles import (
    FIB_RULES,
    TM_RULES,
    TRIB_RULES,
    expand,
    first_positive_power,
    random_primitive_rules,
)

ZOO = [zoo.FIBONACCI, zoo.THUE_MORSE, zoo.TRIBONACCI, zoo.COLLAPSING]


class TestParsing:
    def test_fibonacci(self):
        m = parse_morphism("a -> a b\nb -> a")
        assert m.letters == ("a", "b")
        assert m.decode(m.images[0]) == "ab"
        assert m.decode(m.images[1]) == "a"

    def test_comments_and_blank_lines(self):
        m = parse_morphism("# Fibonacci\n\na -> a b\n  # indented comment\nb -> a\n")
        assert m.size == 2

    def test_bracketed_tokens(self):
        m = parse_morphism("[one] -> [one] [two]\n[two] -> [one]")
        assert m.letters[0] == "[one]"
        assert m.decode(m.images[0]) == "[one] [two]"
        # the separator is chosen per word: a space only when one of the
        # word's own tokens is longer than a character
        mixed = parse_morphism("[x] -> [x] [y]\n[y] -> a\na -> [x]")
        assert [mixed.decode(mixed.encode(w)) for w in ("aa", "[x] a", "")] == ["aa", "[x] a", ""]

    def test_alphabet_order_is_lhs_order(self):
        m = parse_morphism("z -> z a\na -> z")
        assert m.letters == ("z", "a")

    def test_empty_image(self):
        with pytest.raises(MorphismSyntaxError, match="rule for 'a' has an empty image"):
            parse_morphism("a -> \n")

    def test_unknown_letter(self):
        with pytest.raises(MorphismSyntaxError, match="no rule for letter 'c'") as exc:
            parse_morphism("a -> a c")
        assert exc.value.line == 1
        assert exc.value.column == 8

    def test_duplicate_rule(self):
        with pytest.raises(MorphismSyntaxError, match="duplicate rule for 'a'"):
            parse_morphism("a -> a\na -> a a")

    def test_missing_arrow(self):
        with pytest.raises(MorphismSyntaxError) as exc:
            parse_morphism("a = a b")
        assert exc.value.line == 1

    def test_multichar_token_rejected(self):
        with pytest.raises(MorphismSyntaxError):
            parse_morphism("ab -> ab")

    def test_combining_mark_is_one_token(self):
        m = parse_morphism("é -> é")
        assert m.size == 1

    def test_combining_mark_encodes_contiguously(self):
        acute = "e\u0301"  # e, then a combining acute accent: one token
        m = parse_morphism(f"{acute} -> {acute} b\nb -> {acute} [c]\n[c] -> b")
        for n in range(1, 7):
            for w in factor_language(m, n):
                assert m.encode("".join(m.letters[ord(c)] for c in w)) == w

    def test_decode_refuses_unencoded_word(self, fib):
        # "a" is a display token, not the index-encoded letter chr(0)
        with pytest.raises(InputError, match=r"character 'a' .*Morphism\.encode"):
            fib.decode("a")


class TestApply:
    def test_fib_ab(self, fib):
        assert fib.decode(fib.apply(fib.encode("ab"))) == "aba"

    def test_empty_word(self, fib):
        assert fib.apply("") == ""

    def test_tm_ba(self, tm):
        assert tm.decode(tm.apply(tm.encode("ba"))) == "baab"

    @given(st.data())
    def test_homomorphism(self, data):
        m = data.draw(st.sampled_from(ZOO))
        letters = [chr(i) for i in range(m.size)]
        u = data.draw(st.text(alphabet=letters, max_size=20))
        v = data.draw(st.text(alphabet=letters, max_size=20))
        assert m.apply(u + v) == m.apply(u) + m.apply(v)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 128, 200, 300])
    def test_blocks_match_oracle(self, length):
        """Words spanning several memoized blocks expand as the literal
        join loop does, on first use and from the memo."""
        rng = random.Random(length)
        for m, rules in ((zoo.FIBONACCI, FIB_RULES), (zoo.TRIBONACCI, TRIB_RULES)):
            word = "".join(rng.choice(sorted(rules)) for _ in range(length))
            for _ in range(2):
                assert m.decode(m.apply(m.encode(word))) == expand(rules, word)


class TestIterate:
    def test_two_steps(self, fib):
        assert fib.decode(power(fib, 2).images[0]) == "aba"

    def test_cap_uses_predicted_length(self, fib):
        # both rays of the window a.a grow one sigma-step at a time; the
        # step to sigma^29(a) on each side, 2 F(31) letters, is the first
        # past the cap and is refused with its length read off the matrix
        seed = admissible_seeds(fib)[0]
        with pytest.raises(CapExceeded, match=f"^word of length {2 * 1346269} exceeds cap {2_000_000}$"):
            build_window(fib, seed, 10**9)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_matrix_word_agreement(self, n):
        for m, rules in [(zoo.FIBONACCI, FIB_RULES), (zoo.THUE_MORSE, TM_RULES), (zoo.TRIBONACCI, TRIB_RULES)]:
            for letter in sorted(rules):
                expanded = expand(rules, letter, n)
                assert len(expanded) == image_lengths(m, n)[ord(m.encode(letter))]


class TestExtremeLengths:
    def test_fib(self, fib):
        assert extreme_lengths(fib, 1) == (2, 1)
        assert extreme_lengths(fib, 4) == (8, 5)

    def test_power_zero(self):
        for m in ZOO:
            assert extreme_lengths(m, 0) == (1, 1)

    @pytest.mark.parametrize("m_pow", range(1, 20))
    def test_submultiplicativity(self, m_pow):
        for morph in ZOO:
            for n_pow in range(1, 21 - m_pow):
                wide_m, narrow_m = extreme_lengths(morph, m_pow)
                wide_n, narrow_n = extreme_lengths(morph, n_pow)
                wide_mn, narrow_mn = extreme_lengths(morph, m_pow + n_pow)
                assert wide_mn <= wide_m * wide_n
                assert narrow_mn >= narrow_m * narrow_n


class TestIncidence:
    def test_fib(self, fib):
        assert incidence_matrix(fib).rows == ((1, 1), (1, 0))

    def test_tm(self, tm):
        assert incidence_matrix(tm).rows == ((1, 1), (1, 1))

    def test_coll(self, coll):
        assert incidence_matrix(coll).rows == ((0, 0, 1), (1, 1, 1), (1, 1, 0))

    def test_column_sums_are_image_lengths(self):
        for m in ZOO:
            assert incidence_matrix(m).column_sums() == tuple(len(im) for im in m.images)


class TestPrimitivity:
    def test_fib_witness(self, fib):
        assert is_primitive(incidence_matrix(fib)) == 2

    def test_coll_witness(self, coll):
        assert is_primitive(incidence_matrix(coll)) == 3

    def test_not_primitive(self):
        m = parse_morphism("a -> a b\nb -> b")
        assert is_primitive(incidence_matrix(m)) is None

    def test_wielandt_bound_value(self):
        assert wielandt_bound(3) == 5

    def test_against_oracle_on_random_sample(self):
        # the exhaustive 512-matrix sweep is in the acceptance suite
        for bits in range(0, 512, 7):
            rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            witness = is_primitive(IncidenceMatrix(tuple(tuple(r) for r in rows)))
            assert witness == first_positive_power(rows, 64)

    @given(
        st.integers(4, 7).flatmap(
            lambda d: st.lists(
                st.lists(st.sampled_from((0, 0, 1, 2)), min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            )
        )
    )
    def test_against_oracle_on_random_matrices(self, rows):
        witness = is_primitive(IncidenceMatrix(tuple(tuple(r) for r in rows)))
        assert witness == first_positive_power(rows, wielandt_bound(len(rows)))


class TestSteppedExponents:
    """length_rows and end_letters step sigma^n from sigma^(n-1); the
    oracle expands every image literally, one step at a time."""

    @given(st.integers(0, 2**32))
    def test_match_expanded_images(self, seed):
        rules = random_primitive_rules(random.Random(seed), 1, (2, 5), (1, 3))[0]
        m = parse_morphism("\n".join(f"{a} -> {' '.join(w)}" for a, w in rules.items()))
        words = list(m.letters)  # sigma^0 of each letter, in index order
        for n, row, (e, first, last) in zip(range(13), length_rows(m), end_letters(m)):
            assert e == n
            assert row == [len(w) for w in words], (rules, n)
            assert first == [m.letters.index(w[0]) for w in words], (rules, n)
            assert last == [m.letters.index(w[-1]) for w in words], (rules, n)
            words = [expand(rules, w) for w in words]

    def test_rows_are_image_lengths(self):
        for m in ZOO:
            for n, row in enumerate(islice(length_rows(m), 30)):
                assert tuple(row) == image_lengths(m, n)


class TestSeeds:
    def test_fib(self, fib):
        seeds = admissible_seeds(fib)
        decoded = [(s.power, fib.decode(s.left), fib.decode(s.right)) for s in seeds]
        assert decoded == [(2, "a", "a"), (2, "b", "a")]

    def test_tm_all_four(self, tm):
        seeds = admissible_seeds(tm)
        assert len(seeds) == 4
        assert {s.power for s in seeds} == {2}

    def test_coll_includes_bb(self, coll):
        seeds = admissible_seeds(coll)
        pairs = {(coll.decode(s.left), coll.decode(s.right)) for s in seeds}
        assert ("b", "b") in pairs

    def test_requires_primitive(self):
        m = parse_morphism("a -> a b\nb -> b")
        with pytest.raises(InputError, match="the morphism is not primitive"):
            admissible_seeds(m)

    def test_single_letter(self):
        # the one-letter language closes to {aa}, so aa is admissible
        m = parse_morphism("a -> a a")
        assert [(s.power, m.decode(s.left + s.right)) for s in admissible_seeds(m)] == [(1, "aa")]

    def test_identity_has_none(self):
        # the one primitive morphism whose fixed point does not grow
        assert admissible_seeds(parse_morphism("a -> a")) == []

    def test_found_within_alphabet_squared(self):
        """The scan ends by #A^2 (see admissible_seeds): for a factor cd and
        k >= #A, the last letter a of sigma^k(c) and the first letter b of
        sigma^k(d) lie on cycles of the last- and first-letter maps, ab is
        a factor, and the lcm e <= #A^2 of the two cycle lengths makes
        (e, a, b) a seed."""
        drawn = random_primitive_rules(random.Random(28), 90, (2, 5), (1, 4))
        for rules in drawn:
            m = parse_morphism("\n".join(f"{a} -> {' '.join(w)}" for a, w in rules.items()))
            if m.widest < 2:
                continue
            seeds = admissible_seeds(m)
            assert seeds and seeds[0].power <= m.size**2, rules

    def test_seed_validity_invariant(self):
        for m in ZOO:
            for seed in admissible_seeds(m):
                images = power(m, seed.power).images
                assert images[ord(seed.left)].endswith(seed.left)
                assert images[ord(seed.right)].startswith(seed.right)
                assert seed.left + seed.right in factor_language(m, 2)


class TestPowerScaledConstant:
    def test_examples(self):
        assert power_scaled_constant(1, 3, 2) == 7
        assert power_scaled_constant(5, 1, 9) == 5
        assert power_scaled_constant(2, 2, 3) == 8

    def test_degenerate_width(self):
        with pytest.raises(InputError, match=r"widest image length is 1 \(periodic fixed point\)"):
            power_scaled_constant(3, 2, 1)


FIB = zoo.FIBONACCI


class TestRefusals:
    """Each library refusal of this module: its exact class and message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: Morphism((), ()), InputError, "empty alphabet", id="no-letters"),
        pytest.param(lambda: Morphism(("a",), ()), InputError,
                     "one image per letter required", id="no-image"),
        pytest.param(lambda: Morphism(("a", "a"), ("\0", "\0")), InputError,
                     "display tokens must be pairwise distinct", id="same-tokens"),
        pytest.param(lambda: Morphism(("a",), ("",)), InputError,
                     "image of letter 'a' is empty", id="empty-image"),
        pytest.param(lambda: Morphism(("a",), ("\1",)), InputError,
                     "image of 'a' uses an unknown letter", id="image-past-alphabet"),
        pytest.param(lambda: FIB.encode("[ab"), InputError,
                     "unterminated bracket token in '[ab'", id="encode-bracket"),
        pytest.param(lambda: FIB.encode("abc"), InputError,
                     "unknown letter 'c'", id="encode-unknown"),
        pytest.param(lambda: parse_morphism("a -> a [b\n"), MorphismSyntaxError,
                     "line 1, column 8: bad token '[b'", id="parse-image-token"),
        pytest.param(lambda: parse_morphism("# a comment\n\n"), MorphismSyntaxError,
                     "line 1, column 1: no rules found", id="parse-no-rules"),
        pytest.param(lambda: incidence_matrix(FIB).power(-1), InputError,
                     "negative matrix power", id="matrix-power"),
        pytest.param(lambda: power(FIB, 0), InputError, "power must be >= 1", id="power"),
        pytest.param(lambda: power_scaled_constant(1, 0, 2), InputError,
                     "k must be >= 1", id="scaled-k"),
        pytest.param(lambda: power_scaled_constant(1, 1, 0), InputError,
                     "widest must be >= 1", id="scaled-widest"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(SubrecError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
