"""Per-morphism memo: derived values live on the morphism, are computed
once per analysis, and are freed with it."""

import copy
import cProfile
import gc
import pickle
import traceback
import weakref

import pytest

from subrec import (
    aperiodicity_check,
    certified_constants,
    complexity,
    image_lengths,
    injectivity_exponent,
    is_primitive,
    language_of,
    parse_morphism,
    power_free_index,
    recognizability_bound,
    zoo,
)
from subrec.cli import analyze
from subrec.errors import CapExceeded, InputError
from subrec.language import FactorLanguage, _max_power_exponent, right_prolongable_letter
from subrec.morphism import IncidenceMatrix, Morphism

FIB_TEXT = "a -> a b\nb -> a"
AAB_TEXT = "a -> a a b\nb -> b c a\nc -> c a b"
LONG_A_TEXT = "a -> " + "a " * 65 + "b\nb -> a"  # power-free index past DEFAULT_MAX_K
# N = 11, R = 627: the empirical bound counts p(i) up to 6899
STREAM_TEXT = "f -> u u\np -> f u x\nu -> u x\nx -> x p"


def test_memo_outside_equality_hash_and_repr():
    m = parse_morphism(FIB_TEXT)
    before = repr(m)
    language_of(m).ensure(8)
    image_lengths(m, 20)
    assert m == zoo.FIBONACCI and hash(m) == hash(zoo.FIBONACCI)
    assert repr(m) == before


def test_morphism_is_an_immutable_value():
    m = parse_morphism(FIB_TEXT)
    for field in ("letters", "images", "_memo"):
        with pytest.raises(AttributeError):
            setattr(m, field, ())
        with pytest.raises(AttributeError):
            delattr(m, field)
    assert m.letters == ("a", "b")
    assert (m == "x") is False and m != "x"
    twin = Morphism(m.letters, m.images)
    assert twin is not m and twin == m and hash(twin) == hash(m)
    assert len({m, twin, zoo.FIBONACCI, zoo.THUE_MORSE}) == 2


def test_values_shared_per_instance_not_per_value():
    m, twin = parse_morphism(FIB_TEXT), parse_morphism(FIB_TEXT)
    assert language_of(m) is language_of(m)
    assert certified_constants(m) is certified_constants(m)
    assert language_of(m) is not language_of(twin)


def test_pickle_and_copy_carry_fields_only():
    m = parse_morphism(FIB_TEXT)
    complexity(m, 8)
    for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert twin == m
        assert language_of(twin) is not language_of(m)
        assert complexity(twin, 8) == complexity(m, 8)


def test_morphism_and_language_are_freed():
    m = parse_morphism(AAB_TEXT)
    lang = language_of(m)
    complexity(m, 12)
    aperiodicity_check(m)
    certified_constants(m)
    refs = [weakref.ref(m), weakref.ref(lang)]
    del m, lang
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_one_analysis_runs_each_body_once():
    """Each guard and scan runs once per analysis, also when the power
    scan refuses (LONG_A_TEXT): the refusal is stored and raised again
    for the bound."""
    for text in (AAB_TEXT, LONG_A_TEXT):
        m = parse_morphism(text)  # fresh instance: empty memo
        profile = cProfile.Profile()
        profile.runcall(analyze, m)
        counts = {entry.code: entry.callcount for entry in profile.getstats()}
        assert counts.get(_max_power_exponent.__code__) == 1, text
        assert counts.get(certified_constants.__wrapped__.__code__) == 1
        # the primitivity, aperiodicity and injectivity guards
        assert counts.get(is_primitive.__code__) == 1
        assert counts.get(aperiodicity_check.__wrapped__.__code__) == 1
        assert counts.get(injectivity_exponent.__wrapped__.__code__) == 1
        # the letter and power of the fixed-point ray
        assert counts.get(right_prolongable_letter.__wrapped__.__code__) == 1


def test_fibonacci_analysis_powers_four_exponents():
    """Consecutive exponents are stepped (length_rows); the matrix is
    powered, once each, only for the lone n = 1, 1,024, 2,048 and dQ."""
    profile = cProfile.Profile()
    profile.runcall(analyze, parse_morphism(FIB_TEXT))
    counts = {entry.code: entry.callcount for entry in profile.getstats()}
    assert counts.get(IncidenceMatrix.power.__code__) == 4


def test_refusal_is_stored_and_raised_with_a_fresh_traceback():
    m = parse_morphism(LONG_A_TEXT)
    depths = []
    for _ in range(3):
        with pytest.raises(CapExceeded) as info:
            power_free_index(m)
        depths.append(len(traceback.extract_tb(info.tb)))
    # the first call raises inside the body; later ones only re-raise
    assert depths[0] > depths[1] == depths[2]


def test_closure_expands_each_word_once():
    """The closure applies sigma once per word of the slice, plus the
    expansion steps of its seed: |sigma^5(a)| = 243 is the first image of
    a that holds a 200-letter window."""
    m = parse_morphism(AAB_TEXT)
    lang = language_of(m)
    profile = cProfile.Profile()
    counts = profile.runcall(lang.ensure, 200)
    calls = {entry.code: entry.callcount for entry in profile.getstats()}
    assert counts[200] == 997
    assert calls.get(Morphism.apply.__code__, 0) <= 997 + 5


def test_bound_streams_the_counts_once(monkeypatch):
    """The empirical bound reads every p(i), i <= c = 6899, from one
    stream of L_c, not one per i."""
    streams = []
    streamed_counts = FactorLanguage._streamed_counts

    def counted(lang, n):
        streams.append(n)
        return streamed_counts(lang, n)

    monkeypatch.setattr(FactorLanguage, "_streamed_counts", counted)
    m = parse_morphism(STREAM_TEXT)
    assert recognizability_bound(m, "empirical_exact").Q == 505597640176
    assert streams == [6899]


def test_negative_length_refused():
    with pytest.raises(InputError, match="factor length must be >= 0"):
        language_of(parse_morphism(FIB_TEXT)).ensure(-1)
