import pytest
from hypothesis import example, given, strategies as st

from knotgrp.errors import InputError
from knotgrp.words import (
    Alphabet,
    Word,
    cyclically_equal,
    cyclically_reduce,
    format_word,
    invert,
    multiply,
    parse_word,
    reduce_word,
    rotation_conjugator,
)

AB = Alphabet(["a", "b"])
XY = Alphabet(["x", "y"])

raw_syllables = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-6, max_value=6)),
    max_size=12,
)
words = raw_syllables.map(Word)


class TestAlphabet:
    def test_names_and_ids(self):
        ab = Alphabet(["a", "b1", "C9"])
        assert ab.names == ("a", "b1", "C9")
        assert ab.id_of("b1") == 1
        assert ab.name_of(2) == "C9"

    def test_rejects_bad_names(self):
        for bad in ("", "1a", "a_b", "ab", "a^2"):
            with pytest.raises(InputError):
                Alphabet([bad])

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Alphabet(["a", "a"])

    def test_extend_and_drop_keep_ids(self):
        ab = Alphabet(["a", "b", "c"])
        bigger = ab.extend("d")
        assert bigger.id_of("d") == 3
        smaller = bigger.drop("b")
        assert smaller.names == ("a", "c", "d")
        assert smaller.id_of("c") == 2  # unchanged


class TestParse:
    def test_direct_notation(self):
        assert parse_word("a^2 b^-3", AB).syllables == ((0, 2), (1, -3))

    def test_unreduced_input_reduces(self):
        assert parse_word("x^2 y x^-1 x^6", XY).syllables == ((0, 2), (1, 1), (0, 5))

    def test_cancellation_to_identity(self):
        assert parse_word("a a^-1", AB).is_identity()

    def test_star_separator(self):
        assert parse_word("a*b^2", AB) == parse_word("a b^2", AB)

    def test_unknown_generator(self):
        with pytest.raises(InputError):
            parse_word("a c", AB)

    def test_malformed_exponent(self):
        for bad in ("a^", "a^x", "a^2b", "^2", "2a"):
            with pytest.raises(InputError):
                parse_word(bad, AB)

    def test_empty_text_is_identity(self):
        assert parse_word("", AB).is_identity()


class TestReduce:
    def test_merges_adjacent(self):
        assert reduce_word([(0, 2), (1, 1), (0, -1), (0, 6)]).syllables == ((0, 2), (1, 1), (0, 5))

    def test_free_relator_vanishes(self):
        assert reduce_word([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()

    def test_inverse_pair_vanishes(self):
        assert reduce_word([(0, 3), (0, -3)]).is_identity()

    def test_drops_zero_exponents(self):
        assert reduce_word([(0, 0), (1, 2)]).syllables == ((1, 2),)


class TestMultiplyInvert:
    def test_inverse_pair(self):
        assert (Word([(0, 2)]) * Word([(0, -2)])).is_identity()

    def test_syllable_merge(self):
        assert (Word([(0, 1), (1, 1)]) * Word([(1, 2)])).syllables == ((0, 1), (1, 3))

    def test_identity_element(self):
        w = Word([(0, 1), (1, -2)])
        assert Word.identity() * w == w
        assert w * Word.identity() == w

    def test_invert_reverses_and_negates(self):
        assert invert(Word([(0, 2), (1, -3)])).syllables == ((1, 3), (0, -2))

    def test_invert_identity(self):
        assert invert(Word.identity()).is_identity()

    def test_power(self):
        w = Word([(0, 1), (1, 1)])
        assert w**3 == w * w * w
        assert w**-2 == invert(w * w)
        assert (w**0).is_identity()

    @given(words, st.integers(min_value=-6, max_value=6))
    def test_power_is_repeated_product(self, w, n):
        factor = w if n > 0 else invert(w)
        assert w**n == reduce_word(factor.syllables * abs(n))

    def test_huge_power_of_conjugate(self):
        w = parse_word("a b a^-1", AB)
        assert w ** 10**9 == parse_word(f"a b^{10**9} a^-1", AB)


class TestCyclicReduce:
    def test_direct_conjugate(self):
        core, conj = cyclically_reduce(Word([(0, 1), (1, 2), (0, -1)]))
        assert core.syllables == ((1, 2),)
        assert conj.syllables == ((0, 1),)

    def test_already_reduced(self):
        w = Word([(0, 1), (1, 1)])
        core, conj = cyclically_reduce(w)
        assert core == w and conj.is_identity()

    def test_partial_syllable_strip(self):
        # a^2 b a^-3  ->  conjugator a^2, core b a^-1
        core, conj = cyclically_reduce(Word([(0, 2), (1, 1), (0, -3)]))
        assert conj.syllables == ((0, 2),)
        assert core.syllables == ((1, 1), (0, -1))

    def test_same_sign_ends_stay(self):
        w = Word([(0, 1), (1, 1), (0, 1)])
        core, conj = cyclically_reduce(w)
        assert core == w and conj.is_identity()

    @given(words, st.integers(min_value=0, max_value=3), st.integers(min_value=-4, max_value=4).filter(bool))
    def test_constructed_conjugates_round_trip(self, y, gid, exp):
        z = Word([(gid, exp)])
        w = y * z * y.inverse()
        core, conj = cyclically_reduce(w)
        assert conj * core * conj.inverse() == w
        if not w.is_identity():
            assert core.syllables[0][0] == gid


class TestCyclicEquality:
    def test_rotation(self):
        u = Word([(0, 1), (1, 1), (0, -1), (1, -1)])
        v = Word([(1, 1), (0, -1), (1, -1), (0, 1)])
        assert cyclically_equal(u, v)

    def test_inversion_needs_flag(self):
        u = Word([(0, 1), (1, 2)])
        assert not cyclically_equal(u, u.inverse())
        assert cyclically_equal(u, u.inverse(), up_to_inversion=True)

    @given(words)
    def test_rotation_conjugator_conjugates_onto_each_rotation(self, w):
        syl = w.syllables
        for k in range(max(len(syl), 1)):
            t = Word(syl[k:] + syl[:k])
            y = rotation_conjugator(w, t)
            assert y is not None and y * w * y.inverse() == t

    def test_rotation_conjugator_rejects_non_rotation(self):
        u = Word([(0, 1), (1, 1), (0, -1), (1, -1)])
        assert rotation_conjugator(u, Word([(0, 1), (1, -1), (0, -1), (1, 1)])) is None
        assert rotation_conjugator(u, Word.identity()) is None


class TestParserRobustness:
    @given(st.text(max_size=40))
    @example("a^" + "7" * 5000)
    def test_parse_word_never_crashes(self, text):
        try:
            parse_word(text, AB)
        except InputError:
            pass

    @given(st.text(alphabet="ab^-*0123456789 \t", max_size=30))
    def test_parse_word_notationlike_inputs(self, text):
        try:
            parse_word(text, AB)
        except InputError:
            pass


class TestProperties:
    @given(raw_syllables)
    def test_reduce_idempotent(self, raw):
        once = reduce_word(raw)
        assert reduce_word(once.syllables) == once

    @given(words, words, words)
    def test_multiply_associative(self, u, v, w):
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))

    @given(words, words)
    def test_invert_antihomomorphism(self, u, v):
        assert invert(multiply(u, v)) == multiply(invert(v), invert(u))

    @given(words)
    def test_invert_involution(self, w):
        assert invert(invert(w)) == w

    @given(words)
    def test_parse_print_round_trip(self, w):
        alphabet = Alphabet(["a", "b", "c", "d"])
        assert parse_word(format_word(w, alphabet), alphabet) == w

    @given(words)
    def test_cyclic_reduce_reconstruction(self, w):
        core, conj = cyclically_reduce(w)
        assert multiply(conj, multiply(core, invert(conj))) == w
        again, conj2 = cyclically_reduce(core)
        assert again == core and conj2.is_identity()

    @given(words, words)
    def test_length_subadditive(self, u, v):
        assert len(u * v) <= len(u) + len(v)
