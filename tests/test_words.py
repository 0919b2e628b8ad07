import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from knotgrp import words as words_module
from knotgrp.errors import BudgetError, InputError
from knotgrp.words import (
    Alphabet,
    Word,
    cyclically_equal,
    cyclically_reduce,
    format_word,
    parse_word,
    rotation_conjugator,
    substitute,
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
        # equal, and equally hashed, to the same alphabet reached another way
        for derived, other in (
            (bigger, Alphabet(["a", "b", "c", "d"])),
            (smaller, Alphabet(["a", "b", "c", "d"]).drop("b")),
            (smaller, ab.drop("b").extend("d")),
        ):
            assert derived == other and hash(derived) == hash(other)
            assert [derived.name_of(g.id) for g in other] == list(other.names)
        assert smaller.extend("b").generators[-1] == (4, "b")

    def test_extend_and_drop_refuse_like_the_constructor(self):
        ab = Alphabet(["a", "b"])
        with pytest.raises(InputError, match="^unknown generator 'c'$"):
            ab.drop("c")
        with pytest.raises(InputError, match="^generator name 'a' already in alphabet$"):
            ab.extend("a")
        for bad in ("", "1a", "a_b", "ab"):
            with pytest.raises(InputError, match="^invalid generator name"):
                ab.extend(bad)
        with pytest.raises(InputError, match="^unknown generator 'b'$"):
            ab.drop("b").drop("b")


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
        assert Word([(0, 2), (1, 1), (0, -1), (0, 6)]).syllables == ((0, 2), (1, 1), (0, 5))

    def test_free_relator_vanishes(self):
        assert Word([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()

    def test_inverse_pair_vanishes(self):
        assert Word([(0, 3), (0, -3)]).is_identity()

    def test_drops_zero_exponents(self):
        assert Word([(0, 0), (1, 2)]).syllables == ((1, 2),)


class TestMultiplyInvert:
    def test_inverse_pair(self):
        assert (Word([(0, 2)]) * Word([(0, -2)])).is_identity()

    def test_syllable_merge(self):
        assert (Word([(0, 1), (1, 1)]) * Word([(1, 2)])).syllables == ((0, 1), (1, 3))

    def test_identity_element(self):
        w = Word([(0, 1), (1, -2)])
        assert Word.identity() * w == w
        assert w * Word.identity() == w

    @given(words, words)
    @example(Word([(0, 1), (1, 2)]), Word([(1, -2), (0, -1)]))
    @example(Word([(0, 1), (1, 2)]), Word([(1, -2), (0, 3)]))
    def test_product_merges_like_a_full_reduction(self, u, v):
        assert u * v == Word(u.syllables + v.syllables)

    def test_invert_reverses_and_negates(self):
        assert Word([(0, 2), (1, -3)]).inverse().syllables == ((1, 3), (0, -2))

    def test_invert_identity(self):
        assert Word.identity().inverse().is_identity()

    def test_power(self):
        w = Word([(0, 1), (1, 1)])
        assert w**3 == w * w * w
        assert w**-2 == (w * w).inverse()
        assert (w**0).is_identity()

    @given(words, st.integers(min_value=-6, max_value=6))
    def test_power_is_repeated_product(self, w, n):
        factor = w if n > 0 else w.inverse()
        assert w**n == Word(factor.syllables * abs(n))

    def test_huge_power_of_conjugate(self):
        w = parse_word("a b a^-1", AB)
        assert w ** 10**9 == parse_word(f"a b^{10**9} a^-1", AB)

    def test_power_budget(self):
        with pytest.raises(BudgetError, match="repeat 2 syllables 10000000 times"):
            Word([(0, 1), (1, 1)]) ** 10**7

    def test_huge_power_of_identity(self):
        e = Word.identity()
        assert (e ** 10**19).is_identity() and (e ** -(10**19)).is_identity()
        assert (Word([(0, 1), (0, -1)]) ** 10**19).is_identity()


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


def trial_rotation_conjugator(base, target):
    """rotation_conjugator by trying the rotations one at a time, O(n²)."""
    syl = base.syllables
    for k in range(max(len(syl), 1)):
        if Word(syl[k:] + syl[:k]) == target:
            return Word(syl[:k]).inverse()
    return None


@st.composite
def rotation_pairs(draw):
    """A word, some of them conjugates y·w·y⁻¹ that must be peeled, and a
    target: a random word, or a syllable or letter rotation of the base or
    of its inverse."""
    base = draw(words)
    if draw(st.booleans()):
        y = draw(words)
        base = y * base * y.inverse()
    kind = draw(st.sampled_from(("word", "syllables", "letters")))
    if kind == "word":
        return base, draw(words)
    units = base.syllables
    if kind == "letters":
        units = [(g, 1 if e > 0 else -1) for g, e in units for _ in range(abs(e))]
    k = draw(st.integers(0, max(len(units) - 1, 0)))
    target = Word(list(units[k:]) + list(units[:k]))
    return base, target.inverse() if draw(st.booleans()) else target


class TestCyclicEquality:
    def test_rotation(self):
        u = Word([(0, 1), (1, 1), (0, -1), (1, -1)])
        v = Word([(1, 1), (0, -1), (1, -1), (0, 1)])
        assert cyclically_equal(u, v)

    def test_inversion_needs_flag(self):
        u = Word([(0, 1), (1, 2)])
        assert not cyclically_equal(u, u.inverse())
        assert cyclically_equal(u, u.inverse(), up_to_inversion=True)

    def test_merged_ends_hold_both_ways(self):
        # a b a and a^2 b are letter rotations of each other
        aba, a2b = Word([(0, 1), (1, 1), (0, 1)]), Word([(0, 2), (1, 1)])
        assert cyclically_equal(aba, a2b) and cyclically_equal(a2b, aba)
        assert cyclically_equal(a2b.inverse(), aba, up_to_inversion=True)

    @given(words, words, words, st.booleans())
    def test_conjugacy(self, u, v, y, up_to_inversion):
        assert cyclically_equal(u, v, up_to_inversion) == cyclically_equal(v, u, up_to_inversion)
        conjugate = y * u * y.inverse()
        assert cyclically_equal(u, conjugate) and cyclically_equal(conjugate, u)
        # a nontrivial free-group element is never conjugate to its inverse
        assert cyclically_equal(u, u.inverse()) == u.is_identity()

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

    @given(rotation_pairs())
    @example((Word([(0, 1), (1, 1), (0, 1)]), Word([(1, 1), (0, 2)])))
    @example((Word([(0, 2), (1, 1)]), Word([(0, 1), (1, 1), (0, 1)])))
    @example((Word([(2, 1), (0, 1), (1, 1), (2, -1)]), Word([(1, 1), (0, 1)])))
    @example((Word([(2, 1), (0, 1), (1, 1), (2, -1)]), Word([(0, 1), (1, 1)])))
    @example((Word([(2, 1), (0, 2), (1, 1), (0, -1), (2, -1)]), Word([(1, 1), (0, 1)])))
    @example((Word([(0, 1), (1, 1), (0, 1), (1, 1)]), Word([(0, 1), (1, 1), (0, 1), (1, 1)])))
    @example((Word([(0, 1), (1, 1), (0, 1), (1, 1)]), Word([(1, 1), (0, 1), (1, 1), (0, 1)])))
    def test_rotation_conjugator_matches_trial_rotations(self, pair):
        base, target = pair
        assert rotation_conjugator(base, target) == trial_rotation_conjugator(base, target)

    def test_half_rotation_is_linear(self):
        rng = random.Random(16000)
        syl = [(0, 1)]
        while len(syl) < 16000 or syl[-1][0] == syl[0][0]:
            syl.append((rng.choice([g for g in range(3) if g != syl[-1][0]]), rng.choice((-1, 1, 2))))
        base = Word(syl)
        target = Word(syl[len(syl) // 2 :] + syl[: len(syl) // 2])
        start = time.perf_counter()
        y = rotation_conjugator(base, target)
        elapsed = time.perf_counter() - start
        assert y == Word(syl[: len(syl) // 2]).inverse()
        assert elapsed < 0.25, f"took {elapsed:.3f}s"



def letter_cycle(w):
    """Least rotation of the cyclic core spelled out letter by letter."""
    letters = [(g, 1 if e > 0 else -1) for g, e in cyclically_reduce(w)[0].syllables for _ in range(abs(e))]
    return min((tuple(letters[k:] + letters[:k]) for k in range(len(letters))), default=())


class TestCyclicKey:
    """cyclically_equal against letter_cycle, a conjugacy key built letter
    by letter."""

    @given(words, words)
    @example(Word([(0, 1), (1, 1), (0, 1)]), Word([(0, 2), (1, 1)]))
    @example(Word([(0, 1), (1, 1)] * 3), Word([(1, 1), (0, 1)] * 3))
    @example(Word([(0, 3)]), Word([(0, -3)]))
    def test_equal_keys_iff_conjugate(self, u, v):
        assert cyclically_equal(u, v) == (letter_cycle(u) == letter_cycle(v))
        either = letter_cycle(u) in (letter_cycle(v), letter_cycle(v.inverse()))
        assert cyclically_equal(u, v, up_to_inversion=True) == either

    @given(words, words)
    def test_invariant_under_conjugation_and_rotation(self, w, y):
        syl = w.syllables
        assert cyclically_equal(y * w * y.inverse(), w)
        for k in range(len(syl)):
            assert cyclically_equal(Word(syl[k:] + syl[:k]), w)

    def test_shared_key_does_not_imply_a_rotation(self):
        aba, a2b = Word([(0, 1), (1, 1), (0, 1)]), Word([(0, 2), (1, 1)])
        assert letter_cycle(aba) == letter_cycle(a2b) and cyclically_equal(aba, a2b)
        assert rotation_conjugator(aba, a2b) is not None
        assert rotation_conjugator(a2b, aba) is None

    def test_periodic_word(self):
        ab3 = Word([(0, 1), (1, -1)] * 3)
        assert cyclically_equal(Word(ab3.syllables[1:] + ab3.syllables[:1]), ab3)
        assert not cyclically_equal(Word([(0, 1), (1, -1)] * 2), ab3)
        assert not cyclically_equal(Word([(0, 1), (1, 1)] * 3), ab3, up_to_inversion=True)


class TestSubstitute:
    def test_absent_generator_returns_the_word_itself(self):
        w = Word([(0, 2), (1, -1)])
        assert substitute(w, 2, Word([(0, 1), (1, 1)])) is w

    def test_budget_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(words_module, "MAX_POWER_SYLLABLES", 100)
        w = Word([(0, 1), (1, 1)] * 20)  # twenty occurrences of generator 0
        assert len(substitute(w, 0, Word([(2, 1), (3, 1)]))) == 60
        with pytest.raises(BudgetError, match="substitution"):
            substitute(w, 0, Word([(2, 1), (3, 1)] * 2 + [(2, 1)]))  # 20 + 20·5 > 100
        assert substitute(Word([(0, 10**9)]), 0, Word([(1, 1), (2, 1), (1, -1)])) == Word(
            [(1, 1), (2, 10**9), (1, -1)]
        )

    def test_budget_counts_the_raw_syllables(self, monkeypatch):
        # a b a^-2 cyclically reduces by a partial peel (y = a, core b a^-1),
        # yet an occurrence x^±1 appends exactly its 3 syllables
        monkeypatch.setattr(words_module, "MAX_POWER_SYLLABLES", 3)
        aba2 = Word([(1, 1), (2, 1), (1, -2)])
        assert substitute(Word([(0, 1)]), 0, aba2) == aba2
        assert substitute(Word([(0, -1)]), 0, aba2) == aba2.inverse()
        with pytest.raises(BudgetError, match="would produce 4 syllables"):
            substitute(Word([(0, 1), (3, 1)]), 0, aba2)

    @given(words, st.integers(min_value=0, max_value=4), words)
    @example(Word([(0, 1), (1, 2)]), 0, Word([(1, 1), (2, 1), (1, -2)]))  # partial peel
    @example(Word([(0, -3), (1, 1), (0, 2)]), 0, Word([(1, 1), (2, 1), (1, -2)]))
    @example(Word([(1, 1), (0, -1), (1, -1)]), 0, Word([(1, 1), (2, 1), (1, -1)]))
    @example(Word([(1, 5)]), 0, Word([(2, 1)]))  # absent generator
    def test_matches_a_power_per_occurrence(self, w, gid, replacement):
        naive = Word(
            s
            for g, e in w.syllables
            for s in ((replacement**e).syllables if g == gid else ((g, e),))
        )
        out = substitute(w, gid, replacement)
        assert out == naive
        if all(g != gid for g, _ in w.syllables):
            assert out is w


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


def reference_parse(text, alphabet):
    """The token-by-token parser that parse_word's compiled pass replaced."""
    raw = []
    for token in re.split(r"[\s*]+", text.strip()):
        if not token:
            continue
        m = re.fullmatch(r"([A-Za-z][0-9]*)(?:\^(-?\d+))?", token)
        if m is None:
            raise InputError(f"malformed word token {token!r}")
        name, exp_text = m.group(1), m.group(2)
        gid = alphabet.id_of(name)
        exp = words_module._parse_int(exp_text, "exponent") if exp_text is not None else 1
        raw.append((gid, exp))
    return Word(raw)


def parse_outcome(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except InputError as err:
        return f"InputError: {err}"


ABA12 = Alphabet(["a", "b", "a12"])
_names = st.sampled_from(["a", "b", "a12"])
_valid_tokens = st.one_of(
    _names,
    st.builds("{}^{}".format, _names, st.integers(min_value=-30, max_value=30)),
    st.builds("{}^0{}".format, _names, st.integers(min_value=0, max_value=9)),
)
_bad_tokens = st.sampled_from(["a^^2", "a^", "a^-", "2a", "ab", "a^2b", "^", "c", "x7", "a1", "B"])
_huge_exponents = st.sampled_from(["a^" + "1" * 5000, "b^-" + "9" * 5000, "a^" + "0" * 5000 + "3"])
_pieces = st.one_of(_valid_tokens, _valid_tokens, _bad_tokens, _huge_exponents)
_seps = st.text(alphabet=" \t\n*", max_size=4)


@st.composite
def word_texts(draw):
    pieces = draw(st.lists(_pieces, max_size=8))
    text = draw(_seps)
    for piece in pieces:
        text += piece + draw(st.one_of(_seps.filter(bool), _seps))
    return text


class TestParseEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(word_texts(), st.sampled_from([AB, ABA12]))
    @example("a a^^2 c", AB)
    @example("c a^" + "1" * 5000, AB)
    @example("a^" + "1" * 5000 + " c", AB)
    @example(" \t*a12^-3*\n b ", ABA12)
    def test_same_word_or_same_error_as_token_loop(self, text, alphabet):
        assert parse_outcome(parse_word, text, alphabet) == parse_outcome(reference_parse, text, alphabet)

    @pytest.mark.parametrize(
        "text",
        [
            "a" + "1" * 20000 + "x",
            "a " * 50000 + "a^^",
            "a^" + "9" * 5000,
            " \t*\n" * 25000,
            " \t*\n" * 25000 + "^",
            "a" + " " * 100000 + "a^",
        ],
        ids=["name-digits", "tokens-then-bad", "huge-exponent", "separators", "separators-then-bad", "gap-then-bad"],
    )
    def test_pathological_text_is_linear(self, text):
        start = time.perf_counter()
        try:
            parse_word(text, AB)
        except InputError:
            pass
        assert time.perf_counter() - start < 1.0

    def test_every_alphabet_name_parses(self):
        names = ["a", "Z", "x0", "q123456789"]
        assert parse_word(" ".join(names), Alphabet(names)).syllables == ((0, 1), (1, 1), (2, 1), (3, 1))


class TestProperties:
    @given(raw_syllables)
    def test_reduce_idempotent(self, raw):
        once = Word(raw)
        assert Word(once.syllables) == once

    @given(words, words, words)
    def test_multiply_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(words, words)
    def test_invert_antihomomorphism(self, u, v):
        assert (u * v).inverse() == v.inverse() * u.inverse()

    @given(words)
    def test_invert_involution(self, w):
        assert w.inverse().inverse() == w

    @given(words)
    def test_parse_print_round_trip(self, w):
        alphabet = Alphabet(["a", "b", "c", "d"])
        assert parse_word(format_word(w, alphabet), alphabet) == w

    @given(words)
    def test_cyclic_reduce_reconstruction(self, w):
        core, conj = cyclically_reduce(w)
        assert conj * (core * conj.inverse()) == w
        again, conj2 = cyclically_reduce(core)
        assert again == core and conj2.is_identity()

    @given(words, words)
    def test_length_subadditive(self, u, v):
        assert len(u * v) <= len(u) + len(v)
