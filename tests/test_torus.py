import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from knotgrp import torus
from knotgrp.errors import BudgetError, InputError
from knotgrp.invariants import builtin_table, evaluate_word_in_quotient
from knotgrp.presentation import free_product_presentation, torus_presentation
from knotgrp.torus import (
    AB,
    INFINITE,
    FreeProductNormalForm,
    TorusNormalForm,
    TorusParams,
    enumerate_reduced_words,
    free_product_normal_form,
    is_central,
    max_torsion_order,
    order_in_free_product,
    torus_normal_form,
    words_equal_in_torus_group,
)
from knotgrp.words import Word, parse_word


def w(text: str) -> Word:
    return parse_word(text, AB)


ab_raw = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=-7, max_value=7)),
    max_size=10,
)


def reference_normal_form(m, n, word):
    """The splitting/merging rewriting, applied literally to a fixed point."""
    mod = {0: m, 1: n}

    def merge(syls):
        out = []
        for g, e in syls:
            if e == 0:
                continue
            if out and out[-1][0] == g:
                s = out[-1][1] + e
                out.pop()
                if s:
                    out.append((g, s))
            else:
                out.append((g, e))
        return out

    t = 0
    current = merge(list(word.syllables))
    while True:
        split = []
        for g, e in current:
            q, r = divmod(e, mod[g])
            t += q
            if r:
                split.append((g, r))
        merged = merge(split)
        if merged == split:
            return t, tuple(merged)
        current = merged


class TestParams:
    def test_accepts_coprime(self):
        TorusParams(2, 3)
        TorusParams(1, 4)

    def test_rejects_common_factor(self):
        with pytest.raises(InputError, match="gcd"):
            TorusParams(2, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            TorusParams(0, 3)

    def test_rejects_non_integers(self):
        for m, n in ((2.0, 3), (2, "3"), (None, 3)):
            with pytest.raises(InputError, match="must be integers"):
                TorusParams(m, n)
        assert type(TorusParams(True, 2).m) is int

    def test_every_entry_point_refuses_non_integer_orders(self):
        entry_points = (
            lambda m, n: free_product_normal_form(m, n, w("a b")),
            lambda m, n: order_in_free_product(m, n, w("a b")),
            lambda m, n: list(enumerate_reduced_words(m, n, 2)),
            lambda m, n: max_torsion_order(m, n, 2),
            free_product_presentation,
            torus_presentation,
        )
        for call in entry_points:
            for m, n in ((2.0, 3), (2, "3"), (2.5, 3)):
                with pytest.raises(InputError, match="must be integers"):
                    call(m, n)
            with pytest.raises(InputError, match="must be positive"):
                call(0, 3)


class TestTorusNormalForm:
    def test_relator_is_identity(self):
        nf = torus_normal_form(TorusParams(2, 3), w("a^2 b^-3"))
        assert nf == TorusNormalForm(0, ())
        assert nf.is_identity()

    def test_central_powers(self):
        p = TorusParams(2, 3)
        assert torus_normal_form(p, w("a^2")) == TorusNormalForm(1, ())
        assert torus_normal_form(p, w("b^3")) == TorusNormalForm(1, ())

    def test_negative_exponents_use_floor_residues(self):
        p = TorusParams(2, 3)
        assert torus_normal_form(p, w("a^-1")) == TorusNormalForm(-1, ((0, 1),))
        assert torus_normal_form(p, w("b^-2")) == TorusNormalForm(-1, ((1, 1),))

    def test_commutator_is_not_identity(self):
        p = TorusParams(2, 3)
        nf = torus_normal_form(p, w("a b a^-1 b^-1"))
        assert not nf.is_identity()
        # witness homomorphism into S3: an involution and a 3-cycle
        table = builtin_table("S3")
        pres = torus_presentation(2, 3)
        witnesses = [
            (x, y)
            for x in range(6)
            for y in range(6)
            if x and y and table.mul[x][x] == 0 and table.mul[table.mul[y][y]][y] == 0
            and table.mul[y][y] != 0
        ]
        assert any(
            evaluate_word_in_quotient(pres, w("a b a^-1 b^-1"), {0: x, 1: y}, table) != 0
            for x, y in witnesses
        )

    def test_degenerate_m1_collapses_a(self):
        p = TorusParams(1, 5)
        nf = torus_normal_form(p, w("a^3 b^2 a^-1 b^4"))
        assert all(g == 1 for g, _ in nf.syllables)
        assert len(nf.syllables) <= 1
        # the group is infinite cyclic generated by b: b^j -> (j // 5, b^(j % 5))
        assert torus_normal_form(p, w("b^7")) == TorusNormalForm(1, ((1, 2),))

    def test_foreign_generator(self):
        p = TorusParams(2, 3)
        with pytest.raises(InputError, match="other than a, b"):
            torus_normal_form(p, Word([(2, 1)]))

    def test_printing(self):
        assert str(TorusNormalForm(0, ())) == "e"
        assert str(TorusNormalForm(2, ((0, 1), (1, 2)))) == "c^2 · a b^2"
        assert str(TorusNormalForm(1, ())) == "c"

    def test_printing_refuses_ids_other_than_a_and_b(self):
        for form, gid in ((FreeProductNormalForm(((2, 1),)), 2), (TorusNormalForm(0, ((-1, 1),)), -1)):
            with pytest.raises(InputError, match=rf"other than a, b \(id {gid}\)"):
                str(form)

    def test_value_semantics(self):
        built = torus_normal_form(TorusParams(2, 3), w("a^3 b^-1"))
        made = TorusNormalForm(0, ((0, 1), (1, 2)))
        assert built == made and hash(built) == hash(made)
        assert built != TorusNormalForm(1, ((0, 1), (1, 2))) and built != made.syllables
        assert built.syllables == ((0, 1), (1, 2)) and built.central_exponent == 0
        assert built == (0, ((0, 1), (1, 2)))
        assert repr(built) == "TorusNormalForm(central_exponent=0, syllables=((0, 1), (1, 2)))"
        assert pickle.loads(pickle.dumps(built)) == built
        with pytest.raises(AttributeError):
            built.central_exponent = 1

    def test_negative_generator_id(self):
        with pytest.raises(InputError, match="other than a, b"):
            torus_normal_form(TorusParams(2, 3), Word([(-1, 1)]))

    @given(ab_raw, st.sampled_from([(2, 3), (3, 4), (3, 5), (1, 4), (5, 2)]))
    def test_matches_reference_rewriting(self, raw, mn):
        m, n = mn
        word = Word(raw)
        got = torus_normal_form(TorusParams(m, n), word)
        t, syl = reference_normal_form(m, n, word)
        assert (got.central_exponent, got.syllables) == (t, syl)


class TestWordProblem:
    def test_central_power_equalities(self):
        p = TorusParams(2, 3)
        # a^2 b^3 = c^2 = b^6
        assert words_equal_in_torus_group(p, w("a^2 b^3"), w("b^6"))
        assert torus_normal_form(p, w("a^2 b^3")) == TorusNormalForm(2, ())

    def test_syntactic_equality(self):
        p = TorusParams(3, 4)
        assert words_equal_in_torus_group(p, w("a b a"), w("a b a"))

    def test_ab_differs_from_ba(self):
        for m, n in ((2, 3), (3, 4), (3, 5)):
            assert not words_equal_in_torus_group(TorusParams(m, n), w("a b"), w("b a"))

    def test_insertion_of_conjugated_relator(self):
        rng = random.Random(3)
        for m, n in ((2, 3), (3, 4), (3, 5), (1, 4)):
            p = TorusParams(m, n)
            relator = Word([(0, m), (1, -n)])
            for _ in range(1000):
                raw = [
                    (rng.randint(0, 1), rng.choice([e for e in range(-4, 5) if e]))
                    for _ in range(rng.randint(0, 8))
                ]
                word = Word(raw)
                cut = rng.randint(0, len(word.syllables))
                left = Word(word.syllables[:cut])
                right = Word(word.syllables[cut:])
                conj = Word(
                    [(rng.randint(0, 1), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
                )
                inserted = left * conj * (relator ** rng.choice((1, -1))) * conj.inverse() * right
                assert torus_normal_form(p, inserted) == torus_normal_form(p, word)


class TestCentrality:
    def test_central_examples(self):
        p = TorusParams(2, 3)
        assert is_central(p, w("a^2"))
        assert is_central(p, w("b^6"))
        assert not is_central(p, w("a"))

    def test_central_iff_commutes_small(self):
        p = TorusParams(2, 3)
        candidates = [w(t) for t in ("a", "b", "a b", "b a", "a^2", "b^3", "a^4 b^-3", "a b a")]
        for word in candidates:
            commutes = all(
                words_equal_in_torus_group(p, word * g, g * word) for g in (w("a"), w("b"))
            )
            assert commutes == is_central(p, word)

    def test_degenerate_all_central(self):
        p = TorusParams(1, 6)
        for text in ("a", "b", "a b^3", "b^-2 a^5"):
            assert is_central(p, w(text))


class TestHomConsistency:
    """Equal normal forms must imply equal images under any assignment
    a -> x, b -> y with x^m = y^n; a failure falsifies the rewriting."""

    @staticmethod
    def _pow(table, x, k):
        acc = table.identity
        for _ in range(k):
            acc = table.mul[acc][x]
        return acc

    def test_words_with_equal_forms_have_equal_images(self):
        rng = random.Random(17)
        table = builtin_table("S4")
        for m, n in ((2, 3), (3, 4)):
            pres = torus_presentation(m, n)
            params = TorusParams(m, n)
            assignments = [
                {0: x, 1: y}
                for x in range(table.order)
                for y in range(table.order)
                if self._pow(table, x, m) == self._pow(table, y, n)
            ]
            rng.shuffle(assignments)
            assignments = assignments[:20]
            by_form = {}
            for _ in range(400):
                word = Word(
                    [(rng.randint(0, 1), rng.randint(-5, 5)) for _ in range(rng.randint(0, 7))]
                )
                nf = torus_normal_form(params, word)
                key = (nf.central_exponent, nf.syllables)
                images = tuple(
                    evaluate_word_in_quotient(pres, word, assignment, table)
                    for assignment in assignments
                )
                if key in by_form:
                    assert by_form[key] == images
                else:
                    by_form[key] = images
            # sanity: the sample actually produced colliding normal forms
            assert len(by_form) < 400


class TestFreeProductNormalForm:
    def test_mod_reduction(self):
        nf = free_product_normal_form(2, 3, w("a^3 b^4"))
        assert nf.syllables == ((0, 1), (1, 1))

    def test_factor_relation(self):
        nf = free_product_normal_form(2, 3, w("a a"))
        assert nf.is_identity()
        assert str(nf) == "e"

    def test_already_reduced(self):
        nf = free_product_normal_form(2, 3, w("b a b^2 a b"))
        assert nf.syllables == ((1, 1), (0, 1), (1, 2), (0, 1), (1, 1))
        assert str(nf) == "b a b^2 a b"

    def test_coprimality_not_required(self):
        nf = free_product_normal_form(4, 6, w("a^5 b^7"))
        assert nf.syllables == ((0, 1), (1, 1))

    def test_confluence_under_concatenation(self):
        rng = random.Random(5)
        for m, n in ((2, 3), (4, 6), (2, 2), (3, 5)):
            for _ in range(200):
                u = Word([(rng.randint(0, 1), rng.randint(-5, 5)) for _ in range(rng.randint(0, 6))])
                v = Word([(rng.randint(0, 1), rng.randint(-5, 5)) for _ in range(rng.randint(0, 6))])
                direct = free_product_normal_form(m, n, u * v)
                via_forms = free_product_normal_form(
                    m, n, Word(free_product_normal_form(m, n, u).syllables)
                    * Word(free_product_normal_form(m, n, v).syllables)
                )
                assert direct == via_forms


class TestOrders:
    def test_generator_order(self):
        assert order_in_free_product(2, 3, w("a")) == 2

    def test_conjugate_of_torsion(self):
        assert order_in_free_product(2, 3, w("b a b^-1")) == 2

    def test_infinite_order_brute_force(self):
        # oracle: powers of ab keep growing, never reach the identity
        word = w("a b")
        power = Word.identity()
        for k in range(1, 13):
            power = power * word
            nf = free_product_normal_form(2, 3, power)
            assert len(nf.syllables) == 2 * k
        assert order_in_free_product(2, 3, word) == INFINITE

    def test_exponent_order_in_factor(self):
        assert order_in_free_product(6, 4, w("b^2")) == 2
        assert order_in_free_product(6, 4, w("a^2")) == 3

    def test_identity_has_order_one(self):
        assert order_in_free_product(2, 3, w("a a")) == 1

    def test_orders_match_brute_force_powers(self):
        for m, n in ((2, 3), (3, 4), (5, 2)):
            for syl in enumerate_reduced_words(m, n, 3):
                word = Word(syl)
                claimed = order_in_free_product(m, n, word)
                power = Word.identity()
                brute = None
                for k in range(1, 13):
                    power = power * word
                    if free_product_normal_form(m, n, power).is_identity():
                        brute = k
                        break
                if claimed is INFINITE:
                    assert brute is None
                else:
                    assert brute == claimed


class TestMaxTorsion:
    def test_known_maxima(self):
        assert max_torsion_order(2, 3, 4) == 3
        assert max_torsion_order(5, 2, 3) == 5
        assert max_torsion_order(2, 2, 1) == 2

    def test_requires_nontrivial_factors(self):
        with pytest.raises(InputError):
            max_torsion_order(1, 5, 3)

    def test_refuses_non_integer_search_length(self):
        for length in (2.5, "2", None):
            with pytest.raises(InputError, match="search_length must be an integer"):
                max_torsion_order(2, 3, length)
        for length in (0, -1):
            with pytest.raises(InputError, match="search_length must be >= 1"):
                max_torsion_order(2, 3, length)

    def test_word_count_matches_enumeration(self):
        for m in range(2, 7):
            for n in range(2, 7):
                for length in range(1, 7):
                    expected = sum(1 for _ in enumerate_reduced_words(m, n, length))
                    assert torus._reduced_word_count(m, n, length) == expected

    def test_refuses_past_the_word_budget_before_enumerating(self, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(torus, "enumerate_reduced_words", enumerate_nothing)
        for m, n, length in ((97, 101, 4), (97, 101, 10**12), (2, 2, 10**9)):
            with pytest.raises(BudgetError, match="budget"):
                max_torsion_order(m, n, length)


class TestEnumeration:
    def test_counts_at_2_3(self):
        # alternating words: at (2,3) there are 16 of syllable length exactly 2
        words2 = [s for s in enumerate_reduced_words(2, 3, 2) if len(s) == 2]
        # a-run fixed (exp 1), b-run has 2 choices; both orders: ab, ba
        assert len(words2) == 4
        all_words = list(enumerate_reduced_words(2, 3, 6))
        assert len(set(all_words)) == len(all_words)
        assert all(1 <= len(s) <= 6 for s in all_words)

    def test_length_argument_is_checked(self):
        for length in (2.5, "2", None):
            with pytest.raises(InputError, match="max_syllables must be an integer"):
                list(enumerate_reduced_words(2, 3, length))
        assert list(enumerate_reduced_words(2, 3, 0)) == []
        assert list(enumerate_reduced_words(2, 3, -1)) == []
        assert list(enumerate_reduced_words(2, 3, True)) == [((0, 1),), ((1, 1),), ((1, 2),)]

    def test_alternation_and_ranges(self):
        for syl in enumerate_reduced_words(3, 4, 4):
            for (g1, e1), (g2, e2) in zip(syl, syl[1:]):
                assert g1 != g2
            for g, e in syl:
                assert 1 <= e <= (2 if g == 0 else 3)


class TestTrivialCenterOfFreeProduct:
    def test_nonempty_words_fail_to_commute(self):
        for m, n in ((2, 3), (3, 4)):
            a, b = w("a"), w("b")
            for syl in enumerate_reduced_words(m, n, 5):
                word = Word(syl)
                assert any(
                    free_product_normal_form(m, n, word * g)
                    != free_product_normal_form(m, n, g * word)
                    for g in (a, b)
                )


def reference_cyclic_core(m, n, syl):
    """The list-rebuilding conjugation loop that _cyclic_core replaced."""
    mod = {0: m, 1: n}
    current = list(syl)
    while len(current) >= 2 and current[0][0] == current[-1][0]:
        g = current[0][0]
        e = (current[0][1] + current[-1][1]) % mod[g]
        middle = current[1:-1]
        current = middle + ([(g, e)] if e else [])
    return tuple(current)


def reference_order(m, n, word):
    core = reference_cyclic_core(m, n, free_product_normal_form(m, n, word).syllables)
    if len(core) > 1:
        return INFINITE
    if not core:
        return 1
    mod = m if core[0][0] == 0 else n
    return mod // math.gcd(mod, core[0][1])


class TestTorsionClassification:
    def test_cyclic_core_matches_reference_on_conjugates(self):
        from knotgrp.torus import _cyclic_core

        reduced = [Word(syl) for syl in enumerate_reduced_words(3, 4, 4)]
        for core in reduced:
            for g in reduced[::7]:
                word = g * core * g.inverse()
                syl = free_product_normal_form(3, 4, word).syllables
                expected = Word(reference_cyclic_core(3, 4, syl)).syllables
                assert _cyclic_core(3, 4, Word(syl).syllables) == expected
                assert order_in_free_product(3, 4, word) == reference_order(3, 4, word)

    def test_finite_order_implies_short_cyclic_core(self):
        # exhaustive at (2,3), syllable length <= 6
        from knotgrp.torus import _cyclic_core

        for syl in enumerate_reduced_words(2, 3, 6):
            word = Word(syl)
            order = order_in_free_product(2, 3, word)
            if order is not INFINITE:
                assert len(_cyclic_core(2, 3, word.syllables)) <= 1
