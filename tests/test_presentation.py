import pytest

from knotgrp.errors import InputError
from knotgrp.invariants import abelianization, builtin_table, hom_count
from knotgrp.presentation import (
    AddGenerator,
    AddRelation,
    Presentation,
    RemoveGenerator,
    RemoveRelation,
    apply_tietze,
    auto_simplify,
    describe_script,
    evaluate_word_in_quotient,
    format_presentation,
    free_product_presentation,
    parse_presentation,
    substitute,
    torus_presentation,
)
from knotgrp.wirtinger import builtin_diagram, wirtinger_presentation
from knotgrp.words import Alphabet, Word, cyclically_equal, parse_word

SMALL_TARGETS = ("Z2", "Z3", "Z4", "Z5", "Z6", "S3")


def hom_vector(p, targets=SMALL_TARGETS):
    return tuple(hom_count(p, builtin_table(t)) for t in targets)


def words_of(p):
    return [w.syllables for w in p.relators]


class TestConstruction:
    def test_drops_empty_relators(self):
        ab = Alphabet(["a"])
        p = Presentation(ab, [Word.identity(), Word([(0, 2)])])
        assert len(p.relators) == 1

    def test_rejects_foreign_generators(self):
        with pytest.raises(InputError):
            Presentation(Alphabet(["a"]), [Word([(5, 1)])])


class TestTorusPresentation:
    def test_trefoil_parameters(self):
        p = torus_presentation(2, 3)
        assert format_presentation(p) == "gens: a b\nrel: a^2 b^-3"

    def test_degenerate_m1(self):
        p = torus_presentation(1, 5)
        assert words_of(p) == [((0, 1), (1, -5))]
        simplified, _ = auto_simplify(p)
        assert simplified.alphabet.names == ("b",)
        assert simplified.relators == ()

    def test_gcd_violation(self):
        with pytest.raises(InputError, match="gcd"):
            torus_presentation(2, 4)

    def test_nonpositive(self):
        with pytest.raises(InputError):
            torus_presentation(0, 3)
        with pytest.raises(InputError):
            torus_presentation(2, -3)

    def test_swap_has_equal_hom_vector(self):
        for m, n in ((2, 3), (3, 4), (2, 5)):
            assert hom_vector(torus_presentation(m, n)) == hom_vector(torus_presentation(n, m))


class TestFreeProductPresentation:
    def test_z2_star_z3(self):
        p = free_product_presentation(2, 3)
        assert format_presentation(p) == "gens: a b\nrel: a^2\nrel: b^3"

    def test_trivial_factors(self):
        p = free_product_presentation(1, 1)
        assert words_of(p) == [((0, 1),), ((1, 1),)]
        simplified, _ = auto_simplify(p)
        assert simplified.relators == ()
        assert simplified.alphabet.names == ()

    def test_direct_construction(self):
        assert format_presentation(free_product_presentation(3, 4)) == (
            "gens: a b\nrel: a^3\nrel: b^4"
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            free_product_presentation(0, 2)


class TestTietzeMoves:
    def test_empty_script_is_identity(self):
        p = torus_presentation(2, 3)
        assert apply_tietze(p, []) == p

    def test_add_generator_appends_defining_relator(self):
        p = torus_presentation(2, 3)
        q = apply_tietze(p, [AddGenerator("c", parse_word("a b", p.alphabet))])
        assert q.alphabet.names == ("a", "b", "c")
        assert words_of(q)[-1] == ((2, 1), (1, -1), (0, -1))  # c b^-1 a^-1

    def test_add_generator_name_collision(self):
        p = torus_presentation(2, 3)
        with pytest.raises(InputError, match="move 0"):
            apply_tietze(p, [AddGenerator("a", Word([(1, 1)]))])

    def test_add_relation_requires_valid_derivation(self):
        p = torus_presentation(2, 3)
        conjugate = p.relators[0].conjugated_by(parse_word("a", p.alphabet))
        q = apply_tietze(p, [AddRelation(conjugate, ((0, parse_word("a", p.alphabet), 1),))])
        assert len(q.relators) == 2
        with pytest.raises(InputError, match="derivation"):
            apply_tietze(p, [AddRelation(parse_word("b", p.alphabet), ((0, Word.identity(), 1),))])

    def test_remove_relation_checks_derivability(self):
        p = torus_presentation(2, 3)
        dup = apply_tietze(p, [AddRelation(p.relators[0], ((0, Word.identity(), 1),))])
        back = apply_tietze(dup, [RemoveRelation(1, ((0, Word.identity(), 1),))])
        assert back == p
        with pytest.raises(InputError, match="move 0"):
            apply_tietze(p, [RemoveRelation(0, ())])

    def test_remove_generator_requires_defining_relator(self):
        p = torus_presentation(2, 3)  # a^2 b^-3: neither generator has exponent ±1
        with pytest.raises(InputError, match="exactly once"):
            apply_tietze(p, [RemoveGenerator("a", 0)])

    def test_remove_generator_substitutes_everywhere(self):
        text = "gens: a b c\nrel: c = a b\nrel: c^2 a"
        p = parse_presentation(text)
        q = apply_tietze(p, [RemoveGenerator("c", 0)])
        assert q.alphabet.names == ("a", "b")
        assert words_of(q) == [((0, 1), (1, 1), (0, 1), (1, 1), (0, 1))]  # (ab)^2 a

    def test_substitute_handles_negative_exponents(self):
        # a^-2 b with a -> bc: (bc)^-2 b = c^-1 b^-1 c^-1 b^-1 b = c^-1 b^-1 c^-1
        w = Word([(0, -2), (1, 1)])
        out = substitute(w, 0, Word([(1, 1), (2, 1)]))
        assert out.syllables == ((2, -1), (1, -1), (2, -1))


class TestScriptedElimination:
    """Eliminating one arc generator from the trefoil presentation by hand."""

    def test_a3_elimination_reaches_braid_relator(self):
        p = wirtinger_presentation(builtin_diagram("trefoil"))
        # relator 0 (a1 a2 a1^-1 a3^-1) defines a3; after substitution the
        # two remaining relators are mutual inverses, so one is removable
        # with an empty conjugator.
        script = [
            RemoveGenerator("a3", 0),
            RemoveRelation(1, ((0, Word.identity(), -1),)),
        ]
        q = apply_tietze(p, script)
        assert format_presentation(q) == "gens: a1 a2\nrel: a2 a1 a2 a1^-1 a2^-1 a1^-1"


class TestTrefoilScript:
    """The two-step generator change b = a2 a1, a = a1 b."""

    def start(self):
        return parse_presentation("gens: a1 a2\nrel: a2 a1 a2 = a1 a2 a1")

    def script(self, p):
        a1 = p.alphabet.id_of("a1")
        a2 = p.alphabet.id_of("a2")
        return [
            AddGenerator("b", Word([(a2, 1), (a1, 1)])),
            AddGenerator("a", Word([(a1, 1), (2, 1)])),
            RemoveGenerator("a1", 2),
            RemoveGenerator("a2", 1),
        ]

    def test_reaches_torus_form(self):
        p = self.start()
        q = apply_tietze(p, self.script(p))
        assert set(q.alphabet.names) == {"a", "b"}
        assert format_presentation(q) == "gens: b a\nrel: b^3 a^-2"

    def test_script_lines(self):
        p = self.start()
        lines = describe_script(p, self.script(p))
        assert lines == [
            "add generator b = a2 a1",
            "add generator a = a1 b",
            "remove generator a1 using relator 2",
            "remove generator a2 using relator 1",
        ]

    def test_hom_vector_preserved(self):
        p = self.start()
        q = apply_tietze(p, self.script(p))
        assert hom_vector(p, SMALL_TARGETS + ("S4",)) == hom_vector(q, SMALL_TARGETS + ("S4",))


class TestAutoSimplify:
    def test_trefoil_reaches_two_generators(self):
        p = wirtinger_presentation(builtin_diagram("trefoil"))
        q, script = auto_simplify(p)
        assert len(q.alphabet) == 2
        assert len(q.relators) == 1
        expected = parse_word("a2 a1 a2 a1^-1 a2^-1 a1^-1", Alphabet(["a1", "a2"]))
        # rename the surviving generators onto a1, a2 in alphabet order
        mapping = {gen.id: i for i, gen in enumerate(q.alphabet)}
        got = Word([(mapping[g], e) for g, e in q.relators[0].syllables])
        assert cyclically_equal(got, expected, up_to_inversion=True)

    def test_trefoil_script_replays(self):
        p = wirtinger_presentation(builtin_diagram("trefoil"))
        q, script = auto_simplify(p)
        assert apply_tietze(p, script) == q

    def test_five_crossing_matches_final_relator(self):
        p = wirtinger_presentation(builtin_diagram("paper-5crossing"))
        q, script = auto_simplify(p)
        assert [g.name for g in q.alphabet] == ["a3", "a5"]
        assert len(q.relators) == 1
        assert apply_tietze(p, script) == q
        # final relator of the worked example, over generators a2, a5:
        # a2 a5 a2^-1 a5 = a5 a2^-1 a5^-1 a2 a5^-1 a2 a5 a2^-1 a5 a2
        ref = Alphabet(["x", "y"])
        lhs = parse_word("x y x^-1 y", ref)
        rhs = parse_word("y x^-1 y^-1 x y^-1 x y x^-1 y x", ref)
        expected = lhs * rhs.inverse()
        mapping = {q.alphabet.id_of("a3"): 0, q.alphabet.id_of("a5"): 1}
        got = Word([(mapping[g], e) for g, e in q.relators[0].syllables])
        assert cyclically_equal(got, expected, up_to_inversion=True)

    def test_deterministic(self):
        p = wirtinger_presentation(builtin_diagram("paper-5crossing"))
        first = auto_simplify(p)
        second = auto_simplify(p)
        assert first == second

    def test_single_generator_fixed_point(self):
        p = Presentation(Alphabet(["a"]), [])
        q, script = auto_simplify(p)
        assert q == p and script == ()

    def test_trivializes_to_empty_presentation(self):
        p = parse_presentation("gens: a\nrel: a")
        q, script = auto_simplify(p)
        assert q.alphabet.names == ()
        assert q.relators == ()
        assert format_presentation(q) == "gens:"
        assert apply_tietze(p, script) == q

    def test_unused_generator_is_kept(self):
        # dropping a generator that occurs in no relator would change the group
        p = parse_presentation("gens: a b\nrel: a^2")
        q, _ = auto_simplify(p)
        assert q.alphabet.names == ("a", "b")

    def test_cyclic_reduction_and_duplicates(self):
        text = "gens: a b\nrel: a b a^-1 b^-1\nrel: b a^-1 b^-1 a"
        p = parse_presentation(text)
        q, script = auto_simplify(p)
        assert len(q.relators) == 1
        assert apply_tietze(p, script) == q

    def test_huge_relator_power(self):
        p = parse_presentation("gens: c a b\nrel: c^-1 a b a^-1\nrel: c^1000000000")
        q, script = auto_simplify(p)
        assert format_presentation(q) == "gens: a b\nrel: b^1000000000"
        assert len(script) == 3
        assert apply_tietze(p, script) == q

    def test_preserves_invariants(self):
        for name in ("trefoil", "paper-5crossing"):
            p = wirtinger_presentation(builtin_diagram(name))
            q, _ = auto_simplify(p)
            assert abelianization(p) == abelianization(q)
            assert hom_vector(p, SMALL_TARGETS + ("S4",)) == hom_vector(q, SMALL_TARGETS + ("S4",))


class TestTextFormat:
    def test_round_trip(self):
        p = wirtinger_presentation(builtin_diagram("trefoil"))
        assert parse_presentation(format_presentation(p)) == p

    def test_relation_normalization(self):
        p = parse_presentation("gens: a b\nrel: a^2 = b^3")
        assert words_of(p) == [((0, 2), (1, -3))]

    def test_errors(self):
        with pytest.raises(InputError, match="gens"):
            parse_presentation("rel: a")
        with pytest.raises(InputError, match="line 2"):
            parse_presentation("gens: a\nnonsense")


class TestEvaluate:
    def test_empty_word_maps_to_identity(self):
        p = torus_presentation(2, 3)
        table = builtin_table("S3")
        assert evaluate_word_in_quotient(p, Word.identity(), {0: 3, 1: 4}, table) == 0

    def test_generator_maps_to_its_image(self):
        p = torus_presentation(2, 3)
        table = builtin_table("Z5")
        assert evaluate_word_in_quotient(p, Word([(0, 1)]), {0: 2, 1: 0}, table) == 2

    def test_relator_vanishes_under_s3_assignment(self):
        # a -> an involution, b -> a 3-cycle: a^2 b^-3 must evaluate to e
        p = torus_presentation(2, 3)
        table = builtin_table("S3")
        involutions = [x for x in range(table.order) if x and table.mul[x][x] == 0]
        threes = [
            x
            for x in range(table.order)
            if x and table.mul[table.mul[x][x]][x] == 0 and table.mul[x][x] != 0
        ]
        assert involutions and threes
        for a in involutions:
            for b in threes:
                image = evaluate_word_in_quotient(p, p.relators[0], {0: a, 1: b}, table)
                assert image == table.identity

    def test_missing_assignment(self):
        p = torus_presentation(2, 3)
        with pytest.raises(InputError, match="missing"):
            evaluate_word_in_quotient(p, Word([(0, 1)]), {0: 1}, builtin_table("Z5"))

    def test_assignment_out_of_range(self):
        p = torus_presentation(2, 3)
        for bad in (-1, 5):
            with pytest.raises(InputError, match="element index"):
                evaluate_word_in_quotient(p, Word([(0, 1)]), {0: bad, 1: 0}, builtin_table("Z5"))
