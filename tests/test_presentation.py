import hashlib
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from knotgrp import words as words_module
from knotgrp.errors import BudgetError, InputError
from knotgrp import presentation as presentation_module
from knotgrp.invariants import abelianization, builtin_table, evaluate_word_in_quotient, hom_count
from knotgrp.presentation import (
    AddGenerator,
    AddRelation,
    Presentation,
    RemoveGenerator,
    RemoveRelation,
    _apply_move,
    apply_tietze,
    auto_simplify,
    describe_script,
    format_presentation,
    free_product_presentation,
    parse_presentation,
    substitute,
    torus_presentation,
)
from knotgrp.wirtinger import Crossing, KnotDiagram, builtin_diagram, wirtinger_presentation
from knotgrp.words import (
    Alphabet,
    Word,
    cyclically_equal,
    cyclically_reduce,
    format_word,
    parse_word,
    rotation_conjugator,
)

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

    def test_rejects_relators_that_are_not_words(self):
        with pytest.raises(InputError, match="relators must be Word values"):
            Presentation(Alphabet(["a", "b"]), [((0, 1),)])


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

    def test_replay_checks_what_a_move_creates(self):
        p = torus_presentation(2, 3)
        stray = Word([(5, 1)])
        consequence = p.relators[0].conjugated_by(stray)  # derived, but over id 5
        cases = [
            ([AddRelation(consequence, ((0, stray, 1),))],
             "move 0 (AddRelation): relator uses generator id 5 not in alphabet"),
            ([AddGenerator("c", Word([(0, 1), (7, 1)]))],
             "move 0 (AddGenerator): AddGenerator: definition uses unknown generators"),
            ([AddGenerator("c", Word([(0, 1)])), RemoveGenerator("c", 2)],
             "move 1 (RemoveGenerator): RemoveGenerator: relator index 2 out of range"),
            ([RemoveGenerator("c", 0)], "move 0 (RemoveGenerator): unknown generator 'c'"),
            ([AddRelation(p.relators[0], ((1, Word.identity(), 1),))],
             "move 0 (AddRelation): derivation references relator 1 out of range"),
            ([AddRelation(p.relators[0], ((0, Word.identity(), 2),))],
             "move 0 (AddRelation): derivation sign must be +1 or -1, got 2"),
            ([AddRelation(Word.identity(), ())],
             "move 0 (AddRelation): AddRelation: consequence is the empty word"),
            (["junk"], "move 0 (str): unknown Tietze move 'junk'"),
        ]
        for script, message in cases:
            with pytest.raises(InputError) as raised:
                apply_tietze(p, script)
            assert str(raised.value) == message

    def test_input_is_left_unchanged(self):
        p = parse_presentation("gens: a b c\nrel: c = a b\nrel: c^2 a\nrel: a b a")
        before = (p.alphabet.names, p.relators, words_of(p))
        q = apply_tietze(p, [RemoveGenerator("c", 0)])
        assert words_of(q) == [((0, 1), (1, 1), (0, 1), (1, 1), (0, 1)), ((0, 1), (1, 1), (0, 1))]
        failing = [
            ([RemoveGenerator("c", 0), RemoveRelation(5, ())],
             "move 1 (RemoveRelation): RemoveRelation: index 5 out of range"),
            # the relator is popped before its derivation fails
            ([RemoveGenerator("c", 0), RemoveRelation(0, ())],
             "move 1 (RemoveRelation): RemoveRelation: relator is not derived from the remaining ones"),
            ([AddGenerator("d", Word([(0, 1)])), RemoveGenerator("c", 0), RemoveGenerator("d", 7)],
             "move 2 (RemoveGenerator): RemoveGenerator: relator index 7 out of range"),
        ]
        for script, message in failing:
            with pytest.raises(InputError) as raised:
                apply_tietze(p, script)
            assert str(raised.value) == message
        assert (p.alphabet.names, p.relators, words_of(p)) == before

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

    def test_elimination_drops_an_emptied_relator(self):
        # a = b empties a^2 b^-2; simplify and replay both drop it
        p = parse_presentation("gens: a b\nrel: a b^-1\nrel: a^2 b^-2")
        q, script = auto_simplify(p)
        assert script == (RemoveGenerator("a", 0),)
        assert q.alphabet.names == ("b",) and q.relators == ()
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


def closed_2_braid(n):
    """T(2,n): crossing k has over=k, in=k-1, out=k+1 (mod n), sign +."""
    return KnotDiagram(n, [Crossing(k, (k - 2) % n + 1, k % n + 1, 1) for k in range(1, n + 1)])


def reference_simplify(p):
    """auto_simplify's rounds by brute force: every step rescans from the
    start after each move, and duplicates come from a scan over all pairs."""
    script = []

    def apply(move):
        nonlocal p
        p = apply_tietze(p, [move])
        script.append(move)
        return True

    def cyclic_reduction():
        for i, r in enumerate(p.relators):
            core, conj = cyclically_reduce(r)
            if not conj.is_identity():
                apply(AddRelation(core, ((i, conj.inverse(), 1),)))
                return apply(RemoveRelation(i, ((len(p.relators) - 2, conj, 1),)))
        return False

    def duplicate_removal():
        for j in range(1, len(p.relators)):
            for i in range(j):
                for sign in (1, -1):
                    base = p.relators[i] if sign == 1 else p.relators[i].inverse()
                    conj = rotation_conjugator(base, p.relators[j])
                    if conj is not None:
                        return apply(RemoveRelation(j, ((i, conj, sign),)))
        return False

    def elimination():
        candidates = []
        for idx, r in enumerate(p.relators):
            gens = [g for g, _ in r.syllables]
            candidates += [
                (r.letter_length, g, idx)
                for g, e in r.syllables
                if gens.count(g) == 1 and abs(e) == 1
            ]
        if not candidates:
            return False
        _, gid, idx = min(candidates)
        return apply(RemoveGenerator(p.alphabet.name_of(gid), idx))

    while True:
        progressed = False
        while cyclic_reduction():
            progressed = True
        while duplicate_removal():
            progressed = True
        if elimination():
            progressed = True
        if not progressed:
            return p, tuple(script)


@st.composite
def presentations_with_copies(draw):
    """Random relators over up to three generators, some of them copies of
    earlier ones rotated letter by letter, inverted or conjugated."""
    count = draw(st.integers(min_value=1, max_value=3))
    syllable = st.tuples(st.integers(0, count - 1), st.sampled_from((-2, -1, 1, 2)))
    relators = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if relators and draw(st.booleans()):
            syl = draw(st.sampled_from(relators)).syllables
            letters = [(g, 1 if e > 0 else -1) for g, e in syl for _ in range(abs(e))]
            k = draw(st.integers(0, max(len(letters) - 1, 0)))
            w = Word(letters[k:] + letters[:k])
            if draw(st.booleans()):
                w = w.inverse()
            if draw(st.booleans()):
                w = w.conjugated_by(Word([draw(syllable)]))
        else:
            w = Word(draw(st.lists(syllable, min_size=1, max_size=6)))
        relators.append(w)
    return Presentation(Alphabet(["a", "b", "c"][:count]), relators)


@st.composite
def single_loop(draw):
    """A single-loop diagram of 1-10 arcs: the loop visits the arcs in a
    random order, and each crossing has a random over-arc and sign."""
    arcs = draw(st.integers(min_value=1, max_value=10))
    order = draw(st.permutations(range(1, arcs + 1)))
    return [
        (draw(st.integers(1, arcs)), order[k], order[(k + 1) % arcs], draw(st.sampled_from((1, -1))))
        for k in range(arcs)
    ]


def connected_sum(first, second):
    """One loop from two: the crossings that produce arc 1 of each summand
    swap their outgoing arcs."""
    shift = len(first)
    crossings = first + [(o + shift, i + shift, u + shift, s) for o, i, u, s in second]
    a = next(k for k, c in enumerate(crossings) if c[2] == 1)
    b = next(k for k, c in enumerate(crossings) if c[2] == shift + 1)
    (over_a, in_a, out_a, sign_a), (over_b, in_b, out_b, sign_b) = crossings[a], crossings[b]
    crossings[a], crossings[b] = (over_a, in_a, out_b, sign_a), (over_b, in_b, out_a, sign_b)
    return crossings


@st.composite
def diagram_presentations(draw):
    """Wirtinger presentations of single loops and their connected sums."""
    crossings = draw(single_loop())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        crossings = connected_sum(crossings, draw(single_loop()))
    return wirtinger_presentation(KnotDiagram(len(crossings), [Crossing(*c) for c in crossings]))


def replayed_lines(p, script):
    """describe_script by replay: each move is applied in place to learn
    the alphabet that formats the next one."""
    lines = []
    alphabet, relators = p.alphabet, list(p.relators)
    for move in script:
        if isinstance(move, AddRelation):
            lines.append(f"add relator: {format_word(move.consequence, alphabet)}")
        elif isinstance(move, RemoveRelation):
            lines.append(f"remove relator {move.index}")
        elif isinstance(move, AddGenerator):
            lines.append(f"add generator {move.name} = {format_word(move.definition, alphabet)}")
        else:
            lines.append(f"remove generator {move.name} using relator {move.relator_index}")
        alphabet = _apply_move(alphabet, relators, move)
    return lines


def drop_then_add_script():
    """c is eliminated, then d takes c's freed id 2 and e is defined over d."""
    p = parse_presentation("gens: a b c\nrel: c^-1 a b\nrel: c a^2")
    ab, d = Word([(0, 1), (1, 1)]), Word([(2, 1)])
    script = [
        RemoveGenerator("c", 0),
        AddGenerator("d", ab),
        AddGenerator("e", d * Word([(0, 1)])),
        AddRelation(d * ab.inverse(), ((1, Word.identity(), 1),)),
        RemoveRelation(3, ((1, Word.identity(), 1),)),
        RemoveGenerator("d", 1),
    ]
    return p, script


class TestDescribeScript:
    def test_user_script_matches_replay(self):
        p, script = drop_then_add_script()
        lines = describe_script(p, script)
        assert lines == replayed_lines(p, script)
        assert lines == [
            "remove generator c using relator 0",
            "add generator d = a b",
            "add generator e = d a",
            "add relator: d b^-1 a^-1",
            "remove relator 3",
            "remove generator d using relator 1",
        ]
        assert format_presentation(apply_tietze(p, script)) == "gens: a b e\nrel: a b a^2\nrel: e a^-1 b^-1 a^-1"

    @pytest.mark.parametrize("source", ["trefoil", "paper-5crossing", "t2-51", "dup"])
    def test_auto_simplify_scripts_match_replay(self, source):
        if source == "t2-51":
            p = wirtinger_presentation(closed_2_braid(51))
        elif source == "dup":
            p = parse_presentation("gens: a b c\nrel: b a b^-1 a^-2\nrel: a^-2 b a b^-1\nrel: c a^-1 b")
        else:
            p = wirtinger_presentation(builtin_diagram(source))
        _, script = auto_simplify(p)
        assert script
        assert describe_script(p, script) == replayed_lines(p, script)

    @given(presentations_with_copies())
    def test_random_scripts_match_replay(self, p):
        _, script = auto_simplify(p)
        assert describe_script(p, script) == replayed_lines(p, script)

    def test_taken_name_is_refused_by_the_alphabet(self):
        p, _ = drop_then_add_script()
        with pytest.raises(InputError, match="move 0 \\(AddGenerator\\): .*'a' already in alphabet"):
            apply_tietze(p, [AddGenerator("a", Word([(1, 1)]))])
        with pytest.raises(InputError, match="move 0 \\(AddGenerator\\): .*'a' already in alphabet"):
            describe_script(p, [AddGenerator("a", Word([(1, 1)]))])

    def test_unknown_generators_keep_the_move_prefix(self):
        p = torus_presentation(2, 3)
        with pytest.raises(InputError, match="^move 0 \\(AddGenerator\\): unknown generator id 7$"):
            describe_script(p, [AddGenerator("x", Word([(7, 1)]))])
        with pytest.raises(InputError, match="^move 1 \\(RemoveGenerator\\): unknown generator 'zz'$"):
            describe_script(p, [RemoveRelation(0, ()), RemoveGenerator("zz", 0)])

    def test_non_move_is_refused(self):
        p = torus_presentation(2, 3)
        with pytest.raises(InputError, match="^move 0 \\(str\\): unknown Tietze move 'junk'$"):
            describe_script(p, ["junk"])

    def test_nothing_is_replayed(self, monkeypatch):
        p, user_script = drop_then_add_script()
        q = wirtinger_presentation(closed_2_braid(51))
        _, auto_script = auto_simplify(q)
        expected = [replayed_lines(p, user_script), replayed_lines(q, auto_script)]

        def refuse(*args):
            raise AssertionError("describe_script replayed a move")

        monkeypatch.setattr(presentation_module, "_apply_move", refuse)
        assert [describe_script(p, user_script), describe_script(q, auto_script)] == expected


class TestKeyedDuplicateRemoval:
    @given(presentations_with_copies())
    @example(parse_presentation("gens: a b\nrel: a b a\nrel: a^2 b"))
    @example(parse_presentation("gens: a b\nrel: a^2 b\nrel: a b a\nrel: a b a\nrel: b^-1 a^-2"))
    @example(parse_presentation("gens: a b\nrel: a b a b a b\nrel: b a b a b a\nrel: a^-1 b^-1 a^-1 b^-1 a^-1 b^-1"))
    @example(parse_presentation("gens: a b c\nrel: a^3\nrel: a^-3\nrel: b^2\nrel: a^3\nrel: c b c"))
    # one invariant, shared by rotations, an inverse and a non-rotation
    @example(
        parse_presentation(
            "gens: a b\nrel: a b^2 a^3 b^5\nrel: a^3 b^2 a b^5\nrel: b^5 a b^2 a^3\n"
            "rel: b^-5 a^-3 b^-2 a^-1"
        )
    )
    @example(
        parse_presentation(
            "gens: a b\nrel: a^3 b^2 a b^5\nrel: a^-3 b^-2 a^-1 b^-5\nrel: a b^5 a^3 b^2\n"
            "rel: b^2 a^3 b^5 a\nrel: a b^2 a^3 b^5"
        )
    )
    def test_matches_pair_scan_reference(self, p):
        assert auto_simplify(p) == reference_simplify(p)

    @settings(max_examples=300, deadline=None)
    @given(diagram_presentations())
    def test_elimination_chains_match_reference(self, p):
        q, script = auto_simplify(p)
        assert (q, script) == reference_simplify(p)
        assert apply_tietze(p, script) == q

    def test_asymmetric_pair(self):
        # a b a rotates onto a^2 b, but a^2 b does not rotate onto a b a
        _, script = auto_simplify(parse_presentation("gens: a b\nrel: a b a\nrel: a^2 b"))
        assert script[0] == RemoveRelation(1, ((0, Word([(1, -1), (0, -1)]), 1),))
        _, script = auto_simplify(parse_presentation("gens: a b\nrel: a^2 b\nrel: a b a"))
        assert isinstance(script[0], RemoveGenerator)
        # both earlier relators share the invariant of the last; the first is no rotation onto it
        _, script = auto_simplify(parse_presentation("gens: a b\nrel: a^2 b\nrel: a b a\nrel: a b a"))
        assert script[0] == RemoveRelation(2, ((1, Word.identity(), 1),))

    @pytest.mark.parametrize(
        "n, digest, moves", [(51, "ed75a48a94c1fc04", 50), (101, "a6e1a87b3452c753", 100)]
    )
    def test_closed_2_braid_script_digest(self, n, digest, moves):
        p = wirtinger_presentation(closed_2_braid(n))
        q, script = auto_simplify(p)
        assert len(script) == moves
        assert hashlib.sha256(repr(script).encode()).hexdigest()[:16] == digest
        assert apply_tietze(p, script) == q

    def test_work_done_on_closed_2_braid(self, monkeypatch):
        # counts, not timings: only relators holding the generator are
        # substituted into, and rotations are searched on invariant collisions only
        calls = {"substitute": 0, "unchanged": 0, "rotation_conjugator": 0}

        def counting_substitute(w, gid, replacement):
            calls["substitute"] += 1
            out = substitute(w, gid, replacement)
            calls["unchanged"] += out == w
            return out

        def counting_rotation(base, target):
            calls["rotation_conjugator"] += 1
            return rotation_conjugator(base, target)

        monkeypatch.setattr(presentation_module, "substitute", counting_substitute)
        monkeypatch.setattr(presentation_module, "rotation_conjugator", counting_rotation)
        auto_simplify(wirtinger_presentation(closed_2_braid(51)))
        assert calls["substitute"] == 98 and calls["unchanged"] == 0
        assert calls["rotation_conjugator"] <= 10

    def test_each_relator_is_inverted_once(self, monkeypatch):
        # four relators share the invariant {a: 2, b: 2} and none rotates
        # onto another; eliminating d, c0, ..., c3 takes a round each
        colliding = ["a^2 b^2 a^3 b^3", "a^2 b^3 a^3 b^2", "a^3 b^2 a^2 b^4", "a^4 b^2 a^2 b^3"]
        inverted = []
        inverse = Word.inverse

        def counting_inverse(w):
            inverted.append(w.syllables)
            return inverse(w)

        chain = "gens: a b d c0 c1 c2 c3 c4\n" + "".join(f"rel: c{i}^-1 d\n" for i in range(5))
        for extra, expected in ((colliding, 3), (["a^2", "b^3", "a^2 b^2"], 0)):
            p = parse_presentation(chain + "".join(f"rel: {r}\n" for r in extra))
            watched = {r.syllables for r in p.relators[5:]}
            inverted.clear()
            monkeypatch.setattr(Word, "inverse", counting_inverse)
            q, script = auto_simplify(p)
            monkeypatch.undo()
            assert len(script) == 5 and q.relators == p.relators[5:]
            # r_i^-1 is built once for each relator that a later one probes
            assert sum(syl in watched for syl in inverted) == expected

    def test_long_relators_take_one_move(self):
        p = parse_presentation("gens: a b c\nrel: a b c^-1\nrel: c^3000 b a^5000\nrel: a^2 b^3")
        start = time.perf_counter()
        q, script = auto_simplify(p)
        elapsed = time.perf_counter() - start
        assert script == (RemoveGenerator("a", 0),)
        assert apply_tietze(p, script) == q
        assert elapsed < 0.5, f"took {elapsed:.3f}s"


def doubling_chain(k):
    """a_{i+1} = a_i b a_i for i < k, and a_k b a_k^-1 b^-2: eliminating the
    chain doubles one relator per round, to 2^k letters."""
    lines = ["gens: " + " ".join(f"a{i}" for i in range(k + 1)) + " b"]
    lines += [f"rel: a{i + 1}^-1 a{i} b a{i}" for i in range(k)]
    lines.append(f"rel: a{k} b a{k}^-1 b^-2")
    return "\n".join(lines) + "\n"


class TestSubstitutionBudget:
    def test_doubling_chain_is_a_budget_error(self, monkeypatch):
        monkeypatch.setattr(words_module, "MAX_POWER_SYLLABLES", 10**4)
        with pytest.raises(BudgetError, match="substitution"):
            auto_simplify(parse_presentation(doubling_chain(40)))

    def test_short_chain_is_answered(self, monkeypatch):
        monkeypatch.setattr(words_module, "MAX_POWER_SYLLABLES", 10**4)
        p = parse_presentation(doubling_chain(6))
        q, script = auto_simplify(p)
        assert apply_tietze(p, script) == q


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

    def test_word_outside_the_presentation(self):
        p = torus_presentation(2, 3)
        with pytest.raises(InputError, match="generator id 7"):
            evaluate_word_in_quotient(p, Word([(7, 1)]), {0: 1, 1: 0}, builtin_table("S3"))

    def test_assignment_out_of_range(self):
        p = torus_presentation(2, 3)
        for bad in (-1, 5, 1.0, "2", None):
            with pytest.raises(InputError, match="element index"):
                evaluate_word_in_quotient(p, Word([(0, 1)]), {0: bad, 1: 0}, builtin_table("Z5"))
