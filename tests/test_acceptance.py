"""Acceptance suite: one test per criterion, timed against its budget.

Each test prints a single PASS line (with its measured runtime) when it
succeeds; a failure shows up as the usual pytest FAILED line.
"""

import itertools
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

from knotgrp.geometry import RetractionParams, verify_retraction
from knotgrp.invariants import (
    AbelianInvariants,
    abelianization,
    builtin_table,
    determinant,
    evaluate_word_in_quotient,
    invariant_profile,
    relation_matrix,
    smith_normal_form,
)
from knotgrp.presentation import (
    AddGenerator,
    RemoveGenerator,
    apply_tietze,
    auto_simplify,
    format_presentation,
    free_product_presentation,
    parse_presentation,
    torus_presentation,
)
from knotgrp.torus import (
    AB,
    INFINITE,
    TorusParams,
    enumerate_reduced_words,
    free_product_normal_form,
    max_torsion_order,
    order_in_free_product,
    torus_normal_form,
)
from knotgrp.wirtinger import builtin_diagram, wirtinger_presentation
from knotgrp.words import Alphabet, Word, cyclically_equal, format_word, parse_word

PI = 3.141592653589793


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"criterion {number} took {elapsed:.3f}s, budget {budget}s"
    print(f"PASS criterion {number} ({label}): {elapsed * 1000:.1f} ms / {budget * 1000:.0f} ms")


def test_criterion_01_wirtinger_goldens():
    start = time.perf_counter()
    trefoil = wirtinger_presentation(builtin_diagram("trefoil"))
    five = wirtinger_presentation(builtin_diagram("paper-5crossing"))
    elapsed = time.perf_counter() - start

    assert format_presentation(trefoil).splitlines() == [
        "gens: a1 a2 a3",
        "rel: a1 a2 a1^-1 a3^-1",
        "rel: a2 a3 a2^-1 a1^-1",
        "rel: a3 a1 a3^-1 a2^-1",
    ]
    assert format_presentation(five).splitlines() == [
        "gens: a1 a2 a3 a4 a5",
        "rel: a4 a1 a4^-1 a2^-1",
        "rel: a1 a3 a1^-1 a4^-1",
        "rel: a2 a5 a2^-1 a1^-1",
        "rel: a5 a2 a5^-1 a3^-1",
        "rel: a3 a4 a3^-1 a5^-1",
    ]
    report(1, "Wirtinger goldens", elapsed, 0.010)


def test_criterion_02_trefoil_pipeline():
    trefoil = wirtinger_presentation(builtin_diagram("trefoil"))
    start = time.perf_counter()
    simplified, script = auto_simplify(trefoil)

    # second stage: the generator change b = a2 a1, a = a1 b
    two_gen = parse_presentation("gens: a1 a2\nrel: a2 a1 a2 = a1 a2 a1")
    moves = [
        AddGenerator("b", parse_word("a2 a1", two_gen.alphabet)),
        AddGenerator("a", Word([(two_gen.alphabet.id_of("a1"), 1), (2, 1)])),
        RemoveGenerator("a1", 2),
        RemoveGenerator("a2", 1),
    ]
    final = apply_tietze(two_gen, moves)
    elapsed = time.perf_counter() - start

    assert len(simplified.alphabet) == 2
    assert len(simplified.relators) == 1
    rename = {gen.id: i for i, gen in enumerate(simplified.alphabet)}
    got = Word([(rename[g], e) for g, e in simplified.relators[0].syllables])
    target = parse_word("a2 a1 a2 a1^-1 a2^-1 a1^-1", Alphabet(["a1", "a2"]))
    assert cyclically_equal(got, target, up_to_inversion=True)
    # the replayed script reaches the same presentation
    assert apply_tietze(trefoil, script) == simplified

    assert set(final.alphabet.names) == {"a", "b"}
    assert [format_word(r, final.alphabet) for r in final.relators] == ["b^3 a^-2"]
    report(2, "trefoil pipeline", elapsed, 0.010)


def test_criterion_03_profile_oracle_equivalence():
    targets = ("Z2", "Z3", "Z4", "Z5", "Z6", "S3", "S4")
    start = time.perf_counter()
    trefoil = invariant_profile(wirtinger_presentation(builtin_diagram("trefoil")), targets)
    torus = invariant_profile(torus_presentation(2, 3), targets)
    unknot = invariant_profile(wirtinger_presentation(builtin_diagram("unknot")), ("S3",))
    elapsed = time.perf_counter() - start

    assert trefoil == torus
    assert dict(unknot.hom_counts)["S3"] == 6
    assert dict(trefoil.hom_counts)["S3"] > 6
    report(3, "profile oracle equivalence", elapsed, 5.0)


def test_criterion_04_abelianization_and_snf():
    start = time.perf_counter()
    pairs = [(m, n) for m in range(2, 8) for n in range(m + 1, 8) if _gcd(m, n) == 1]
    assert pairs
    for m, n in pairs:
        torus = torus_presentation(m, n)
        assert abelianization(torus) == AbelianInvariants(1, ())
        product = free_product_presentation(m, n)
        inv = abelianization(product)
        assert inv == AbelianInvariants(0, (m * n,))
        for p in (torus, product):
            a = relation_matrix(p)
            d, u, v = smith_normal_form(a)
            assert u @ a @ v == d
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
    elapsed = time.perf_counter() - start
    report(4, "abelianization + SNF", elapsed, 0.100)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- criterion 5 -------------------------------------------------------------

_C_SYLLABLE = ((0, 2),)  # a^2, the central element at (m, n) = (2, 3)
_EXPONENTS = tuple(e for e in range(-4, 5) if e)


def _centrality_chunk(task):
    """Scan all alternating words of one (length, start, first-exponent) block."""
    k, first, e0 = task
    params = TorusParams(2, 3)
    failures = 0
    count = 0
    letters = [(first + i) % 2 for i in range(k)]
    for rest in itertools.product(_EXPONENTS, repeat=k - 1):
        syls = tuple(zip(letters, (e0,) + rest))
        cw = Word(_C_SYLLABLE + syls)
        wc = Word(syls + _C_SYLLABLE)
        if torus_normal_form(params, cw) != torus_normal_form(params, wc):
            failures += 1
        count += 1
    return count, failures


def test_criterion_05_word_problem():
    rng = random.Random(20230517)
    start = time.perf_counter()

    # (a) relator-insertion invariance, 1000 trials per parameter pair
    for m, n in ((2, 3), (3, 4), (3, 5)):
        params = TorusParams(m, n)
        relator = Word([(0, m), (1, -n)])
        for _ in range(1000):
            raw = [
                (rng.randint(0, 1), rng.choice(_EXPONENTS))
                for _ in range(rng.randint(0, 8))
            ]
            word = Word(raw)
            cut = rng.randint(0, len(word.syllables))
            left, right = Word(word.syllables[:cut]), Word(word.syllables[cut:])
            conj = Word([(rng.randint(0, 1), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])
            inserted = left * conj * (relator ** rng.choice((1, -1))) * conj.inverse() * right
            assert torus_normal_form(params, inserted) == torus_normal_form(params, word)

    # (b) exhaustive commutation of c = a^m with every word of syllable
    # length <= 6, exponents in [-4, 4], at (2, 3)
    tasks = [
        (k, first, e0)
        for k in range(6, 0, -1)  # biggest blocks first, for pool balance
        for first in (0, 1)
        for e0 in _EXPONENTS
    ]
    expected_total = sum(2 * len(_EXPONENTS) ** k for k in range(1, 7))
    workers = min(4, os.cpu_count() or 1)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_centrality_chunk, tasks, chunksize=1))
        except (OSError, RuntimeError):  # no subprocess support: scan serially
            results = [_centrality_chunk(t) for t in tasks]
    else:
        results = [_centrality_chunk(t) for t in tasks]
    total = sum(c for c, _ in results)
    failures = sum(f for _, f in results)
    assert total == expected_total == 599184
    assert failures == 0

    # (c) ab != ba, certified by a witness homomorphism x -> X, y -> Y
    # with X^m = Y^n (so the assignment factors through the group)
    for m, n, table_name in ((2, 3, "S3"), (3, 4, "S4"), (3, 5, "A5")):
        params = TorusParams(m, n)
        ab = parse_word("a b", AB)
        ba = parse_word("b a", AB)
        assert torus_normal_form(params, ab) != torus_normal_form(params, ba)
        table = builtin_table(table_name)
        pres = torus_presentation(m, n)
        witness = None
        for x in range(table.order):
            for y in range(table.order):
                if _table_pow(table, x, m) != _table_pow(table, y, n):
                    continue
                assignment = {0: x, 1: y}
                if evaluate_word_in_quotient(pres, ab, assignment, table) != \
                        evaluate_word_in_quotient(pres, ba, assignment, table):
                    witness = (x, y)
                    break
            if witness:
                break
        assert witness is not None, f"no witness hom for ({m}, {n}) in {table_name}"

    elapsed = time.perf_counter() - start
    report(5, "word problem in G_{m,n}", elapsed, 5.0)


def _table_pow(table, x, k):
    acc = table.identity
    for _ in range(k):
        acc = table.mul[acc][x]
    return acc


def _conjugate_to_core(m, n, syllables):
    """Strip conjugating syllables via public normal-form calls."""
    current = syllables
    while len(current) >= 2 and current[0][0] == current[-1][0]:
        s = Word((current[0],))
        conjugated = s.inverse() * Word(current) * s
        reduced = free_product_normal_form(m, n, conjugated).syllables
        if len(reduced) >= len(current):
            break
        current = reduced
    return current


def test_criterion_06_torsion_structure():
    start = time.perf_counter()
    max_finite = 1
    for syls in enumerate_reduced_words(2, 3, 6):
        order = order_in_free_product(2, 3, Word(syls))
        if order is not INFINITE:
            max_finite = max(max_finite, order)
            core = _conjugate_to_core(2, 3, syls)
            assert len(core) <= 1, f"finite-order word {syls} has long cyclic core"
    assert max_finite == 3
    assert max_torsion_order(2, 3, 6) == 3
    assert max_torsion_order(5, 2, 3) == 5
    elapsed = time.perf_counter() - start
    report(6, "torsion structure of Z_m * Z_n", elapsed, 10.0)


def test_criterion_07_trivial_center():
    start = time.perf_counter()
    for m, n in ((2, 3), (3, 4)):
        a, b = parse_word("a", AB), parse_word("b", AB)
        for syls in enumerate_reduced_words(m, n, 5):
            word = Word(syls)
            assert any(
                free_product_normal_form(m, n, word * g) != free_product_normal_form(m, n, g * word)
                for g in (a, b)
            ), f"({m},{n}): {syls} commutes with both generators"
    elapsed = time.perf_counter() - start
    report(7, "trivial center of Z_m * Z_n", elapsed, 5.0)


def test_criterion_08_degenerate_torus_groups():
    start = time.perf_counter()
    for n in range(2, 7):
        p = torus_presentation(1, n)
        simplified, _ = auto_simplify(p)
        assert simplified.alphabet.names == ("b",)
        assert simplified.relators == ()
        assert abelianization(p) == AbelianInvariants(1, ())

        # normal forms at (1, n) are a single integer in disguise:
        # b^j has the unique form (j // n, b^(j % n))
        params = TorusParams(1, n)
        seen = set()
        for j in range(-3 * n, 3 * n + 1):
            nf = torus_normal_form(params, Word([(1, j)]) if j else Word.identity())
            expected_syl = ((1, j % n),) if j % n else ()
            assert nf.central_exponent == j // n
            assert nf.syllables == expected_syl
            assert (nf.central_exponent, nf.syllables) not in seen
            seen.add((nf.central_exponent, nf.syllables))
        # a collapses into the central generator
        assert torus_normal_form(params, parse_word("a", AB)).syllables == ()
    elapsed = time.perf_counter() - start
    report(8, "degenerate torus groups", elapsed, 0.010)


def test_criterion_09_retraction():
    start = time.perf_counter()
    for lam in (PI / 6, PI / 4, PI / 3):
        rep = verify_retraction(RetractionParams(lam), 64)
        assert rep.max_fixed_deviation <= 1e-9
        assert rep.max_image_distance <= 1e-9
        assert rep.max_idempotence_deviation <= 1e-9
        assert rep.false_fixed_points == 0
        assert rep.continuity_violations == 0
        assert rep.all_ok
    elapsed = time.perf_counter() - start
    report(9, "retraction verification", elapsed, 1.0)


def test_criterion_10_word_property_suites():
    rng = random.Random(0)

    def random_raw():
        return [
            (rng.randint(0, 3), rng.randint(-6, 6)) for _ in range(rng.randint(0, 10))
        ]

    alphabet = Alphabet(["a", "b", "c", "d"])
    start = time.perf_counter()
    for _ in range(10_000):
        raw = random_raw()
        once = Word(raw)
        assert Word(once.syllables) == once
    for _ in range(10_000):
        u, v, w = Word(random_raw()), Word(random_raw()), Word(random_raw())
        assert (u * v) * w == u * (v * w)
    for _ in range(10_000):
        u, v = Word(random_raw()), Word(random_raw())
        assert (u * v).inverse() == v.inverse() * u.inverse()
    for _ in range(10_000):
        w = Word(random_raw())
        assert parse_word(format_word(w, alphabet), alphabet) == w
    elapsed = time.perf_counter() - start
    report(10, "word property suites (4 x 10,000 cases)", elapsed, 2.0)
