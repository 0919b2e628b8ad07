import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from knotgrp.errors import BudgetError, InputError
from knotgrp.invariants import (
    AbelianInvariants,
    FiniteGroupTable,
    IntMatrix,
    _diagonalize,
    abelianization,
    builtin_table,
    determinant,
    evaluate_word_in_quotient,
    hom_count,
    invariant_profile,
    profile_pairs,
    relation_matrix,
    _plan,
    smith_normal_form,
)
from knotgrp.presentation import (
    Presentation,
    auto_simplify,
    free_product_presentation,
    parse_presentation,
    torus_presentation,
)
from knotgrp.wirtinger import Crossing, KnotDiagram, builtin_diagram, wirtinger_presentation
from knotgrp.words import Alphabet, Word

small_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda r: st.integers(min_value=0 if r else 1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(rows, cols=c))
    )
)


def check_snf(a):
    d, u, v = smith_normal_form(a)
    assert u @ a @ v == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = d.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for x in diag:
        assert x >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return d, u, v


def reference_find_pivot(m, start, rows, cols):
    """The pivot rule before rounded sweeps: minimal |value|, ties row-major."""
    best = None
    for i in range(start, rows):
        for j in range(start, cols):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def reference_diagonalize(m, rows, cols):
    """_diagonalize before rounded sweeps: floor quotients, whole-row and
    whole-column operations, a full rescan of the block after each sweep."""
    n, t = min(rows, cols), 0
    while True:
        while t < n and (pivot := reference_find_pivot(m, t, rows, cols)) is not None:
            i, j = pivot
            m[t], m[i] = m[i], m[t]
            if j != t:
                for row in m:
                    row[t], row[j] = row[j], row[t]
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
            p = m[t][t]
            clean = True
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // p
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                    clean = clean and not m[i][t]
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // p
                    for row in m:
                        row[j] -= q * row[t]
                    clean = clean and not m[t][j]
            if clean:
                t += 1
        t = next((i for i in range(n - 1) if m[i][i] and m[i + 1][i + 1] % m[i][i]), None)
        if t is None:
            return
        m[t] = [x + y for x, y in zip(m[t], m[t + 1])]


def unimodular(draw, n):
    """An n×n integer matrix of determinant ±1: the identity under random
    row additions and swaps."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return u
    ops = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(-2, 2))
    for i, shift, c in draw(st.lists(ops, max_size=2 * n)):
        j = (i + shift) % n
        if c:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        else:
            u[i], u[j] = u[j], u[i]
    return u


@st.composite
def matrices_up_to_8(draw):
    """Matrices of up to 8×8, wide, tall or square: dense or sparse entries
    in [-9, 9], singular ones, ones with a zero row or column, and
    U·diag(d)·V with a divisibility chain d so that factors other than 1
    occur."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("dense", "sparse", "singular", "zero line", "chain")))
    if kind == "chain":
        k = min(rows, cols)
        d, x = [], 1
        for _ in range(k - draw(st.integers(0, k))):
            x *= draw(st.sampled_from((1, 1, 2, 3, 6)))
            d.append(x)
        d += [0] * (k - len(d))
        diag = IntMatrix(
            [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)], cols=cols
        )
        u = IntMatrix(unimodular(draw, rows), cols=rows)
        v = IntMatrix(unimodular(draw, cols), cols=cols)
        return u @ diag @ v
    entry = st.integers(-9, 9)
    if kind == "sparse":
        entry = st.one_of(st.just(0), entry)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if kind == "singular" and rows >= 2:
        i, j = draw(st.permutations(range(rows)))[:2]
        m[i] = [-x for x in m[j]]
    elif kind == "zero line" and rows and cols:
        if draw(st.booleans()):
            m[draw(st.integers(0, rows - 1))] = [0] * cols
        else:
            j = draw(st.integers(0, cols - 1))
            for row in m:
                row[j] = 0
    return IntMatrix(m, cols=cols)


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(InputError):
            IntMatrix([], cols=None)
        with pytest.raises(InputError, match="column count mismatch"):
            IntMatrix([[1, 2]], cols=3)

    def test_refuses_non_integer_entries(self):
        for entries in ([[2.5]], [["3"]], [[1, None]], [3]):
            with pytest.raises(InputError, match="rows of integers"):
                IntMatrix(entries)
        with pytest.raises(InputError):
            smith_normal_form(IntMatrix([[2.9, 0], [0, 3]]))
        assert IntMatrix([[True, 0]]).entries == ((1, 0),)

    def test_refuses_non_integer_or_negative_column_count(self):
        for cols in ("3", 2.5, None):
            with pytest.raises(InputError):
                IntMatrix([], cols=cols)
        with pytest.raises(InputError, match=">= 0"):
            IntMatrix([], cols=-2)
        with pytest.raises(InputError, match="must be an integer"):
            smith_normal_form(IntMatrix([], cols=2.5))
        empty = IntMatrix([], cols=True)
        assert type(empty.cols) is int and empty.cols == 1
        assert IntMatrix([[1, 2]], cols=2).cols == 2

    def test_matmul(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert (a @ IntMatrix.identity(2)) == a
        with pytest.raises(InputError, match="matrix shape mismatch"):
            a @ IntMatrix([[1, 2, 3]])

    def test_determinant(self):
        assert determinant(IntMatrix([[2, 0], [0, 3]])) == 6
        assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix([], cols=0)) == 1
        assert determinant(IntMatrix([[4]])) == 4
        with pytest.raises(InputError):
            determinant(IntMatrix([[1, 2]], cols=2))

    def test_singular_determinant_matches_a_zero_smith_entry(self):
        # the first two run out of pivots in a column; Bareiss ends on 0 in the third
        for rows in ([[0, 1], [0, 2]], [[1, 2, 3], [2, 4, 6], [3, 6, 1]], [[2, 4], [1, 2]]):
            a = IntMatrix(rows)
            assert determinant(a) == 0
            d, _, _ = check_snf(a)
            assert 0 in d.diagonal()


class TestValues:
    def test_copy_deepcopy_and_pickle_round_trip(self):
        values = (
            Word([(0, 2), (1, -1)]),
            parse_presentation("gens: a b\nrel: a^2 b^-3"),
            IntMatrix([[2, 0], [0, 3]]),
        )
        for value in values:
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, dataclasses.fields(value)[0].name, None)

    def test_table_copies_after_conjugation_data_was_read(self):
        table = builtin_table("S3")
        table.classes
        fresh = FiniteGroupTable(table.name, table.mul)
        for twin in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert twin == fresh and hash(twin) == hash(fresh)
            assert twin.classes == fresh.classes


class TestSmithNormalForm:
    def test_coprime_row(self):
        d, u, v = check_snf(IntMatrix([[2, -3]]))
        assert d.entries == ((1, 0),)

    def test_diagonal_divisibility_fix(self):
        d, u, v = check_snf(IntMatrix([[2, 0], [0, 3]]))
        assert d.diagonal() == (1, 6)

    def test_zero_matrix_unchanged(self):
        a = IntMatrix.zeros(2, 3)
        d, u, v = check_snf(a)
        assert d == a

    def test_empty_matrices_pass_through(self):
        for a in (IntMatrix([], cols=3), IntMatrix([[], []], cols=0)):
            d, u, v = check_snf(a)
            assert d.rows == a.rows and d.cols == a.cols

    def test_known_invariant_factors(self):
        # diag entries of SNF of [[2,4],[6,8]]: gcd 2, det/gcd: |16-24|/2 = 4
        d, _, _ = check_snf(IntMatrix([[2, 4], [6, 8]]))
        assert d.diagonal() == (2, 4)

    def test_square_nonsingular_product_is_abs_det(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            det = determinant(a)
            if det == 0:
                continue
            d, _, _ = check_snf(a)
            product = 1
            for x in d.diagonal():
                product *= x
            assert product == abs(det)

    def test_deterministic(self):
        a = IntMatrix([[6, 4, 2], [4, 0, 8], [2, 8, 0]])
        assert smith_normal_form(a) == smith_normal_form(a)
        # pinned: the pivot rule fixes U and V, not just D
        assert smith_normal_form(a) == (
            IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 64]]),
            IntMatrix([[1, 0, 0], [0, 0, 1], [-4, 1, 10]]),
            IntMatrix([[0, 1, -4], [0, 0, 1], [1, -3, 10]]),
        )

    @settings(max_examples=200)
    @given(small_matrices)
    def test_snf_contract_on_random_matrices(self, a):
        d, _, _ = check_snf(a)
        # abelianization reaches the same diagonal without the transforms;
        # zero rows drop out as trivial relators and change no factor
        p = Presentation(
            Alphabet([f"g{j}" for j in range(a.cols)]),
            [Word([(j, x) for j, x in enumerate(row) if x]) for row in a.entries],
        )
        assert relation_matrix(p).entries == tuple(row for row in a.entries if any(row))
        diag = d.diagonal()
        assert abelianization(p) == AbelianInvariants(
            free_rank=a.cols - sum(1 for x in diag if x),
            torsion_factors=tuple(x for x in diag if x > 1),
        )


    @settings(max_examples=300, deadline=None)
    @given(matrices_up_to_8())
    @example(IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 4]]))  # chain repaired twice
    @example(IntMatrix([[4, 6], [6, 9], [10, 15]]))  # rank 1 with a factor
    def test_diagonal_matches_reference_kernel(self, a):
        d, _, _ = check_snf(a)
        new = [list(row) for row in a.entries]
        _diagonalize(new, a.rows, a.cols)
        old = [list(row) for row in a.entries]
        reference_diagonalize(old, a.rows, a.cols)
        assert d.entries == tuple(map(tuple, new))
        assert d.diagonal() == tuple(old[i][i] for i in range(min(a.rows, a.cols)))

    def test_transform_growth_at_n60(self):
        # 12,889 bits with floor quotients and full rescans
        rng = random.Random(60)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(60)] for _ in range(60)])
        d, u, v = smith_normal_form(a)
        bits = max(abs(x).bit_length() for t in (u, v) for row in t.entries for x in row)
        assert bits < 12889
        product = 1
        for x in d.diagonal():
            product *= x
        assert product == abs(determinant(a))

    def test_transform_growth_at_n80(self):
        # 19,498 bits when each row sweep also swept the rows it left
        # with remainders in the pivot column; 7,761 clearing it first
        rng = random.Random(80)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(80)] for _ in range(80)])
        d, u, v = smith_normal_form(a)
        bits = max(abs(x).bit_length() for t in (u, v) for row in t.entries for x in row)
        assert bits < 8000
        product = 1
        for x in d.diagonal():
            product *= x
        assert product == abs(determinant(a))


class TestRelationMatrix:
    def test_torus_relator(self):
        m = relation_matrix(torus_presentation(2, 3))
        assert m.entries == ((2, -3),)

    def test_free_product(self):
        m = relation_matrix(free_product_presentation(2, 3))
        assert m.entries == ((2, 0), (0, 3))

    def test_free_group_has_empty_matrix(self):
        m = relation_matrix(Presentation(Alphabet(["a"]), []))
        assert (m.rows, m.cols) == (0, 1)


class TestAbelianization:
    def test_torus_groups_are_infinite_cyclic(self):
        for m, n in ((2, 3), (3, 4), (2, 5), (5, 7)):
            inv = abelianization(torus_presentation(m, n))
            assert inv == AbelianInvariants(1, ())
            assert str(inv) == "Z"

    def test_free_product_orders(self):
        for m in range(2, 9):
            for n in range(2, 9):
                inv = abelianization(free_product_presentation(m, n))
                assert inv.free_rank == 0
                assert inv.group_order() == m * n

    def test_coprime_free_product_is_cyclic(self):
        inv = abelianization(free_product_presentation(2, 3))
        assert inv == AbelianInvariants(0, (6,))

    def test_trefoil_wirtinger(self):
        inv = abelianization(wirtinger_presentation(builtin_diagram("trefoil")))
        assert inv == AbelianInvariants(1, ())


    def test_census_size_matrix_against_determinant(self):
        # Bareiss elimination is an independent route to the torsion order
        rng = random.Random(40)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(40)] for _ in range(40)])
        det = determinant(a)
        assert det
        p = Presentation(
            Alphabet([f"g{j}" for j in range(40)]),
            [Word([(j, x) for j, x in enumerate(row) if x]) for row in a.entries],
        )
        inv = abelianization(p)
        assert inv.free_rank == 0
        assert inv.group_order() == abs(det)

    @pytest.mark.parametrize("n, seed, duplicate", [(22, 22, False), (40, 41, False), (40, 42, True)])
    def test_census_size_matches_smith_diagonal(self, n, seed, duplicate):
        # the kernel without transforms against the bordered run of
        # smith_normal_form, and its torsion order against Bareiss
        rng = random.Random(seed)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if duplicate:
            rows[-1] = rows[0]
        a = IntMatrix(rows)
        diag = check_snf(a)[0].diagonal()
        p = Presentation(
            Alphabet([f"g{j}" for j in range(n)]),
            [Word([(j, x) for j, x in enumerate(row) if x]) for row in rows],
        )
        inv = abelianization(p)
        assert inv == AbelianInvariants(
            free_rank=n - sum(1 for x in diag if x),
            torsion_factors=tuple(x for x in diag if x > 1),
        )
        det = determinant(a)
        assert (det == 0) == duplicate
        if det:
            assert inv.group_order() == abs(det)

    def test_formatting(self):
        assert str(AbelianInvariants(0, ())) == "1"
        assert str(AbelianInvariants(2, (2, 6))) == "Z^2 x Z/2 x Z/6"


class TestBuiltinTables:
    def test_orders(self):
        expected = {"Z2": 2, "Z12": 12, "S3": 6, "S4": 24, "S5": 120, "A4": 12, "A5": 60, "D4": 8}
        for name, order in expected.items():
            table = builtin_table(name)
            assert table.order == order
            assert table.identity == 0

    def test_tables_are_built_once(self):
        assert builtin_table("A5") is builtin_table("A5")

    def test_unknown_name(self):
        for bad in ("Z1", "Z13", "Z012", "Z02", "S6", "Q8", "foo"):
            with pytest.raises(InputError):
                builtin_table(bad)

    def test_group_laws_checked_on_construction(self):
        with pytest.raises(InputError, match="identity"):
            FiniteGroupTable("bad", [[1, 0], [0, 1]])
        with pytest.raises(InputError, match="associative"):
            # identity row/column fine, but x*x = e for a 3-element "group"
            FiniteGroupTable("bad", [[0, 1, 2], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(InputError, match="associative"):
            # element 1 associates with everything; 2 (2·(2·3) ≠ (2·2)·3) does not
            FiniteGroupTable("bad", [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 0, 0]])
        with pytest.raises(InputError, match="not square"):
            FiniteGroupTable("bad", [[0, 1], [1, 0, 0]])
        with pytest.raises(InputError, match="no inverse"):
            FiniteGroupTable("bad", [[0, 1, 2], [1, 1, 1], [2, 1, 0]])

    def test_element_numbering_is_pinned(self):
        # sha256 of repr(mul): hom searches, conjugacy classes and the
        # bench pins all read elements by these numbers
        for name, digest in BUILTIN_TABLE_SHA256.items():
            mul = repr(builtin_table(name).mul).encode()
            assert hashlib.sha256(mul).hexdigest() == digest, name

    def test_d4_is_nonabelian_with_five_involutions(self):
        t = builtin_table("D4")
        assert any(t.mul[x][y] != t.mul[y][x] for x in range(8) for y in range(8))
        involutions = [x for x in range(1, 8) if t.mul[x][x] == 0]
        assert len(involutions) == 5  # r^2 and four reflections

    def test_conjugation_data(self):
        # the orbit totals are Burnside's count of the orbits of T on T×T
        # under simultaneous conjugation: the search's first two images
        totals = {"Z6": 36, "D4": 28, "S3": 11, "A4": 22, "S4": 43, "A5": 77, "S5": 161}
        for name, total in totals.items():
            t = builtin_table(name)
            classes = t.classes
            assert sum(size for size, _ in classes.values()) == t.order, name
            for x, (size, orbits) in classes.items():
                assert sum(orbits.values()) == t.order, name
                conjugates = {t.mul[t.mul[h][x]][t.inv[h]] for h in range(t.order)}
                assert min(conjugates) == x and len(conjugates) == size, name
                centralizer = [h for h in range(t.order) if t.mul[h][x] == t.mul[x][h]]
                for y in orbits:
                    assert min(t.mul[t.mul[h][y]][t.inv[h]] for h in centralizer) == y, name
            commutative = all(t.mul[x][y] == t.mul[y][x] for x in range(t.order) for y in range(x))
            assert commutative == (len(classes) == t.order) == (name == "Z6"), name
            assert sum(len(orbits) for _, orbits in classes.values()) == total, name

    def test_s3_element_orders(self):
        t = builtin_table("S3")
        orders = sorted(
            next(k for k in range(1, 7) if _power(t, x, k) == 0) for x in range(6)
        )
        assert orders == [1, 2, 2, 2, 3, 3]


BUILTIN_TABLE_SHA256 = {
    "Z2": "a0e10c7a00c7e25d546e124a2f6fbc687ecbbb1b2cb4a95dd2ec09a0d05e7461",
    "Z3": "0b02f8857f3981776e483a979fdaadeaff0765fa625f75488158f22bdbb1a73e",
    "Z4": "031f409039ede13a55cbd4c70c5d28ea75b93407fae03c0c1ffe0a30aaee6f77",
    "Z5": "03095321f81073543dac7201d01f0bddf0ce29e2c98d433b5d90f674082fbc50",
    "Z6": "ba5bf2265dd7e7822657f2ba37f59b7494e1cfbac736e9f5c2c171582cf07cb2",
    "Z7": "f93b4a9a695d6a63e32cf6f8a4e11d130978c3dd45d3971e8777a13e8d123dad",
    "Z8": "ac2edd252b1944fbae848f98f942836603d189e7e7474f9d5e83934dad5a3b71",
    "Z9": "7b9e205866171a4061f901d4a4ee9b9def481b1a25477100d9617246941f49e9",
    "Z10": "8d721b6000f18d915c71d2586bccf0a1561fdaf1f3befec04899b3f60a13c440",
    "Z11": "af854f56ac40a40b9e3128281863c81e8437e6fecb81bd035a4ad13727495f26",
    "Z12": "1b99427c98027f981e00b83b90a565e76a6f15c796f3314111c741782aac4057",
    "S3": "04734113c8f3b77035d22c065322e0f8a39e92aeb53a92a3c6d0628d4621058d",
    "S4": "cddada2addd38e2c349e7284c06d8d53e3c15d731014c039859c4776bdd535ff",
    "S5": "47ca216e4737020bd7bdb667bc89ebde1f134716ffa4b45f2df6683a55f307a6",
    "A4": "eec1bee1a3dfe2bead401c65ece12ea7f3ac1b2a0f031c4b9987689a8a3d5590",
    "A5": "d648a03fc74c1cb82826cb06744fee67096b90b93fa673dee4f5142d3b6321ce",
    "D4": "7f84f819f13390977c8d7fdf324659eae43280f099cd99646d1055137ef3fd27",
}


def _is_group_table(mul):
    """Brute-force oracle: the group axioms checked directly, in O(n^3)."""
    n = len(mul)
    r = range(n)
    return (
        n > 0
        and all(len(row) == n and all(type(x) is int and 0 <= x < n for x in row) for row in mul)
        and all(mul[0][x] == x == mul[x][0] for x in r)
        and all(any(mul[x][y] == 0 == mul[y][x] for y in r) for x in r)
        and all(mul[mul[x][y]][z] == mul[x][mul[y][z]] for x in r for y in r for z in r)
    )


@st.composite
def square_tables(draw):
    """Square tables of order 1-6 that reach every check of the constructor:
    random tables over 0..n-1, some with an identity row and column, or a
    group table (Z_n, the Klein group, S3) with its elements renumbered;
    then up to two entries replaced by one of -1..n or a float."""
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        row = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
        mul = draw(st.lists(row, min_size=n, max_size=n))
        if draw(st.booleans()):
            mul[0] = list(range(n))
            for i in range(n):
                mul[i][0] = i
    else:
        group = [[(i + j) % n for j in range(n)] for i in range(n)]
        if n == 4 and draw(st.booleans()):
            group = [[i ^ j for j in range(4)] for i in range(4)]
        if n == 6 and draw(st.booleans()):
            group = builtin_table("S3").mul
        relabel = [0] + draw(st.permutations(range(1, n)))
        mul = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                mul[relabel[i]][relabel[j]] = relabel[group[i][j]]
    edit = st.one_of(st.integers(min_value=-1, max_value=n), st.sampled_from([0.0, 1.0, 2.5]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        mul[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(edit)
    return mul


class TestFiniteGroupTable:
    @settings(max_examples=300, deadline=None)
    @given(square_tables())
    def test_accepts_exactly_the_group_tables(self, rows):
        try:
            table = FiniteGroupTable("T", rows)
        except InputError:
            assert not _is_group_table(rows)
            return
        assert _is_group_table(rows)
        assert table.mul == tuple(map(tuple, rows)) and table.order == len(rows)
        assert all(table.mul[x][y] == 0 == table.mul[y][x] for x, y in enumerate(table.inv))

    @pytest.mark.parametrize(
        "mul",
        [
            [[0, 1, 2], [1, 0, 7], [2, 7, 0]],  # an entry out of range
            [[0, 1, 2], [1, 0, -1], [2, -1, 0]],  # as an index, -1 reads the last element
            [[0, 1], [1, 0.0]],  # a float entry
            [[0, 1], [1, "0"]],
            [],  # the order-0 "group"
            [[]],
            [0, 1],  # rows that are not sequences
            None,
        ],
    )
    def test_malformed_tables_are_input_errors(self, mul):
        with pytest.raises(InputError):
            FiniteGroupTable("bad", mul)

    def test_order_inverses_and_identity_are_derived(self):
        # order, inv and identity were once settable, so a table could
        # disagree with its own mul (order 3 on a 2x2 table, identity 1)
        table = FiniteGroupTable("Z2", ((0, 1), (1, 0)))
        assert (table.order, table.inv, table.identity) == (2, (0, 1), 0)
        for extra in ({"order": 3}, {"inv": (0, 1)}, {"identity": 1}):
            with pytest.raises(TypeError):
                FiniteGroupTable("Z2", ((0, 1), (1, 0)), **extra)
        p = parse_presentation("gens: a\nrel: a^2")
        assert hom_count(p, table) == 2

    def test_associativity_is_exact_past_order_24(self):
        # Z_400 with two products of row 2 swapped: only the triples
        # through those two products fail, a share near 1/400², and the
        # 20,000-triple sample that this exact check replaced missed them
        n = 400
        mul = [[(i + j) % n for j in range(n)] for i in range(n)]
        mul[2][3], mul[2][4] = mul[2][4], mul[2][3]
        with pytest.raises(InputError, match="associative"):
            FiniteGroupTable("bad", mul)


def _power(table, x, k):
    acc = table.identity
    for _ in range(k):
        acc = table.mul[acc][x]
    return acc


class TestHomCount:
    def test_free_group_counts_all_assignments(self):
        p = Presentation(Alphabet(["a"]), [])
        assert hom_count(p, builtin_table("S3")) == 6

    def test_involution_into_z3(self):
        p = parse_presentation("gens: a\nrel: a^2")
        assert hom_count(p, builtin_table("Z3")) == 1

    def test_budget_error(self):
        p = Presentation(Alphabet(["a", "b", "c"]), [])
        with pytest.raises(BudgetError, match="budget"):
            hom_count(p, builtin_table("S3"), max_evals=100)

    def test_budget_must_be_an_int(self):
        p = torus_presentation(2, 3)
        for bad in ("x", None, 1e9):
            with pytest.raises(InputError, match="max_evals"):
                hom_count(p, builtin_table("S3"), max_evals=bad)
            for targets in (["Z2"], []):
                with pytest.raises(InputError, match="max_evals"):
                    invariant_profile(p, targets, max_evals=bad)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "D4", "S3", "A4"]),
        st.integers(min_value=0, max_value=3).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.lists(
                        st.tuples(
                            st.integers(min_value=0, max_value=max(k - 1, 0)),
                            st.sampled_from([1, -1, 2, -2, 3, -3, 6, 10**9 + 7, -(10**9 + 7)]),
                        ),
                        max_size=5 if k else 0,
                    ),
                    max_size=4,
                ),
            )
        ),
    )
    @example("S3", (2, [[(0, 2), (1, -3)]]))  # torus_presentation(2, 3)
    @example("Z6", (3, [[(0, 2), (1, 2), (2, 2)]]))  # solved by a square root
    @example(  # the trefoil's Wirtinger presentation
        "S3",
        (3, [[(0, 1), (1, 1), (0, -1), (2, -1)], [(1, 1), (2, 1), (1, -1), (0, -1)],
             [(2, 1), (0, 1), (2, -1), (1, -1)]]),
    )
    @example("Z6", (2, [[(0, 1), (1, 1), (0, -1), (1, -1)]]))  # a commutator: 36
    @example("S3", (2, [[(0, 1), (1, 1), (0, -1), (1, -1)]]))  # 18 commuting pairs
    @example("S3", (2, [[(0, 1), (1, 3)]]))  # step 1 solves y^-3 = x: several roots
    @example("A4", (2, [[(0, 1), (1, 3)]]))
    @example(  # T(2,5) over two generators: b a b a b = a b a b a, into S4
        "S4",
        (2, [[(1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1), (1, -1), (0, -1)]]),
    )
    def test_agrees_with_scalar_enumeration(self, target, shape):
        # independent oracle: scalar evaluation over every explicit assignment
        k, relators = shape
        p = Presentation(Alphabet([f"g{i}" for i in range(k)]), [Word(r) for r in relators])
        table = builtin_table(target)
        brute = 0
        for images in itertools.product(range(table.order), repeat=k):
            assignment = dict(enumerate(images))
            if all(
                evaluate_word_in_quotient(p, r, assignment, table) == table.identity
                for r in p.relators
            ):
                brute += 1
        assert hom_count(p, table) == brute

    def test_plan_solves_any_single_occurrence(self):
        # two enumerating steps, then g2 runs over the roots of x^-2 = g0^2 g1^2
        steps = _plan([((0, 2), (1, 2), (2, 2))])
        assert [(s.position, s.exponent, s.solve, s.checks) for s in steps] == [
            (0, 0, (), ()),
            (1, 0, (), ()),
            (2, -2, ((0, 2), (1, 2)), ()),
        ]

    def test_wirtinger_into_a5_matches_simplified(self):
        # 60^5 assignments: reachable only because the search prunes
        p = wirtinger_presentation(builtin_diagram("paper-5crossing"))
        table = builtin_table("A5")
        simplified, _ = auto_simplify(p)
        assert hom_count(p, table, max_evals=10**11) == 180
        assert hom_count(simplified, table) == 180

    def test_many_generators_into_trivial_group(self):
        table = FiniteGroupTable("Z1", [[0]])
        names = " ".join(f"g{i}" for i in range(3000))
        p = parse_presentation(f"gens: {names}\nrel: g0 g1 g2^5")
        start = time.perf_counter()
        assert hom_count(p, table) == 1
        assert time.perf_counter() - start < 0.5

    def test_invariant_under_relabeling_and_reordering(self):
        p = wirtinger_presentation(builtin_diagram("trefoil"))
        reordered = Presentation(p.alphabet, p.relators[::-1])
        renamed = parse_presentation(
            "gens: x y z\nrel: x y x^-1 z^-1\nrel: y z y^-1 x^-1\nrel: z x z^-1 y^-1"
        )
        for target in ("Z2", "Z6", "S3", "D4"):
            table = builtin_table(target)
            base = hom_count(p, table)
            assert hom_count(reordered, table) == base
            assert hom_count(renamed, table) == base

    def test_empty_alphabet(self):
        p = Presentation(Alphabet([]), [])
        assert hom_count(p, builtin_table("S4")) == 1

    @pytest.mark.parametrize(
        "second,expected",
        [
            ("trefoil", {"S3": 30, "D4": 8, "Z5": 5, "A4": 132}),
            ("paper-5crossing", {"S3": 12, "D4": 8, "Z5": 5}),
        ],
    )
    def test_connected_sum_matches_van_kampen(self, second, expected):
        # G(K1#K2) is the amalgam of G1 and G2 over the meridian, so
        # |Hom(G, T)| = sum over x of N1(x)·N2(x), where Ni(x) counts the
        # homs of Gi sending the first Wirtinger generator to x
        g1 = wirtinger_presentation(builtin_diagram("trefoil"))
        g2 = wirtinger_presentation(builtin_diagram(second))
        k1, k2 = len(g1.alphabet), len(g2.alphabet)

        def shifted(p, by):
            pos = {gen.id: i + by for i, gen in enumerate(p.alphabet)}
            return [Word([(pos[g], e) for g, e in r.syllables]) for r in p.relators]

        amalgam = Presentation(
            Alphabet([f"x{i}" for i in range(k1)] + [f"y{i}" for i in range(k2)]),
            shifted(g1, 0) + shifted(g2, k1) + [Word([(0, 1), (k1, -1)])],
        )
        for target, count in expected.items():
            table = builtin_table(target)
            n1, n2 = _meridian_images(g1, table), _meridian_images(g2, table)
            assert sum(a * b for a, b in zip(n1, n2)) == count
            assert hom_count(amalgam, table) == count


def _meridian_images(p, table):
    """Brute-force count of the homs of p by image of its first generator."""
    images = [0] * table.order
    for values in itertools.product(range(table.order), repeat=len(p.alphabet)):
        assignment = {gen.id: x for gen, x in zip(p.alphabet, values)}
        if all(
            evaluate_word_in_quotient(p, r, assignment, table) == table.identity
            for r in p.relators
        ):
            images[values[0]] += 1
    return images


def _two_braid(n):
    """Closed 2-braid diagram of T(2, n): crossing k has over-arc k, in k-1, out k+1."""
    return KnotDiagram(n, [Crossing(k, (k - 2) % n + 1, k % n + 1, 1) for k in range(1, n + 1)])


class TestProfiles:
    def test_identical_presentations_equal_profiles(self):
        targets = ("Z2", "Z3", "S3")
        a = invariant_profile(torus_presentation(2, 3), targets)
        b = invariant_profile(torus_presentation(2, 3), targets)
        assert a == b

    def test_unknot_vs_trefoil_differ_at_s3(self):
        unknot = wirtinger_presentation(builtin_diagram("unknot"))
        trefoil = wirtinger_presentation(builtin_diagram("trefoil"))
        pu = invariant_profile(unknot, ("S3",))
        pt = invariant_profile(trefoil, ("S3",))
        assert dict(pu.hom_counts)["S3"] == 6
        assert dict(pt.hom_counts)["S3"] > 6
        assert pu != pt

    @pytest.mark.parametrize(
        "n,diagram",
        [pytest.param(3, builtin_diagram("trefoil"), id="trefoil")]
        + [pytest.param(n, _two_braid(n), id=f"braid-{n}") for n in (3, 5, 7, 9)],
    )
    def test_wirtinger_matches_torus_2_n(self, n, diagram):
        # the Wirtinger side solves with ±1 steps (S4^9 is past the default
        # budget); torus_presentation(2, n) solves b from a^2 b^-n by a root step
        targets = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "S3", "D4", "A4", "S4")
        wirtinger = invariant_profile(wirtinger_presentation(diagram), targets, max_evals=10**13)
        torus = invariant_profile(torus_presentation(2, n), targets)
        assert wirtinger == torus
        # every knot group abelianizes to Z, so it has exactly k homs into Z_k
        assert str(torus.abelian) == "Z"
        counts = dict(torus.hom_counts)
        assert [counts[f"Z{k}"] for k in range(2, 8)] == list(range(2, 8))
        expected = [12, 8, 36, 96] if n % 3 == 0 else [6, 8, 12, 24]
        assert [counts[t] for t in ("S3", "D4", "A4", "S4")] == expected

    def test_pairs_are_stable_and_carry_note(self):
        profile = invariant_profile(torus_presentation(2, 3), ("Z2", "S3"))
        pairs = profile_pairs(profile)
        assert pairs[0][0] == "note"
        assert ("abelian", "Z") in pairs
        assert pairs[-1] == ("hom S3", "12")
