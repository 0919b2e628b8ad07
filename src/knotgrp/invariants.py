"""Computable invariants of finitely presented groups.

Two invariant families are implemented, both exact:

* the abelianization, read off the Smith diagonal of the relator
  exponent-sum matrix in arbitrary-precision integers. One elimination
  kernel does all Smith forms. Each position takes the smallest entry
  of the remaining block as pivot and clears its column before its row.
  Row sweeps with rounded quotients repeat, each remainder at most half
  the pivot and the smallest becoming the next one, until the column is
  zero below the pivot; only then does one column operation sweep the
  row, when only the pivot row and the transform border still meet it.
  The pivots strictly decrease, which ends the sweeps and keeps entries
  and transforms small. Transforms exist only when `smith_normal_form`
  borders the matrix with identities for the kernel to carry along.
  Without them, a square block left once the ±1 pivots run out goes to
  one fraction-free (Bareiss) pass, the one `determinant` runs. If G =
  gcd(det, up to three adjugate columns) is 1, the diagonal is
  (1, …, 1, |det|); else the kernel runs on the block mod G stacked
  over G·I, whose entries start below that small G;
* homomorphism counts into finite groups given by multiplication
  tables, by three rules. Into a commutative target every hom factors
  through the abelianization, so the count is read off the Smith
  diagonal. Otherwise an exact search binds each generator to the roots
  of x^e = v (e = 0 enumerates; e = -s solves a relator pinning it as
  g^s) and checks each relator once its generators are bound; each
  enumerating step runs over the orbits of the stabilizer of the images
  bound so far. The budget is still the full |T|^|X|. The table caches
  its x^e rows, their roots and its stabilizer orbits on first use, and
  the search and ``evaluate_word_in_quotient`` evaluate words compiled
  to (generator id, row) programs with one fold, ``_value``.
  ``FiniteGroupTable(name, mul)`` refuses any ``mul`` that is not a group
  with identity 0, checking associativity exactly (Light's test). Every
  builtin group is a list of permutations in table order (rotations for
  Z_k, lex order for S_k and A_k, v ↦ ±v+i mod 4 for D4), and
  ``builtin_table`` multiplies x·y as x∘y, y applied first.

Counts and abelian invariants agree for isomorphic groups, so unequal
profiles certify non-isomorphism; equal profiles are necessary evidence
only, and reports say so.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence, Tuple

from .errors import DEFAULT_MAX_EVALS, BudgetError, InputError, _integer
from .presentation import Presentation
from .words import Word


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """A small immutable integer matrix (arbitrary precision entries)."""

    entries: Tuple[Tuple[int, ...], ...]
    cols: int | None = None
    rows: int = field(init=False)

    def __post_init__(self):
        try:
            grid = tuple(tuple(map(operator.index, row)) for row in self.entries)
        except TypeError:
            raise InputError("matrix entries must be rows of integers") from None
        cols = self.cols
        if cols is not None:
            cols = _integer(cols, "column count")
            if cols < 0:
                raise InputError(f"column count must be >= 0, got {cols}")
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise InputError("ragged matrix rows")
        else:
            if cols is None:
                raise InputError("empty matrix needs an explicit column count")
            width = cols
        if cols is not None and grid and cols != width:
            raise InputError("column count mismatch")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "rows", len(grid))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)), cols=cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch")
        return IntMatrix(
            tuple(
                tuple(
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                )
                for i in range(self.rows)
            ),
            cols=other.cols,
        )

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r}, cols={self.cols})"


def _bareiss(m: list[list[int]]) -> list[int] | None:
    """Fraction-free (Bareiss) elimination of the square m in place.

    Step k swaps the first row from k down with a nonzero entry in column
    k into row k, then rewrites each row i below it as
    (p·row_i - c·row_k) / prev over columns k+1 on, with p the pivot
    m[k][k], c = m[i][k] and prev the pivot before. Each division is
    exact, and m[k][k] ends as the leading (k+1)-minor of the row-swapped
    matrix, so the last pivot is its determinant. Column k below the
    pivot keeps the multipliers c, which, with the swaps, replay the
    elimination on a right-hand side (`_adjugate_column`). Returns the
    row swapped in at each step, or None once a column has no pivot
    (m is singular).
    """
    n, prev, swaps = len(m), 1, []
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][k]), None)
        if i is None:
            return None
        swaps.append(i)
        m[k], m[i] = m[i], m[k]
        tail = m[k][k + 1 :]
        p = m[k][k]
        for row in m[k + 1 :]:
            c = row[k]
            row[k + 1 :] = [(p * x - c * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = p
    return swaps


def determinant(a: IntMatrix) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    if a.rows != a.cols:
        raise InputError("determinant needs a square matrix")
    if a.rows == 0:
        return 1
    m = [list(row) for row in a.entries]
    swaps = _bareiss(m)
    if swaps is None:
        return 0
    flips = sum(k != i for k, i in enumerate(swaps))
    return -m[-1][-1] if flips % 2 else m[-1][-1]


def _adjugate_column(m: list[list[int]], swaps: list[int], j: int) -> list[int]:
    """±(column j of adj B), from the eliminated form m of B (`_bareiss`).

    The swaps and multipliers are replayed on e_j, then back-substitution
    multiplies through by the last pivot δ = ±det B: x_k =
    (δ·y_k - Σ_{l>k} m[k][l]·x_l) / m[k][k], exact since x = δ·B⁻¹e_j is
    the adjugate column up to sign.
    """
    n = len(m)
    y = [0] * n
    y[j] = 1
    for k, i in enumerate(swaps):
        y[k], y[i] = y[i], y[k]
    prev = 1
    for k in range(n - 1):
        p, yk = m[k][k], y[k]
        for i in range(k + 1, n):
            y[i] = (p * y[i] - m[i][k] * yk) // prev
        prev = p
    x, delta = [0] * n, m[-1][-1]
    for k in range(n - 1, -1, -1):
        row = m[k]
        x[k] = (delta * y[k] - sum(map(operator.mul, row[k + 1 :], x[k + 1 :]))) // row[k]
    return x


def _nonsingular_diagonal(b: list[list[int]]) -> list[int] | None:
    """Smith diagonal of the square b, or None when b is singular.

    With B = U·diag(d_1, …, d_n)·V, every entry of adj B and det B is a
    multiple of d_1⋯d_{n-1}, so G = gcd(det B, up to three adjugate
    columns) is one too. G = 1 certifies (1, …, 1, |det B|). Otherwise
    the stacked [b mod G; G·I] spans the rows of b plus G·Z^n, whose
    Smith diagonal is gcd(d_i, G) = d_i for i < n; d_n is |det B| over
    their product. Entries of the stacked matrix start below G.
    """
    n = len(b)
    m = [row[:] for row in b]
    swaps = _bareiss(m)
    if swaps is None:
        return None
    det = g = abs(m[-1][-1])
    for j in range(n - 1, max(n - 4, -1), -1):
        if g == 1:
            break
        g = math.gcd(g, *_adjugate_column(m, swaps, j))
    if g == 1:
        return [1] * (n - 1) + [det]
    stacked = [[x % g for x in row] for row in b]
    stacked += [[g if i == j else 0 for j in range(n)] for i in range(n)]
    _diagonalize(stacked, 2 * n, n)
    head = [stacked[i][i] for i in range(n - 1)]
    return head + [det // math.prod(head)]


def _find_pivot(m: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    """Smallest |value| nonzero in the block from (t, t), ties row-major.

    The scan stops at the first ±1, which no entry can beat.
    """
    best, size = None, 0
    for i in range(t, rows):
        row = m[i]
        for j in range(t, cols):
            v = row[j]
            if v:
                a = abs(v)
                if a == 1:
                    return i, j
                if best is None or a < size:
                    best, size = (i, j), a
    return best


def _diagonalize(m: list[list[int]], rows: int, cols: int) -> None:
    """Bring the leading rows×cols block of m to Smith form, in place.

    Whatever borders the block (rows below it, columns to its right)
    undergoes the same row and column operations, so identity borders
    become the transforms. At position t, rows t and below are zero left
    of column t and rows above t are zero from column t on, so row
    operations act on row[t:] and column operations skip the rows above
    t. Both borders lie outside what is skipped (the lower one starts at
    row `rows` > t, the right one at column `cols` > t), so they stay exact.

    Pivoting is deterministic. Position t first takes the smallest
    |value| of the whole remaining block, ties row-major, made positive.
    Column t is cleared first: a row sweep subtracts q = round(b/p)
    times the pivot row from every row with an entry b below the pivot
    p, so each remainder has |r| ≤ p/2. While any remainder is nonzero,
    the smallest (ties topmost) becomes the pivot by a row swap and
    the row sweep repeats. Only with column t zero below the pivot does
    one column operation subtract round(b/p) times column t from every
    column with an entry b right of p; by then only row t and the lower
    border have entries in column t, so it touches no other row. A
    remainder left in row t, the smallest (ties leftmost), becomes the
    pivot by a column swap, and column t is cleared again. Each pivot at
    t is at most half the one before, so the sweeps end, with column t
    and row t clear. A pivot that divides its whole row and column, as 1
    does, takes one sweep of each.

    An unbordered square m takes one hand-off: at the first position
    whose pivot is not ±1, the remaining block goes to
    `_nonsingular_diagonal`, whose one Bareiss pass takes n(n-1)/2 row
    operations (780 at n = 40, where the sweeps take about 3,600 on a
    random 40×40 in [-6, 6]). If the block is singular, the sweeps
    continue from that position. Bordered calls never hand off: the pass
    yields the diagonal but no U or V, so `smith_normal_form` stays the
    pure kernel and an independent check of it. Relation matrices of
    knots pivot on ±1 all the way down and never reach the pass.
    """
    n, t = min(rows, cols), 0
    hand_off = rows == cols == len(m) > 0 and len(m[0]) == cols
    while True:
        while t < n and (pivot := _find_pivot(m, t, rows, cols)) is not None:
            i, j = pivot
            if hand_off and abs(m[i][j]) != 1:
                hand_off = False
                diag = _nonsingular_diagonal([row[t:] for row in m[t:]])
                if diag is not None:
                    for k, d in enumerate(diag, t):
                        m[k][t:] = [0] * (n - t)
                        m[k][k] = d
                    return
            while pivot is not None:
                i, j = pivot
                m[t], m[i] = m[i], m[t]
                if j != t:
                    for row in m[t:]:
                        row[t], row[j] = row[j], row[t]
                head = m[t]
                if head[t] < 0:
                    head[t:] = [-x for x in head[t:]]
                tail = head[t:]
                p = tail[0]
                half = p >> 1
                pivot, size = None, 0
                for k in range(t + 1, rows):
                    row = m[k]
                    b = row[t]
                    if b:
                        q = (b + half) // p
                        if q:
                            row[t:] = [x - q * y for x, y in zip(row[t:], tail)]
                            b = row[t]
                        if b and (pivot is None or abs(b) < size):
                            pivot, size = (k, t), abs(b)
                if pivot is not None:
                    continue
                right = head[t + 1 : cols]
                qs = right if p == 1 else [(b + half) // p for b in right]
                if any(qs):
                    for row in m[t:]:
                        c = row[t]
                        if c:
                            row[t + 1 : cols] = [x - q * c for x, q in zip(row[t + 1 : cols], qs)]
                # a pivot of 1 leaves no remainders
                if p > 1 and any(right := head[t + 1 : cols]):
                    _, k = min((abs(b), k) for k, b in enumerate(right, t + 1) if b)
                    pivot = t, k
            t += 1
        # Enforce the divisibility chain: a violating pair is merged by a
        # row addition and the sweep is rerun from that pivot.
        t = next((i for i in range(n - 1) if m[i][i] and m[i + 1][i + 1] % m[i][i]), None)
        if t is None:
            return
        m[t] = [x + y for x, y in zip(m[t], m[t + 1])]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize a over the integers: returns (D, U, V) with D = U·A·V.

    U and V are unimodular; D is diagonal with nonnegative entries in a
    divisibility chain d1 | d2 | ..., zeros trailing. A is bordered by
    identity columns on the right and identity rows below, so one run of
    _diagonalize turns the right border into U and the lower one into V.
    """
    rows, cols = a.rows, a.cols
    m = [list(row) + [int(i == k) for k in range(rows)] for i, row in enumerate(a.entries)]
    m += [[int(i == j) for j in range(cols)] for i in range(cols)]
    _diagonalize(m, rows, cols)
    return (
        IntMatrix([row[:cols] for row in m[:rows]], cols=cols),
        IntMatrix([row[cols:] for row in m[:rows]], cols=rows),
        IntMatrix(m[rows:], cols=cols),
    )


def _exponent_rows(p: Presentation) -> list[list[int]]:
    """One row per relator, one column per generator: exponent sums."""
    positions = {gid: k for k, (gid, _) in enumerate(p.alphabet)}
    width = len(positions)
    rows = []
    for r in p.relators:
        row = [0] * width
        for gid, e in r.syllables:
            row[positions[gid]] += e
        rows.append(row)
    return rows


def relation_matrix(p: Presentation) -> IntMatrix:
    """One row per relator, one column per generator: exponent sums."""
    return IntMatrix(_exponent_rows(p), cols=len(p.alphabet))


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion_factors: Tuple[int, ...]  # each >= 2, divisibility chain

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion_factors)
        return " x ".join(parts) if parts else "1"

    def group_order(self):
        """Order of the abelianization: an int, or float("inf") if free rank > 0."""
        if self.free_rank:
            return float("inf")
        order = 1
        for d in self.torsion_factors:
            order *= d
        return order


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group, off the Smith diagonal.

    >>> from knotgrp.words import Alphabet, parse_word
    >>> ab = Alphabet(["a", "b"])
    >>> p = Presentation(ab, [parse_word("a^2 b^4", ab), parse_word("a^6 b^8", ab)])
    >>> print(abelianization(p))
    Z/2 x Z/4
    """
    m = _exponent_rows(p)
    width = len(p.alphabet)
    _diagonalize(m, len(m), width)
    nonzero = [m[i][i] for i in range(min(len(m), width)) if m[i][i]]
    return AbelianInvariants(
        free_rank=width - len(nonzero),
        torsion_factors=tuple(x for x in nonzero if x > 1),
    )


# --- finite group tables ----------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group as its multiplication table on 0..order-1, 0 the
    identity. Any `mul` that is not a group table (nonempty and square,
    int entries in range, 0 an identity, two-sided inverses, associative)
    is refused with InputError; `order` and `inv` are read off `mul`."""

    name: str
    mul: Tuple[Tuple[int, ...], ...]
    order: int = field(init=False)
    inv: Tuple[int, ...] = field(init=False)
    identity: ClassVar[int] = 0
    # Lazily filled caches: x^e rows and their roots by exponent mod order,
    # and stabilizer orbits by bitmask. Not compared, hashed or printed.
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _orbits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            mul = tuple(tuple(map(operator.index, row)) for row in self.mul)
        except TypeError:
            raise InputError(f"{self.name}: multiplication table must be rows of ints") from None
        n = len(mul)
        if any(len(row) != n for row in mul) or not n:
            raise InputError(f"{self.name}: multiplication table is empty or not square")
        if min(map(min, mul)) < 0 or max(map(max, mul)) >= n:
            raise InputError(f"{self.name}: multiplication table entries must lie in 0..{n - 1}")
        if mul[0] != tuple(range(n)) or any(row[0] != i for i, row in enumerate(mul)):
            raise InputError(f"{self.name}: element 0 is not an identity")
        inv = [next((j for j in range(n) if mul[i][j] == mul[j][i] == 0), None) for i in range(n)]
        if None in inv:
            raise InputError(f"{self.name}: element {inv.index(None)} has no inverse")
        # Light's test: the y with (xy)z = x(yz) for all x, z include 0 and
        # are closed under products, so only a y that no product of those
        # checked before reaches needs checking: at most log2(order) in a group.
        checked, reached = [], {0}
        for y in range(n):
            if y not in reached:
                if any(mul[mul[x][y]] != tuple(map(mul[x].__getitem__, mul[y])) for x in range(n)):
                    raise InputError(f"{self.name}: multiplication is not associative")
                checked.append(y)
                while new := {mul[r][c] for r in reached for c in checked} - reached:
                    reached |= new
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "inv", tuple(inv))

    @functools.cached_property
    def commutative(self) -> bool:
        """Whether xy = yx throughout: `mul` equals its transpose."""
        return self.mul == tuple(zip(*self.mul))

    @functools.cached_property
    def centralizers(self) -> Tuple[int, ...]:
        """C(x) for each x, as a bitmask over the elements."""
        mul, n = self.mul, self.order
        return tuple(
            sum(1 << h for h in range(n) if mul[h][x] == mul[x][h]) for x in range(n)
        )

    @functools.cached_property
    def classes(self) -> dict[int, tuple[int, dict[int, int]]]:
        """Conjugation data: for each conjugacy class, keyed by its least
        element x, the class size and ``orbits`` of x's centralizer C(x).
        The group is commutative exactly when every class is a singleton."""
        whole = (1 << self.order) - 1
        return {
            x: (size, self.orbits(self.centralizers[x])) for x, size in self.orbits(whole).items()
        }

    def power(self, e: int) -> Tuple[int, ...]:
        """The row x ↦ x^e, computed once per exponent mod the order (x^order = 1)."""
        e %= self.order
        row = self._powers.get(e)
        if row is None:
            row = self._powers[e] = tuple(_table_power(self, x, e) for x in range(self.order))
        return row

    def roots(self, e: int) -> Tuple[Tuple[int, ...], ...]:
        """For each value v, the x with x^e = v, ascending; computed once per exponent."""
        e %= self.order
        roots = self._roots.get(e)
        if roots is None:
            by_value: list[list[int]] = [[] for _ in range(self.order)]
            for x, v in enumerate(self.power(e)):
                by_value[v].append(x)
            roots = self._roots[e] = tuple(map(tuple, by_value))
        return roots

    def orbits(self, stabilizer: int) -> dict[int, int]:
        """The orbits of the subgroup with bitmask `stabilizer` acting on the
        group by conjugation, as a dict from each orbit's least element to
        its size; computed once per subgroup, shared and not to be mutated."""
        sizes = self._orbits.get(stabilizer)
        if sizes is None:
            mul, inv, n = self.mul, self.inv, self.order
            group = [h for h in range(n) if stabilizer >> h & 1]
            sizes, seen = {}, set()
            for y in range(n):
                if y not in seen:
                    orbit = {mul[mul[h][y]][inv[h]] for h in group}
                    seen |= orbit
                    sizes[y] = len(orbit)
            self._orbits[stabilizer] = sizes
        return sizes


def _table_power(table: FiniteGroupTable, x: int, e: int) -> int:
    """x^e by repeated squaring in a finite multiplication table."""
    if e < 0:
        x = table.inv[x]
        e = -e
    result = 0
    while e:
        if e & 1:
            result = table.mul[result][x]
        x = table.mul[x][x]
        e >>= 1
    return result


def _value(prog: Sequence, value: Sequence[int] | Mapping[int, int], mul) -> int:
    """The product, in order, of the power rows of a compiled program, each
    read at the element bound to its position in `value`."""
    acc = 0
    for pos, row in prog:
        acc = mul[acc][row[value[pos]]]
    return acc


def evaluate_word_in_quotient(
    p: Presentation, w: Word, assignment: Mapping[int, int], table: FiniteGroupTable
) -> int:
    """Image of w under generator-id -> element assignment into a table group."""
    for gen in p.alphabet:
        if gen.id not in assignment:
            raise InputError(f"assignment missing generator {gen.name!r}")
        if not isinstance(x := assignment[gen.id], int) or not 0 <= x < table.order:
            raise InputError(
                f"assignment for {gen.name!r} is not an element index (order {table.order})"
            )
    for gid, _ in w.syllables:
        if not p.alphabet.has_id(gid):
            raise InputError(f"word uses generator id {gid} not in the presentation")
    prog = tuple((gid, table.power(e)) for gid, e in w.syllables)
    return _value(prog, assignment, table.mul)


def _elements(name: str) -> list[Tuple[int, ...]]:
    """The permutations that are a builtin group's elements, in table order.

    Z_k is the rotations v ↦ v+i mod k, S_k its permutations in lex order,
    A_k the even ones among them, D4 the maps v ↦ ±v+i mod 4 of a
    square's vertices, rotations first. Each list starts at the identity.
    """
    if m := re.fullmatch(r"Z([2-9]|1[0-2])", name):
        k = int(m[1])
        return [tuple((v + i) % k for v in range(k)) for i in range(k)]
    if name == "D4":
        return [tuple((s * v + i) % 4 for v in range(4)) for s in (1, -1) for i in range(4)]
    if name in ("S3", "S4", "S5", "A4", "A5"):
        perms = itertools.permutations(range(int(name[1])))
        if name[0] == "S":
            return list(perms)
        return [p for p in perms if not sum(a > b for a, b in itertools.combinations(p, 2)) % 2]
    raise InputError(f"unknown group table {name!r}")


_TABLES: dict = {}  # name -> FiniteGroupTable; tables are immutable


def builtin_table(name: str) -> FiniteGroupTable:
    """Multiplication table of a named small group, built once per process.

    Known names: Z2..Z12, S3, S4, S5, A4, A5, D4. Element k is the k-th
    permutation of :func:`_elements`, and x·y is the permutation x∘y,
    which applies y first. In D4, element 1 is the rotation r and 4 the
    reflection s, so r·s = rs and s·r = r³s:

    >>> d4 = builtin_table("D4")
    >>> d4.mul[1][4], d4.mul[4][1]
    (5, 7)
    """
    table = _TABLES.get(name)
    if table is None:
        elements = _elements(name)
        index = {x: k for k, x in enumerate(elements)}
        mul = [[index[tuple(map(x.__getitem__, y))] for y in elements] for x in elements]
        table = _TABLES[name] = FiniteGroupTable(name, mul)
    return table


# --- homomorphism counting --------------------------------------------------

_Program = Tuple[Tuple[int, int], ...]  # (generator id, exponent) syllables


@dataclass(frozen=True)
class _Step:
    """Bind the generator with id `position` (its slot in the search's
    value list) to each root x of x^exponent = v, v the value of `solve`,
    then check that each relator in `checks` is the identity. Enumerating
    is exponent 0 with an empty `solve`."""

    position: int
    exponent: int
    solve: _Program
    checks: Tuple[_Program, ...]


def _plan(relators: Sequence[_Program]) -> list[_Step]:
    """A binding order for the generators that occur in `relators`.

    A relator A·g^s·B whose only unbound generator g occurs once solves
    it: g^-s = B·A, a step with exponent -s and program B·A. Otherwise
    the step enumerates the unbound generator that occurs in the most
    relators, lowest id on ties. Every relator is checked at the step
    that binds its last generator, except the one a step solves.
    """
    gens_of = [{pos for pos, _ in rel} for rel in relators]
    rels_of: dict[int, list[int]] = {}
    for r, gens in enumerate(gens_of):
        for pos in gens:
            rels_of.setdefault(pos, []).append(r)
    # every relator holding an unbound generator is unfinished, so the
    # count of unfinished relators per unbound generator never changes
    by_priority = iter(sorted(rels_of, key=lambda pos: (-len(rels_of[pos]), pos)))
    unbound = [len(gens) for gens in gens_of]
    bound: set[int] = set()
    solvable: set[int] = set()
    steps = []
    while len(bound) < len(rels_of):
        solved, exponent, solve = None, 0, ()
        if solvable:
            solved = min(solvable)
            rel = relators[solved]
            j = next(j for j, (pos, _) in enumerate(rel) if pos not in bound)
            position, s = rel[j]
            exponent, solve = -s, rel[j + 1 :] + rel[:j]
        else:
            position = next(pos for pos in by_priority if pos not in bound)
        bound.add(position)
        checks = []
        for r in rels_of[position]:
            unbound[r] -= 1
            if unbound[r] == 0:
                solvable.discard(r)
                if r != solved:
                    checks.append(relators[r])
            elif unbound[r] == 1:
                (last,) = gens_of[r] - bound
                if sum(pos == last for pos, _ in relators[r]) == 1:
                    solvable.add(r)
        steps.append(_Step(position, exponent, solve, tuple(checks)))
    return steps


def _search(steps: Sequence[_Step], table: FiniteGroupTable) -> int:
    """Assignments of the planned generators that pass every check.

    Depth-first over the plan with an explicit stack of iterators (plans
    can be thousands of steps deep), programs compiled to the table's
    cached power rows. A solving step runs over the table's cached roots
    of x^e = v. Conjugating a homomorphism by an element of the
    stabilizer S = C(x_1) ∩ … ∩ C(x_L) of the images bound so far keeps
    them and gives another homomorphism, so the completions are equally
    many across each S-orbit of the next image: an enumerating step runs
    over one element per S-orbit, weighted by the orbit size. Step 0 (it
    enumerates: no relator is solvable before a generator is bound) has
    S the whole group, whose orbits are the conjugacy classes. S is a
    bitmask, narrowed only while a later step enumerates, and the table
    caches the orbits of each S it meets.
    """
    if not steps:
        return 1
    mul = table.mul

    def compiled(prog: _Program):
        return tuple((pos, table.power(e)) for pos, e in prog)

    positions = [step.position for step in steps]
    solves = [compiled(step.solve) for step in steps]
    step_roots = [table.roots(step.exponent) for step in steps]
    checks = [tuple(map(compiled, step.checks)) for step in steps]
    enumerates = [not step.exponent for step in steps]
    narrowing = max(level for level, step in enumerate(steps) if not step.exponent)
    centralizers = table.centralizers if narrowing else ()
    value = [0] * (max(positions) + 1)
    last = len(steps) - 1
    stabilizers = [(1 << table.order) - 1] + [0] * last
    weights = [1] * len(steps)
    orbits = [table.orbits(stabilizers[0])] + [{}] * last
    count = 0
    stack = [iter(orbits[0])]
    while stack:
        level = len(stack) - 1
        x = next(stack[level], None)
        if x is None:
            stack.pop()
            continue
        value[positions[level]] = x
        for prog in checks[level]:
            if _value(prog, value, mul):
                break
        else:
            weight = weights[level] * orbits[level][x] if enumerates[level] else weights[level]
            if level == last:
                count += weight
                continue
            level += 1
            weights[level] = weight
            if level <= narrowing:
                stabilizers[level] = stabilizers[level - 1] & centralizers[x]
            if enumerates[level]:
                orbits[level] = table.orbits(stabilizers[level])
                stack.append(iter(orbits[level]))
            else:
                stack.append(iter(step_roots[level][_value(solves[level], value, mul)]))
    return count


def hom_count(p: Presentation, table: FiniteGroupTable, max_evals: int = DEFAULT_MAX_EVALS) -> int:
    """Number of homomorphisms ⟨X|R⟩ → table group (trivial one included).

    By von Dyck's theorem these are the assignments of X that send every
    relator to the identity. Three rules count them exactly:

    * into a commutative target every hom factors through the
      abelianization Z^r ⊕ Z/d_1 ⊕ …, so the count is
      |T|^r · ∏_i #{x : x^{d_i} = 1}, read off the Smith diagonal with
      no search;
    * otherwise a search binds the generators that occur in relators one
      at a time (see _plan), each to the roots of x^e = v from rows the
      table caches;
    * and each enumerating step runs over the orbits of the stabilizer of
      the images bound so far, weighted by orbit size (see _search).

    Each generator in no relator contributes a factor |T|. Raises
    BudgetError before any work if the |T|^|X| assignments exceed
    max_evals: the budget is unchanged and does not count the smaller work.
    """
    return _hom_count(p, table, max_evals, None)


def _hom_count(
    p: Presentation, table: FiniteGroupTable, max_evals: int, abelian: AbelianInvariants | None
) -> int:
    """hom_count, given p's abelian invariants when the caller has them."""
    max_evals = _integer(max_evals, "max_evals")
    k = len(p.alphabet)
    order = table.order
    total = order**k
    if total > max_evals:
        raise BudgetError(
            f"hom_count would evaluate {total} assignments "
            f"({table.name}^{k}), exceeding the budget of {max_evals}"
        )
    if table.commutative:
        if abelian is None:
            abelian = abelianization(p)
        count = order**abelian.free_rank
        for d in abelian.torsion_factors:
            count *= table.power(d).count(0)
        return count
    steps = _plan([r.syllables for r in p.relators])
    return _search(steps, table) * order ** (k - len(steps))


# --- profiles ---------------------------------------------------------------

PROFILE_NOTE = "equal profiles are necessary for isomorphism, not sufficient"


@dataclass(frozen=True)
class InvariantProfile:
    abelian: AbelianInvariants
    hom_counts: Tuple[Tuple[str, int], ...]  # (target name, count), in target order


def invariant_profile(
    p: Presentation, targets: Sequence[str], max_evals: int = DEFAULT_MAX_EVALS
) -> InvariantProfile:
    """Abelian invariants plus hom counts into the named target groups."""
    max_evals = _integer(max_evals, "max_evals")
    abelian = abelianization(p)
    counts = tuple(
        (name, _hom_count(p, builtin_table(name), max_evals, abelian)) for name in targets
    )
    return InvariantProfile(abelian, counts)


def profile_pairs(profile: InvariantProfile) -> list[tuple[str, str]]:
    """Stable key/value lines for reports and golden files."""
    pairs = [("note", PROFILE_NOTE), ("abelian", str(profile.abelian))]
    pairs.extend((f"hom {name}", str(count)) for name, count in profile.hom_counts)
    return pairs
