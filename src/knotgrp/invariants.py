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
  borders the matrix with identities for the kernel to carry along;
* homomorphism counts into finite groups given by multiplication
  tables, by an exact search that binds each generator to the roots of
  x^e = v (e = 0 enumerates; e = -s solves a relator pinning it as g^s),
  checks each relator once its generators are bound, runs the first image
  over conjugacy classes and, when it enumerates, the second over orbits
  of the first's centralizer, and into a commutative target sees only
  each relator's exponent sums; the budget is still the full |T|^|X|.
  The search and ``evaluate_word_in_quotient`` evaluate words compiled
  to (position, ``_table_power`` row) programs with one fold, ``_value``.
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
import operator
import re
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence, Tuple

from .errors import DEFAULT_MAX_EVALS, BudgetError, InputError
from .presentation import Presentation
from .torus import _integer
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


def determinant(a: IntMatrix) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    if a.rows != a.cols:
        raise InputError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    """
    n, t = min(rows, cols), 0
    while True:
        while t < n and (pivot := _find_pivot(m, t, rows, cols)) is not None:
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
    def classes(self) -> dict[int, tuple[int, dict[int, int]]]:
        """Conjugation data, computed on first use: for each conjugacy
        class, keyed by its least element x, the class size and the orbits
        of x's centralizer C(x) acting on the group by conjugation, as a
        dict from each orbit's least element to its size, shared and not to
        be mutated. The group is commutative exactly when every class is a
        singleton."""
        mul, inv, n = self.mul, self.inv, self.order

        def orbits(group) -> dict[int, int]:
            sizes, seen = {}, set()
            for y in range(n):
                if y not in seen:
                    orbit = {mul[mul[h][y]][inv[h]] for h in group}
                    seen |= orbit
                    sizes[y] = len(orbit)
            return sizes

        return {
            x: (size, orbits([h for h in range(n) if mul[h][x] == mul[x][h]]))
            for x, size in orbits(range(n)).items()
        }


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
    exponents = {e for _, e in w.syllables}
    rows = {e: [_table_power(table, x, e) for x in range(table.order)] for e in exponents}
    prog = tuple((gid, rows[e]) for gid, e in w.syllables)
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

_Program = Tuple[Tuple[int, int], ...]  # (generator position, exponent) syllables


@dataclass(frozen=True)
class _Step:
    """Bind the generator at `position` to each root x of x^exponent = v,
    v the value of `solve`, then check that each relator in `checks` is
    the identity. Enumerating is exponent 0 with an empty `solve`."""

    position: int
    exponent: int
    solve: _Program
    checks: Tuple[_Program, ...]


def _plan(relators: Sequence[_Program]) -> list[_Step]:
    """A binding order for the generators that occur in `relators`.

    A relator A·g^s·B whose only unbound generator g occurs once solves
    it: g^-s = B·A, a step with exponent -s and program B·A. Otherwise
    the step enumerates the unbound generator that occurs in the most
    relators, lowest position on ties. Every relator is checked at the
    step that binds its last generator, except the one a step solves.
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


def _exponent_sums(rel: _Program) -> _Program:
    """A relator's nonzero exponent sums by position: all a commutative group sees."""
    sums: dict[int, int] = {}
    for pos, e in rel:
        sums[pos] = sums.get(pos, 0) + e
    return tuple(sorted((pos, s) for pos, s in sums.items() if s))


def _search(steps: Sequence[_Step], table: FiniteGroupTable, k: int) -> int:
    """Assignments of the planned generators that pass every check.

    Depth-first over the plan with an explicit stack of iterators, each
    over the roots of x^e = v from a table built once per exponent.
    Conjugating a homomorphism gives another, so step 0 (it enumerates:
    no relator is solvable before a generator is bound) runs over one
    element x per conjugacy class, weighted by the class size. If step 1
    enumerates too, it runs over one element per orbit of x's centralizer
    C(x), weighted by class size × orbit size: C(x) fixes x, so every
    element of an orbit extends in equally many ways.
    """
    if not steps:
        return 1
    mul = table.mul
    roots = {step.exponent: [[] for _ in range(table.order)] for step in steps}
    exponents = roots.keys() | {e for s in steps for prog in (s.solve,) + s.checks for _, e in prog}
    powers = {e: [_table_power(table, x, e) for x in range(table.order)] for e in exponents - {1, -1}}
    powers.update({1: mul[0], -1: table.inv})  # x^1 and x^-1 need no powering
    for e, by_value in roots.items():
        for x, v in enumerate(powers[e]):
            by_value[v].append(x)

    def compiled(prog: _Program):
        return tuple((pos, powers[e]) for pos, e in prog)

    positions = [step.position for step in steps]
    solves = [compiled(step.solve) for step in steps]
    step_roots = [roots[step.exponent] for step in steps]
    checks = [tuple(map(compiled, step.checks)) for step in steps]
    classes = table.classes
    by_orbit = len(steps) > 1 and not steps[1].exponent
    value = [0] * k

    def options(level: int):
        return iter(step_roots[level][_value(solves[level], value, mul)])

    last = len(steps) - 1
    count, weight = 0, 1
    stack = [iter(classes)]
    while stack:
        level = len(stack) - 1
        x = next(stack[level], None)
        if x is None:
            stack.pop()
            continue
        value[positions[level]] = x
        if level == 0:
            size, orbits = classes[x]
            weight = size
        elif level == 1 and by_orbit:
            weight = size * orbits[x]
        for prog in checks[level]:
            if _value(prog, value, mul):
                break
        else:
            if level == last:
                count += weight
            elif level == 0 and by_orbit:
                stack.append(iter(orbits))
            else:
                stack.append(options(level + 1))
    return count


def _check_max_evals(max_evals: int) -> None:
    if not isinstance(max_evals, int):
        raise InputError(f"max_evals must be an int, got {max_evals!r}")


def hom_count(p: Presentation, table: FiniteGroupTable, max_evals: int = DEFAULT_MAX_EVALS) -> int:
    """Number of homomorphisms ⟨X|R⟩ → table group (trivial one included).

    By von Dyck's theorem these are the assignments of X that send every
    relator to the identity. An exact search binds the generators that
    occur in relators one at a time, its first two images up to
    conjugacy (see _plan and _search); each generator in no relator
    contributes a factor |T|. A commutative target sees only exponent
    sums, so there each relator is reduced to its nonzero sums first and
    dropped if none is left. Raises BudgetError before any work if the
    |T|^|X| assignments exceed max_evals: the budget is unchanged and
    does not count the smaller search.
    """
    _check_max_evals(max_evals)
    k = len(p.alphabet)
    order = table.order
    total = order**k
    if total > max_evals:
        raise BudgetError(
            f"hom_count would evaluate {total} assignments "
            f"({table.name}^{k}), exceeding the budget of {max_evals}"
        )
    positions = {gen.id: i for i, gen in enumerate(p.alphabet)}
    relators = [tuple((positions[g], e) for g, e in r.syllables) for r in p.relators]
    if len(table.classes) == order:
        relators = [rel for rel in map(_exponent_sums, relators) if rel]
    steps = _plan(relators)
    return _search(steps, table, k) * order ** (k - len(steps))


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
    _check_max_evals(max_evals)
    counts = tuple((name, hom_count(p, builtin_table(name), max_evals)) for name in targets)
    return InvariantProfile(abelianization(p), counts)


def profile_pairs(profile: InvariantProfile) -> list[tuple[str, str]]:
    """Stable key/value lines for reports and golden files."""
    pairs = [("note", PROFILE_NOTE), ("abelian", str(profile.abelian))]
    pairs.extend((f"hom {name}", str(count)) for name, count in profile.hom_counts)
    return pairs
