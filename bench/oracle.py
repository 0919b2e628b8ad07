"""Answers the benchmark derives on its own, without knotgrp.

Each function here is a closed form or a small independent algorithm that
an item's output is checked against:

* Fox 3-colorings from the rank of the crossing matrix over GF(3); for a
  Wirtinger presentation the number of homomorphisms into S3 is 3 plus the
  number of colorings (identity, the two 3-cycle classes, and one
  homomorphism per coloring by transpositions);
* hom counts of T(2,n), via the torus-knot group ⟨a,b | a^2 = b^n⟩, by
  counting pairs (x, y) with x^2 = y^n in permutation groups built here;
* the exact integer determinant (fraction-free elimination);
* reduction in Z_m * Z_n plus the exponent sum under a -> n, b -> m, which
  together decide equality in ⟨a,b | a^m = b^n⟩ and give its normal form.
"""

from __future__ import annotations

import itertools
import re

# --- knot diagrams ----------------------------------------------------------


def gf3_rank(rows: list) -> int:
    m = [[x % 3 for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][c]  # 1 and 2 are their own inverses mod 3
        m[rank] = [(x * inv) % 3 for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % 3 for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def fox3_colorings(crossings) -> int:
    """Number of Fox 3-colorings (constant ones included) of a diagram."""
    arcs = max(len(crossings), 1)
    rows = []
    for over, under_in, under_out, _ in crossings:
        row = [0] * arcs
        row[over - 1] += 2
        row[under_in - 1] -= 1
        row[under_out - 1] -= 1
        rows.append(row)
    return 3 ** (arcs - gf3_rank(rows))


def s3_homs(crossings) -> int:
    return 3 + fox3_colorings(crossings)


# --- small groups as permutations -------------------------------------------


def _compose(p, q):
    return tuple(p[i] for i in q)


def _is_even(p) -> bool:
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j]) % 2 == 0


def _closure(generators) -> list:
    identity = tuple(range(len(generators[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = _compose(g, x)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return sorted(elements)


def group_elements(name: str) -> list:
    """Elements of Zk, D4, Sk or Ak as permutation tuples."""
    if name.startswith("Z"):
        k = int(name[1:])
        return _closure([tuple((i + 1) % k for i in range(k))])
    if name == "D4":  # symmetries of a square: rotation and a reflection
        return _closure([(1, 2, 3, 0), (0, 3, 2, 1)])
    k = int(name[1:])
    perms = list(itertools.permutations(range(k)))
    return [p for p in perms if _is_even(p)] if name[0] == "A" else perms


def _power(p, e: int):
    out = tuple(range(len(p)))
    for _ in range(e):
        out = _compose(p, out)
    return out


def torus_homs(m: int, n: int, target: str) -> int:
    """Homomorphisms ⟨a,b | a^m = b^n⟩ -> target, counted pair by pair."""
    elements = group_elements(target)
    am = {}
    for x in elements:
        key = _power(x, m)
        am[key] = am.get(key, 0) + 1
    return sum(am.get(_power(y, n), 0) for y in elements)


# --- integer matrices -------------------------------------------------------


def determinant(rows) -> int:
    """Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def parse_abelian(text: str) -> tuple:
    """'Z^2 x Z/3' -> (free rank, torsion factors)."""
    rank, torsion = 0, []
    for part in text.split(" x "):
        if part == "1":
            continue
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        else:
            torsion.append(int(part[2:]))
    return rank, tuple(torsion)


# --- ⟨a,b | a^m = b^n⟩ and Z_m * Z_n ----------------------------------------

_SYLLABLE = re.compile(r"([ab])(?:\^(-?\d+))?")


def parse_ab(text: str) -> list:
    out = []
    for token in re.split(r"[\s*]+", text.strip()):
        if token:
            letter, exp = _SYLLABLE.fullmatch(token).groups()
            out.append((letter, int(exp) if exp else 1))
    return out


def free_reduce(m: int, n: int, syllables) -> list:
    """Reduced form in Z_m * Z_n: alternating letters, exponents in [1, order)."""
    mod = {"a": m, "b": n}
    out: list = []
    for letter, e in syllables:
        if out and out[-1][0] == letter:
            e += out.pop()[1]
        e %= mod[letter]
        if e:
            out.append((letter, e))
    return out


def weight(m: int, n: int, syllables) -> int:
    """Image under the abelianization a -> n, b -> m; injective on the center."""
    return sum((n if letter == "a" else m) * e for letter, e in syllables)


def torus_normal_form(m: int, n: int, syllables) -> tuple:
    """(central exponent t, syllables) of the unique normal form c^t s_1...s_k."""
    reduced = free_reduce(m, n, syllables)
    t, rest = divmod(weight(m, n, syllables) - weight(m, n, reduced), m * n)
    assert rest == 0
    return t, reduced


def parse_normal_form(text: str) -> tuple:
    """Inverse of the 'c^t · a^2 b' notation printed by knotgrp."""
    if text == "e":
        return 0, []
    t, body = 0, text
    head, sep, tail = text.partition(" · ")
    if head == "c" or head.startswith("c^"):
        t = 1 if head == "c" else int(head[2:])
        body = tail if sep else ""
    return t, parse_ab(body) if body else []


def equal_in_torus_group(m: int, n: int, u, v) -> bool:
    return torus_normal_form(m, n, u) == torus_normal_form(m, n, v)


def power_is_trivial(m: int, n: int, syllables, k: int) -> bool:
    return not free_reduce(m, n, list(syllables) * k)


def check_order(m: int, n: int, syllables, answer: str) -> bool:
    """w^order is trivial in Z_m * Z_n and no smaller positive power is.

    A torsion element's order divides m or n, so "infinite" is right
    exactly when neither w^m nor w^n is trivial.
    """
    w = free_reduce(m, n, syllables)
    if answer == "infinite":
        return not power_is_trivial(m, n, w, m) and not power_is_trivial(m, n, w, n)
    order = int(answer)
    acc: list = []
    for k in range(1, order + 1):
        acc = free_reduce(m, n, acc + w)
        if not acc:
            return k == order
    return False
