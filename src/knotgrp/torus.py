"""Structure theory of the torus-knot groups ⟨a,b | a^m = b^n⟩ and of Z_m * Z_n.

The central element c = a^m = b^n generates the center, and the quotient
by it is the free product Z_m * Z_n. Every element therefore has a unique
normal form c^t · s_1 s_2 ... s_k, where the s_i strictly alternate
between a-syllables with exponent in [1, m-1] and b-syllables with
exponent in [1, n-1]. Equality of normal forms solves the word problem.
Like a Word, a normal form holds (generator id, exponent) syllables over
AB, so 0 is a and 1 is b; only str() spells the letters.

Rewriting to normal form: split a^k into c^(k floordiv m) · a^(k mod m)
(floor division, so residues land in [0, m) for negative k too), same
for b with n; pull all c-powers into the central exponent, drop zero
residues, merge adjacent same-generator runs, repeat to a fixed point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import Iterator, NamedTuple, Tuple

from .errors import InputError
from .words import Alphabet, Syllable, Word

#: Alphabet shared by all two-generator torus/free-product computations.
AB = Alphabet(["a", "b"])

#: Distinguished return value for elements of infinite order.
INFINITE = float("inf")

_LETTERS = {0: "a", 1: "b"}


@dataclass(frozen=True)
class TorusParams:
    m: int
    n: int

    def __post_init__(self):
        m, n = _positive_orders(self.m, self.n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if gcd(m, n) != 1:
            raise InputError(
                f"invalid torus parameters ({m}, {n}): gcd is {gcd(m, n)}, "
                "but the curve embeds as a knot only when gcd(m, n) = 1"
            )


def _positive_orders(m, n) -> tuple[int, int]:
    """(m, n) as ints; InputError unless both are positive integers."""
    try:
        m, n = operator.index(m), operator.index(n)
    except TypeError:
        raise InputError(f"m and n must be integers, got ({m!r}, {n!r})") from None
    if m < 1 or n < 1:
        raise InputError(f"m and n must be positive, got ({m}, {n})")
    return m, n


def _integer(value, name: str) -> int:
    """value as an int; InputError unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None


def _render(syllables: Tuple[Syllable, ...]) -> str:
    """a/b syllables in the text notation, ``^1`` elided; ``e`` when empty."""
    try:
        text = " ".join(_LETTERS[g] if e == 1 else f"{_LETTERS[g]}^{e}" for g, e in syllables)
    except KeyError as exc:
        raise InputError(
            f"normal form uses a generator other than a, b (id {exc.args[0]})"
        ) from None
    return text or "e"


class TorusNormalForm(NamedTuple):
    """c^t · s_1 ... s_k as (t, alternating (generator id, residue) syllables).

    >>> nf = TorusNormalForm(2, ((0, 1), (1, 2)))
    >>> nf
    TorusNormalForm(central_exponent=2, syllables=((0, 1), (1, 2)))
    >>> print(nf)
    c^2 · a b^2
    """

    central_exponent: int
    syllables: Tuple[Syllable, ...]

    def is_identity(self) -> bool:
        return self == (0, ())

    def __str__(self) -> str:
        t, syllables = self
        if not t:
            return _render(syllables)
        c = "c" if t == 1 else f"c^{t}"
        return f"{c} · {_render(syllables)}" if syllables else c


class FreeProductNormalForm(NamedTuple):
    """s_1 ... s_k as alternating (generator id, residue) syllables."""

    syllables: Tuple[Syllable, ...]

    def is_identity(self) -> bool:
        return not self.syllables

    def __str__(self) -> str:
        return _render(self.syllables)


def _rewrite(m: int, n: int, syllables) -> tuple[int, Tuple[Syllable, ...]]:
    """Rewriting core over (generator id, exponent) pairs.

    Splits runs into central power times bounded residue, merging
    adjacent same-generator runs as they arise; a left-to-right merge
    stack reaches the fixed point of the splitting/merging rules in one
    pass. Returns (central exponent, alternating bounded (id, residue)
    syllables).
    """
    mods = (m, n)
    t = 0
    out: list[Syllable] = []
    last = None  # generator of out[-1]
    for g, e in syllables:
        if g == last:
            e += out.pop()[1]
        elif g != 0 and g != 1:
            raise InputError(f"word uses a generator other than a, b (id {g})")
        mod = mods[g]
        t += e // mod
        e %= mod
        if e:
            out.append((g, e))
            last = g
        else:
            last = out[-1][0] if out else None
    return t, tuple(out)


def torus_normal_form(p: TorusParams, w: Word) -> TorusNormalForm:
    """Unique normal form of w's image in ⟨a,b | a^m = b^n⟩.

    Two words are equal in the group iff their normal forms are equal.
    """
    return tuple.__new__(TorusNormalForm, _rewrite(p.m, p.n, w.syllables))


def words_equal_in_torus_group(p: TorusParams, u: Word, v: Word) -> bool:
    return torus_normal_form(p, u) == torus_normal_form(p, v)


def is_central(p: TorusParams, w: Word) -> bool:
    """True iff w's image commutes with everything.

    For m, n >= 2 the center is exactly ⟨c⟩ = ⟨a^m⟩ = ⟨b^n⟩, so the test
    is an empty syllable list in the normal form. If m or n is 1 the
    group is infinite cyclic, hence abelian, and every word is central
    (note ⟨c⟩ is then a proper subgroup of the center, so the normal-
    form test alone would be too strict).
    """
    return not torus_normal_form(p, w).syllables or p.m == 1 or p.n == 1


def free_product_normal_form(m: int, n: int, w: Word) -> FreeProductNormalForm:
    """Unique reduced form of w's image in Z_m * Z_n (gcd(m,n) arbitrary).

    Same rewriting as the torus normal form; the central power is
    discarded because a^m and b^n are trivial in the quotient.
    """
    m, n = _positive_orders(m, n)
    return FreeProductNormalForm(_rewrite(m, n, w.syllables)[1])


def _cyclic_core(m: int, n: int, syl: Tuple[Syllable, ...]) -> Tuple[Syllable, ...]:
    """Cyclically reduce a free-product normal form over generator ids by
    conjugation, in O(k).

    Peels equal-generator ends with two indices. The first pair whose
    exponents do not cancel merges into one last syllable; in an
    alternating normal form that ends the peeling.
    """
    mods = (m, n)
    i, j = 0, len(syl) - 1
    while i < j and syl[i][0] == syl[j][0]:
        g = syl[i][0]
        e = (syl[i][1] + syl[j][1]) % mods[g]
        i, j = i + 1, j - 1
        if e:
            return syl[i : j + 1] + ((g, e),)
    return syl[i : j + 1]


def order_in_free_product(m: int, n: int, w: Word):
    """Order of w's image in Z_m * Z_n: a positive integer or INFINITE.

    Torsion elements are exactly the conjugates of factor elements, so
    the cyclic core decides: empty core -> order 1; a single syllable
    has the order of its exponent in the factor; anything longer has
    infinite order (its powers never collapse).
    """
    m, n = _positive_orders(m, n)
    core = _cyclic_core(m, n, _rewrite(m, n, w.syllables)[1])
    if not core:
        return 1
    if len(core) == 1:
        g, e = core[0]
        mod = (m, n)[g]
        return mod // gcd(mod, e)
    return INFINITE


def enumerate_reduced_words(m: int, n: int, max_syllables: int) -> Iterator[Tuple[Syllable, ...]]:
    """All nonempty reduced free-product words with at most max_syllables syllables.

    Syllables alternate between a = id 0 (exponents 1..m-1) and b = id 1
    (exponents 1..n-1); enumeration order is deterministic.
    """
    m, n = _positive_orders(m, n)
    max_syllables = _integer(max_syllables, "max_syllables")
    if max_syllables < 1:
        return
    ranges = (range(1, m), range(1, n))

    def extend(prefix: Tuple[Syllable, ...], last: int) -> Iterator[Tuple[Syllable, ...]]:
        if len(prefix) >= max_syllables:
            return
        nxt = 1 - last
        for e in ranges[nxt]:
            longer = prefix + ((nxt, e),)
            yield longer
            yield from extend(longer, nxt)

    for first in (0, 1):
        for e in ranges[first]:
            start = ((first, e),)
            yield start
            yield from extend(start, first)


def max_torsion_order(m: int, n: int, search_length: int) -> int:
    """Largest finite element order among reduced words of bounded length.

    Equals max(m, n) for every search_length >= 1: all torsion in
    Z_m * Z_n is conjugate into one of the factors.
    """
    m, n = _positive_orders(m, n)
    if m < 2 or n < 2:
        raise InputError("max_torsion_order requires m, n >= 2")
    search_length = _integer(search_length, "search_length")
    if search_length < 1:
        raise InputError("search_length must be >= 1")
    best = 1
    for syl in enumerate_reduced_words(m, n, search_length):
        order = order_in_free_product(m, n, Word(syl))
        if order is not INFINITE and order > best:
            best = order
    return best
