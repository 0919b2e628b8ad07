"""Structure theory of the torus-knot groups ⟨a,b | a^m = b^n⟩ and of Z_m * Z_n.

The central element c = a^m = b^n generates the center, and the quotient
by it is the free product Z_m * Z_n. Every element therefore has a unique
normal form c^t · s_1 s_2 ... s_k, where the s_i strictly alternate
between a-syllables with exponent in [1, m-1] and b-syllables with
exponent in [1, n-1]. Equality of normal forms solves the word problem.

Rewriting to normal form: split a^k into c^(k floordiv m) · a^(k mod m)
(floor division, so residues land in [0, m) for negative k too), same
for b with n; pull all c-powers into the central exponent, drop zero
residues, merge adjacent same-letter runs, repeat to a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Tuple

from .errors import InputError
from .words import Alphabet, Word

#: Alphabet shared by all two-generator torus/free-product computations.
AB = Alphabet(["a", "b"])

#: Distinguished return value for elements of infinite order.
INFINITE = float("inf")

LetterSyllable = Tuple[str, int]  # ('a' | 'b', exponent)


@dataclass(frozen=True)
class TorusParams:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InputError(f"torus parameters must be positive, got ({self.m}, {self.n})")
        if gcd(self.m, self.n) != 1:
            raise InputError(
                f"invalid torus parameters ({self.m}, {self.n}): gcd is {gcd(self.m, self.n)}, "
                "but the curve embeds as a knot only when gcd(m, n) = 1"
            )


@dataclass(frozen=True)
class TorusNormalForm:
    central_exponent: int
    syllables: Tuple[LetterSyllable, ...]

    def is_identity(self) -> bool:
        return self.central_exponent == 0 and not self.syllables

    def __str__(self) -> str:
        parts = []
        if self.central_exponent != 0:
            t = self.central_exponent
            parts.append("c" if t == 1 else f"c^{t}")
        if self.syllables:
            parts.append(" ".join(L if e == 1 else f"{L}^{e}" for L, e in self.syllables))
        return " · ".join(parts) if parts else "e"


@dataclass(frozen=True)
class FreeProductNormalForm:
    syllables: Tuple[LetterSyllable, ...]

    def is_identity(self) -> bool:
        return not self.syllables

    def __str__(self) -> str:
        parts = [L if e == 1 else f"{L}^{e}" for L, e in self.syllables]
        return " ".join(parts) if parts else "e"


def ab_word(syllables: Iterable[LetterSyllable]) -> Word:
    """Build a Word over the a,b alphabet from ('a'|'b', exponent) pairs."""
    ids = {"a": 0, "b": 1}
    return Word([(ids[L], e) for L, e in syllables])


_LETTERS = ("a", "b")


def _rewrite(m: int, n: int, syllables) -> tuple[int, Tuple[LetterSyllable, ...]]:
    """Rewriting core over (generator id, exponent) pairs.

    Splits runs into central power times bounded residue, merging
    adjacent same-letter runs as they arise; a left-to-right merge stack
    reaches the fixed point of the splitting/merging rules in one pass.
    Returns (central exponent, alternating bounded syllables).
    """
    mods = (m, n)
    t = 0
    out: list[tuple[int, int]] = []
    for g, e in syllables:
        if g not in (0, 1):
            raise InputError(f"word uses a generator other than a, b (id {g})")
        if out and out[-1][0] == g:
            e += out.pop()[1]
        q, r = divmod(e, mods[g])
        t += q
        if r:
            out.append((g, r))
    return t, tuple((_LETTERS[g], e) for g, e in out)


def torus_normal_form(p: TorusParams, w: Word) -> TorusNormalForm:
    """Unique normal form of w's image in ⟨a,b | a^m = b^n⟩.

    Two words are equal in the group iff their normal forms are equal.
    """
    t, syl = _rewrite(p.m, p.n, w.syllables)
    return TorusNormalForm(t, syl)


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
    nf = torus_normal_form(p, w)
    if p.m == 1 or p.n == 1:
        return True
    return not nf.syllables


def free_product_normal_form(m: int, n: int, w: Word) -> FreeProductNormalForm:
    """Unique reduced form of w's image in Z_m * Z_n (gcd(m,n) arbitrary).

    Same rewriting as the torus normal form; the central power is
    discarded because a^m and b^n are trivial in the quotient.
    """
    if m < 1 or n < 1:
        raise InputError(f"factor orders must be positive, got ({m}, {n})")
    _, syl = _rewrite(m, n, w.syllables)
    return FreeProductNormalForm(syl)


def _cyclic_core(m: int, n: int, syl: Tuple[LetterSyllable, ...]) -> Tuple[LetterSyllable, ...]:
    """Cyclically reduce a free-product normal form by conjugation."""
    mod = {"a": m, "b": n}
    current = list(syl)
    while len(current) >= 2 and current[0][0] == current[-1][0]:
        L = current[0][0]
        e = (current[0][1] + current[-1][1]) % mod[L]
        middle = current[1:-1]
        current = middle + ([(L, e)] if e else [])
    return tuple(current)


def order_in_free_product(m: int, n: int, w: Word):
    """Order of w's image in Z_m * Z_n: a positive integer or INFINITE.

    Torsion elements are exactly the conjugates of factor elements, so
    the cyclic core decides: empty core -> order 1; a single syllable
    has the order of its exponent in the factor; anything longer has
    infinite order (its powers never collapse).
    """
    nf = free_product_normal_form(m, n, w)
    core = _cyclic_core(m, n, nf.syllables)
    if not core:
        return 1
    if len(core) == 1:
        L, e = core[0]
        mod = m if L == "a" else n
        return mod // gcd(mod, e)
    return INFINITE


def enumerate_reduced_words(m: int, n: int, max_syllables: int) -> Iterator[Tuple[LetterSyllable, ...]]:
    """All nonempty reduced free-product words with at most max_syllables syllables.

    Syllables alternate between 'a' (exponents 1..m-1) and 'b'
    (exponents 1..n-1); enumeration order is deterministic.
    """
    if m < 1 or n < 1:
        raise InputError(f"factor orders must be positive, got ({m}, {n})")
    ranges = {"a": range(1, m), "b": range(1, n)}

    def extend(prefix: Tuple[LetterSyllable, ...], last: str) -> Iterator[Tuple[LetterSyllable, ...]]:
        if len(prefix) >= max_syllables:
            return
        nxt = "b" if last == "a" else "a"
        for e in ranges[nxt]:
            longer = prefix + ((nxt, e),)
            yield longer
            yield from extend(longer, nxt)

    for first in ("a", "b"):
        for e in ranges[first]:
            start = ((first, e),)
            yield start
            yield from extend(start, first)


def max_torsion_order(m: int, n: int, search_length: int) -> int:
    """Largest finite element order among reduced words of bounded length.

    Equals max(m, n) for every search_length >= 1: all torsion in
    Z_m * Z_n is conjugate into one of the factors.
    """
    if m < 2 or n < 2:
        raise InputError("max_torsion_order requires m, n >= 2")
    if search_length < 1:
        raise InputError("search_length must be >= 1")
    best = 1
    for syl in enumerate_reduced_words(m, n, search_length):
        order = order_in_free_product(m, n, ab_word(syl))
        if order is not INFINITE and order > best:
            best = order
    return best
