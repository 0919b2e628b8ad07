"""Exact arithmetic on freely reduced words over a generator alphabet.

Words are stored in syllable form: a sequence of (generator id, nonzero
exponent) pairs in which adjacent syllables carry distinct generators.
This makes free reduction a local merge at syllable boundaries and keeps
large exponents cheap. All values are immutable and all operations are
pure, so everything here is safe to share between threads.

Text notation is ``name^k`` with ``^1`` elided, syllables separated by
whitespace or ``*``, e.g. ``a^2 b^-3``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Tuple

from .errors import BudgetError, InputError

# One name grammar for the alphabet and the parser, so a name an Alphabet
# accepts always parses as a token.
_NAME = r"[A-Za-z][0-9]*"
_SEP = r"[\s*]"
_NAME_RE = re.compile(_NAME)
_SEP_RE = re.compile(rf"{_SEP}+")
_TOKEN_RE = re.compile(rf"({_NAME})(?:\^(-?\d+))?")  # (name, exponent or '')
# Whole-word syntax: separated tokens, optional separator runs at both ends.
# Tokens (letter first) and separators share no character, so a failing
# match backtracks over each character a bounded number of times.
_TOKEN = rf"{_NAME}(?:\^-?\d+)?"
_WORD_RE = re.compile(rf"{_SEP}*(?:{_TOKEN}(?:{_SEP}+{_TOKEN})*{_SEP}*)?")

#: Most syllables a power c^n may repeat out of a cyclic core c of two or
#: more, and most syllables a substitution may produce before reduction.
MAX_POWER_SYLLABLES = 10**7

Syllable = Tuple[int, int]  # (generator id, nonzero exponent)


class Generator(NamedTuple):
    """A named generator interned to a small integer id."""

    id: int
    name: str


class Alphabet:
    """An ordered set of generators with unique ids and unique names.

    Ids are assigned at construction and are stable under :meth:`drop`,
    so words built over an alphabet stay meaningful after a generator
    is removed from it (as happens during Tietze transformations).
    """

    __slots__ = ("_generators", "_by_name", "_by_id")

    def __init__(self, names: Iterable[str]):
        by_name: dict[str, Generator] = {}
        for gid, name in enumerate(names):
            _check_name(name)
            if name in by_name:
                raise InputError(f"duplicate generator name {name!r}")
            by_name[name] = Generator(gid, name)
        self._generators = tuple(by_name.values())
        self._by_name = by_name
        self._by_id = {g.id: g for g in self._generators}

    @property
    def generators(self) -> Tuple[Generator, ...]:
        return self._generators

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self._generators)

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name].id
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None

    def name_of(self, gid: int) -> str:
        try:
            return self._by_id[gid].name
        except KeyError:
            raise InputError(f"unknown generator id {gid}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def has_id(self, gid: int) -> bool:
        return gid in self._by_id

    def __len__(self) -> int:
        return len(self._generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self._generators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._generators == other._generators

    def __hash__(self) -> int:
        return hash(self._generators)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    @classmethod
    def _of(cls, generators: Tuple[Generator, ...]) -> "Alphabet":
        """An alphabet of generators whose names and ids were checked before."""
        alphabet = object.__new__(cls)
        alphabet._generators = generators
        alphabet._by_name = {g.name: g for g in generators}
        alphabet._by_id = {g.id: g for g in generators}
        return alphabet

    def extend(self, name: str) -> "Alphabet":
        """New alphabet with `name` appended (fresh id). Only the new name
        is checked."""
        if name in self._by_name:
            raise InputError(f"generator name {name!r} already in alphabet")
        _check_name(name)
        next_id = max(self._by_id, default=-1) + 1
        return Alphabet._of(self._generators + (Generator(next_id, name),))

    def drop(self, name: str) -> "Alphabet":
        """New alphabet without `name`; remaining ids are unchanged."""
        gid = self.id_of(name)
        return Alphabet._of(tuple(g for g in self._generators if g.id != gid))


def _check_name(name: str) -> None:
    if not _NAME_RE.fullmatch(name):
        raise InputError(
            f"invalid generator name {name!r} (expected a letter followed by optional digits)"
        )


def _reduce(raw: Iterable[Syllable]) -> Tuple[Syllable, ...]:
    """Freely reduce a raw syllable sequence (stack merge)."""
    out: list[Syllable] = []
    last = None  # generator of out[-1]
    for gid, exp in raw:
        if gid == last:
            exp += out.pop()[1]
            if exp:
                out.append((gid, exp))
            else:
                last = out[-1][0] if out else None
        elif exp:
            out.append((gid, exp))
            last = gid
    return tuple(out)


def _join(u: Tuple[Syllable, ...], v: Tuple[Syllable, ...]) -> Tuple[Syllable, ...]:
    """The reduced product of two reduced syllable tuples: only the join
    can cancel or merge."""
    i, j = len(u), 0
    while i and j < len(v) and u[i - 1][0] == v[j][0]:
        exp = u[i - 1][1] + v[j][1]
        if exp:
            return u[: i - 1] + ((v[j][0], exp),) + v[j + 1 :]
        i, j = i - 1, j + 1
    return u[:i] + v[j:]


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word; the empty word is the identity.

    >>> w = Word([(0, 2), (1, 1), (0, -1), (0, 6)])
    >>> w.syllables
    ((0, 2), (1, 1), (0, 5))
    >>> (w * w.inverse()).is_identity()
    True
    """

    syllables: Tuple[Syllable, ...]

    def __init__(self, raw: Iterable[Syllable] = ()):
        object.__setattr__(self, "syllables", _reduce(raw))

    @classmethod
    def identity(cls) -> "Word":
        return _IDENTITY

    @classmethod
    def _from_reduced(cls, syllables: Tuple[Syllable, ...]) -> "Word":
        w = object.__new__(cls)
        object.__setattr__(w, "syllables", syllables)
        return w

    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        """Syllable count."""
        return len(self.syllables)

    @property
    def letter_length(self) -> int:
        """Total letter length, i.e. the sum of |exponent| over syllables."""
        return sum(abs(e) for _, e in self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._from_reduced(_join(self.syllables, other.syllables))

    def inverse(self) -> "Word":
        return Word._from_reduced(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        """self^n = y·c^n·y⁻¹ for self = y·c·y⁻¹ with c cyclically reduced,
        in O(|self| + |self^n|): copies of c merge only at their joins.

        Raises BudgetError, before allocating, when c has two or more
        syllables and |c|·|n| exceeds MAX_POWER_SYLLABLES."""
        if n == 0 or not self.syllables:
            return _IDENTITY
        if n == 1:
            return self
        if n == -1:
            return self.inverse()
        core, y = cyclically_reduce(self if n > 0 else self.inverse())
        c, n = core.syllables, abs(n)
        if len(c) > 1 and len(c) * n > MAX_POWER_SYLLABLES:
            raise BudgetError(
                f"word power would repeat {len(c)} syllables {n} times, "
                f"exceeding the budget of {MAX_POWER_SYLLABLES} syllables"
            )
        power = ((c[0][0], c[0][1] * n),) if len(c) == 1 else c * n
        return Word(y.syllables + power + y.inverse().syllables)

    def conjugated_by(self, g: "Word") -> "Word":
        """g * self * g^-1."""
        return g * self * g.inverse()

    def __repr__(self) -> str:
        return f"Word({list(self.syllables)!r})"


_IDENTITY = Word._from_reduced(())


def cyclically_reduce(w: Word) -> Tuple[Word, Word]:
    """Split w as y * core * y^-1 with the core cyclically reduced.

    Returns (core, conjugator). The core's first and last syllables are
    not inverse-cancelling; repeated application is a fixed point.

    >>> core, conj = cyclically_reduce(Word([(0, 1), (1, 2), (0, -1)]))
    >>> core.syllables, conj.syllables
    (((1, 2),), ((0, 1),))
    """
    syl = w.syllables
    i, j = 0, len(syl) - 1
    while i < j and syl[i][0] == syl[j][0] and syl[i][1] == -syl[j][1]:
        i, j = i + 1, j - 1
    core, conj = syl[i : j + 1], syl[:i]
    if i < j and syl[i][0] == syl[j][0] and (syl[i][1] > 0) != (syl[j][1] > 0):
        # One partial peel: the shorter end vanishes, and the syllable
        # inside it carries another generator, so the peeling stops.
        (g, e1), (_, e2) = syl[i], syl[j]
        step = e1 if abs(e1) < abs(e2) else -e2
        conj += ((g, step),)
        core = _reduce(((g, e1 - step),) + syl[i + 1 : j] + ((g, e2 + step),))
    return Word._from_reduced(core), Word._from_reduced(conj)


def _cyclic_core(syl: Tuple[Syllable, ...]) -> Tuple[int, Tuple[Syllable, ...]]:
    """(p, core): peel the p end pairs of reduced syllables that cancel,
    then merge equal-generator ends into the last syllable.

    Cyclically adjacent syllables of the core carry distinct generators,
    so each of its rotations is reduced, and two words are conjugate
    exactly when their cores are rotations of each other."""
    n, p = len(syl), 0
    while p < n - 1 - p and syl[p][0] == syl[-1 - p][0] and syl[p][1] == -syl[-1 - p][1]:
        p += 1
    core = syl[p : n - p]
    if len(core) > 1 and core[0][0] == core[-1][0]:
        core = core[1:-1] + ((core[0][0], core[0][1] + core[-1][1]),)
    return p, core


def rotation_conjugator(base: Word, target: Word) -> Word | None:
    """If target is a cyclic rotation of base, return y with y·base·y⁻¹ = target.

    Rotation k of base's n syllables is its last n - k syllables followed
    by its first k, freely reduced, with y the first k inverted; the
    smallest k wins. The ends merge when they carry the same generator,
    so a b a rotates to b a^2, but a^2 b never reaches a b a:

    >>> aba, ba2 = Word([(0, 1), (1, 1), (0, 1)]), Word([(1, 1), (0, 2)])
    >>> rotation_conjugator(aba, ba2).syllables
    ((0, -1),)
    >>> rotation_conjugator(Word([(0, 1), (1, 1)]), Word([(0, 1), (1, -1)])) is None
    True

    O(n): let p syllables cancel pairwise from both ends (see
    :func:`_cyclic_core`). A rotation k <= p only peels, to base[k:n-k].
    Every rotation p < k < n - p crosses the same junction, so each is a
    rotation of the one core, and one search of target in that core
    doubled finds the least. A rotation k >= n - p repeats the peel of
    n - k.
    """
    syl, want = base.syllables, target.syllables
    n = len(syl)
    p, core = _cyclic_core(syl)
    k, odd = divmod(n - len(want), 2)
    if not odd and 0 <= k <= p and syl[k : n - k] == want:
        return Word._from_reduced(syl[:k]).inverse()
    if len(core) != len(want):
        return None
    s = _find(want, core + core[:-1])
    # the core starts at rotation n - p - len(core): p, or p + 1 when its ends merged
    return None if s < 0 else Word._from_reduced(syl[: n - p - len(core) + s]).inverse()


def _find(pattern: Tuple, text: Tuple) -> int:
    """Start of the first occurrence of a nonempty pattern in text, or -1,
    in O(len(pattern) + len(text)): the KMP failure function of
    pattern·None·text reaches len(pattern) where a match ends."""
    s = pattern + (None,) + text
    m = len(pattern)
    fail = [0] * len(s)
    for j in range(1, len(s)):
        c, i = s[j], fail[j - 1]
        while i and c != s[i]:
            i = fail[i - 1]
        if c == s[i]:
            i += 1
            if i == m:
                return j - 2 * m
        fail[j] = i
    return -1


def substitute(w: Word, gid: int, replacement: Word) -> Word:
    """Replace every occurrence of gid in w by `replacement`, reduced.

    Returns w itself when gid does not occur in it. An occurrence g^±1
    appends the |replacement| syllables of replacement^±1, and the size
    check counts exactly those; an occurrence g^e with |e| >= 2 counts
    the 2|y| + |c^e| syllables of y·c^e·y⁻¹, for replacement = y·c·y⁻¹
    with c cyclically reduced (see Word.__pow__). Raises
    BudgetError, before allocating, when that raw count exceeds
    MAX_POWER_SYLLABLES. One free reduction of the raw syllables gives
    the result.
    """
    syl = w.syllables
    exps = [e for g, e in syl if g == gid]
    if not exps:
        return w
    rep = replacement.syllables
    units = exps.count(1) + exps.count(-1)
    size = len(syl) - len(exps) + units * len(rep)
    if units < len(exps):
        core, y = cyclically_reduce(replacement)
        c = len(core)
        size += sum(2 * len(y) + (1 if c == 1 else c * abs(e)) for e in exps if abs(e) > 1)
    if size > MAX_POWER_SYLLABLES:
        raise BudgetError(
            f"substitution would produce {size} syllables, "
            f"exceeding the budget of {MAX_POWER_SYLLABLES} syllables"
        )
    inv = replacement.inverse().syllables
    raw: list[Syllable] = []
    for g, e in syl:
        if g != gid:
            raw.append((g, e))
        elif e == 1:
            raw += rep
        elif e == -1:
            raw += inv
        else:
            raw += (replacement ** e).syllables
    return Word(raw)


def cyclically_equal(u: Word, v: Word, up_to_inversion: bool = False) -> bool:
    """True if u is conjugate to v (or, with up_to_inversion, to v^-1): the
    cyclic cores of u and v have equal length and one occurs in the other
    doubled.

    >>> aba, a2b = Word([(0, 1), (1, 1), (0, 1)]), Word([(0, 2), (1, 1)])
    >>> cyclically_equal(aba, a2b), cyclically_equal(a2b, aba)
    (True, True)
    """
    core = _cyclic_core(v.syllables)[1]

    def rotates(w: Word) -> bool:
        c = _cyclic_core(w.syllables)[1]
        return len(c) == len(core) and (c == core or _find(c, core + core[:-1]) >= 0)

    return rotates(u) or up_to_inversion and rotates(u.inverse())


def _parse_int(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past Python's int-from-string digit limit
        raise InputError(f"{what}: number has too many digits") from None


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse word notation over `alphabet` into a freely reduced Word.

    >>> ab = Alphabet(["a", "b"])
    >>> parse_word("a^2 b^-3", ab).syllables
    ((0, 2), (1, -3))
    >>> parse_word("a a^-1", ab).is_identity()
    True
    """
    if _WORD_RE.fullmatch(text):
        by_name = alphabet._by_name
        try:
            pairs = _TOKEN_RE.findall(text)
            return Word([(by_name[name].id, int(exp) if exp else 1) for name, exp in pairs])
        except (KeyError, ValueError):
            pass  # the token walk below names the first bad token
    raw: list[Syllable] = []
    for token in _SEP_RE.split(text):
        if not token:
            continue
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise InputError(f"malformed word token {token!r}")
        name, exp_text = m.groups()
        gid = alphabet.id_of(name)
        exp = _parse_int(exp_text, "exponent") if exp_text is not None else 1
        raw.append((gid, exp))
    return Word(raw)


def format_word(w: Word, alphabet: Alphabet) -> str:
    """Render a word in the text notation; the empty word renders as ''."""
    parts = []
    for gid, exp in w.syllables:
        name = alphabet.name_of(gid)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)
