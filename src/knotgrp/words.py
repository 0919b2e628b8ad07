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
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple

from .errors import InputError

_NAME_RE = re.compile(r"[A-Za-z][0-9]*")

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

    def __init__(self, names: Iterable[str], _ids: Sequence[int] | None = None):
        names = tuple(names)
        ids = tuple(_ids) if _ids is not None else tuple(range(len(names)))
        if len(ids) != len(names):
            raise InputError("id/name count mismatch")
        generators = []
        by_name = {}
        by_id = {}
        for gid, name in zip(ids, names):
            if not _NAME_RE.fullmatch(name):
                raise InputError(
                    f"invalid generator name {name!r} (expected a letter followed by optional digits)"
                )
            if name in by_name:
                raise InputError(f"duplicate generator name {name!r}")
            if gid in by_id:
                raise InputError(f"duplicate generator id {gid}")
            gen = Generator(gid, name)
            generators.append(gen)
            by_name[name] = gen
            by_id[gid] = gen
        self._generators = tuple(generators)
        self._by_name = by_name
        self._by_id = by_id

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

    def extend(self, name: str) -> "Alphabet":
        """New alphabet with `name` appended (fresh id)."""
        if name in self._by_name:
            raise InputError(f"generator name {name!r} already in alphabet")
        next_id = max((g.id for g in self._generators), default=-1) + 1
        return Alphabet(self.names + (name,), tuple(g.id for g in self._generators) + (next_id,))

    def drop(self, name: str) -> "Alphabet":
        """New alphabet without `name`; remaining ids are unchanged."""
        gid = self.id_of(name)
        kept = [g for g in self._generators if g.id != gid]
        return Alphabet(tuple(g.name for g in kept), tuple(g.id for g in kept))


def _reduce(raw: Iterable[Syllable]) -> Tuple[Syllable, ...]:
    """Freely reduce a raw syllable sequence (stack merge)."""
    out: list[Syllable] = []
    for gid, exp in raw:
        if exp == 0:
            continue
        if out and out[-1][0] == gid:
            exp += out.pop()[1]
            if exp:
                out.append((gid, exp))
        else:
            out.append((gid, exp))
    return tuple(out)


class Word:
    """A freely reduced word; the empty word is the identity.

    >>> w = Word([(0, 2), (1, 1), (0, -1), (0, 6)])
    >>> w.syllables
    ((0, 2), (1, 1), (0, 5))
    >>> (w * w.inverse()).is_identity()
    True
    """

    __slots__ = ("syllables",)

    def __init__(self, raw: Iterable[Syllable] = ()):
        object.__setattr__(self, "syllables", _reduce(raw))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

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
        return Word(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word._from_reduced(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        """self^n = y·c^n·y⁻¹ for self = y·c·y⁻¹ with c cyclically reduced,
        in O(|self| + |self^n|): copies of c merge only at their joins."""
        if n == 0:
            return _IDENTITY
        if n == 1:
            return self
        if n == -1:
            return self.inverse()
        core, y = cyclically_reduce(self if n > 0 else self.inverse())
        c, n = core.syllables, abs(n)
        power = ((c[0][0], c[0][1] * n),) if len(c) == 1 else c * n
        return Word(y.syllables + power + y.inverse().syllables)

    def conjugated_by(self, g: "Word") -> "Word":
        """g * self * g^-1."""
        return g * self * g.inverse()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __repr__(self) -> str:
        return f"Word({list(self.syllables)!r})"


_IDENTITY = object.__new__(Word)
object.__setattr__(_IDENTITY, "syllables", ())


def reduce_word(raw: Iterable[Syllable]) -> Word:
    """Freely reduce a raw (generator, exponent) sequence.

    >>> reduce_word([(0, 2), (1, 1), (0, -1), (0, 6)]).syllables
    ((0, 2), (1, 1), (0, 5))
    >>> reduce_word([(0, 3), (0, -3)]).is_identity()
    True
    """
    return Word(raw)


def multiply(u: Word, v: Word) -> Word:
    return u * v


def invert(w: Word) -> Word:
    return w.inverse()


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


def rotation_conjugator(base: Word, target: Word) -> Word | None:
    """If target is a cyclic rotation of base, return y with y·base·y⁻¹ = target.

    Rotations go by whole syllables, smallest first, and the ends merge
    when they carry the same generator, so a b a rotates to b a^2:

    >>> aba, ba2 = Word([(0, 1), (1, 1), (0, 1)]), Word([(1, 1), (0, 2)])
    >>> rotation_conjugator(aba, ba2).syllables
    ((0, -1),)
    >>> rotation_conjugator(Word([(0, 1), (1, 1)]), Word([(0, 1), (1, -1)])) is None
    True
    """
    syl, want = base.syllables, target.syllables
    for k in range(max(len(syl), 1)):
        if _reduce(syl[k:] + syl[:k]) == want:
            return Word._from_reduced(syl[:k]).inverse()
    return None


def cyclically_equal(u: Word, v: Word, up_to_inversion: bool = False) -> bool:
    """True if u is a cyclic rotation of v (optionally also of v^-1)."""
    if rotation_conjugator(u, v) is not None:
        return True
    return up_to_inversion and rotation_conjugator(u.inverse(), v) is not None


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
    raw: list[Syllable] = []
    for token in re.split(r"[\s*]+", text.strip()):
        if not token:
            continue
        m = re.fullmatch(r"([A-Za-z][0-9]*)(?:\^(-?\d+))?", token)
        if m is None:
            raise InputError(f"malformed word token {token!r}")
        name, exp_text = m.group(1), m.group(2)
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
