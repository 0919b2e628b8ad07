"""Finitely presented groups and a deterministic Tietze-transformation engine.

A relation ``r = s`` is always normalized to the relator ``r * s^-1``;
presentations store freely reduced, nonempty relators only. Tietze moves
carry enough data for apply_tietze to replay and verify them, so a script
is an auditable certificate of the group; describe_script only prints it.

Presentation text format (UTF-8, line based)::

    gens: a b
    rel: a^2 b^-3
    rel: a b = b a        # right-hand side optional

Generators print in alphabet order and relators in stored order, so
output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

from .errors import InputError
from .torus import AB, TorusParams
from .words import (
    Alphabet,
    Word,
    cyclic_key,
    cyclically_reduce,
    format_word,
    parse_word,
    rotation_conjugator,
    substitute,
)


class Presentation:
    """An immutable presentation: ordered alphabet plus relator words."""

    __slots__ = ("alphabet", "relators")

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word] = ()):
        rels = []
        for r in relators:
            if not isinstance(r, Word):
                raise InputError("relators must be Word values")
            for gid, _ in r.syllables:
                if not alphabet.has_id(gid):
                    raise InputError(f"relator uses generator id {gid} not in alphabet")
            if not r.is_identity():
                rels.append(r)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "relators", tuple(rels))

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.alphabet == other.alphabet and self.relators == other.relators

    def __hash__(self) -> int:
        return hash((self.alphabet, self.relators))

    def __repr__(self) -> str:
        rels = ", ".join(format_word(r, self.alphabet) for r in self.relators)
        return f"<Presentation ⟨{' '.join(self.alphabet.names)} | {rels}⟩>"


def torus_presentation(m: int, n: int) -> Presentation:
    """The torus-knot group presentation ⟨a,b | a^m b^-n⟩.

    Requires m, n >= 1 and gcd(m, n) = 1; otherwise the parameters do
    not describe a knot.
    """
    TorusParams(m, n)
    return Presentation(AB, [Word([(0, m), (1, -n)])])


def free_product_presentation(m: int, n: int) -> Presentation:
    """⟨a,b | a^m, b^n⟩, presenting Z_m * Z_n."""
    if m < 1 or n < 1:
        raise InputError(f"free-product parameters must be positive, got ({m}, {n})")
    return Presentation(AB, [Word([(0, m)]), Word([(1, n)])])


# --- Tietze moves -----------------------------------------------------------

# A derivation step (relator index, conjugator, sign) denotes the factor
#   conjugator * relator[index]^sign * conjugator^-1
DerivationStep = Tuple[int, Word, int]


@dataclass(frozen=True)
class AddRelation:
    consequence: Word
    derivation: Tuple[DerivationStep, ...]


@dataclass(frozen=True)
class RemoveRelation:
    index: int
    # Derivation of the removed relator from the remaining ones; indices
    # refer to the relator list after removal.
    derivation: Tuple[DerivationStep, ...]


@dataclass(frozen=True)
class AddGenerator:
    name: str
    definition: Word


@dataclass(frozen=True)
class RemoveGenerator:
    name: str
    relator_index: int


TietzeMove = Union[AddRelation, RemoveRelation, AddGenerator, RemoveGenerator]


def _derived_word(relators: Sequence[Word], derivation: Sequence[DerivationStep]) -> Word:
    acc = Word.identity()
    for index, conjugator, sign in derivation:
        if not 0 <= index < len(relators):
            raise InputError(f"derivation references relator {index} out of range")
        if sign not in (1, -1):
            raise InputError(f"derivation sign must be +1 or -1, got {sign}")
        factor = relators[index] if sign == 1 else relators[index].inverse()
        acc = acc * factor.conjugated_by(conjugator)
    return acc


def _defining_solution(relator: Word, gid: int) -> Word:
    """Solve a relator for a generator that occurs in it exactly once.

    The relator reads A·g^±1·B, hence g^±1 = (B·A)^-1. Raises if the
    relator is not of this shape.
    """
    positions = [k for k, (g, _) in enumerate(relator.syllables) if g == gid]
    if len(positions) != 1 or abs(relator.syllables[positions[0]][1]) != 1:
        raise InputError(
            "defining relator must contain the generator exactly once with exponent ±1"
        )
    k = positions[0]
    syl = relator.syllables
    rest = Word(syl[k + 1 :] + syl[:k])
    return rest.inverse() if syl[k][1] == 1 else rest


def _apply_move(p: Presentation, move: TietzeMove) -> Presentation:
    if isinstance(move, AddRelation):
        derived = _derived_word(p.relators, move.derivation)
        if derived != move.consequence:
            raise InputError("AddRelation: derivation does not yield the stated consequence")
        if move.consequence.is_identity():
            raise InputError("AddRelation: consequence is the empty word")
        return Presentation(p.alphabet, p.relators + (move.consequence,))

    if isinstance(move, RemoveRelation):
        if not 0 <= move.index < len(p.relators):
            raise InputError(f"RemoveRelation: index {move.index} out of range")
        removed = p.relators[move.index]
        remaining = p.relators[: move.index] + p.relators[move.index + 1 :]
        derived = _derived_word(remaining, move.derivation)
        if derived != removed:
            raise InputError("RemoveRelation: relator is not derived from the remaining ones")
        return Presentation(p.alphabet, remaining)

    if isinstance(move, AddGenerator):
        for gid, _ in move.definition.syllables:
            if not p.alphabet.has_id(gid):
                raise InputError("AddGenerator: definition uses unknown generators")
        alphabet = p.alphabet.extend(move.name)
        new_gid = alphabet.id_of(move.name)
        defining = Word([(new_gid, 1)]) * move.definition.inverse()
        return Presentation(alphabet, p.relators + (defining,))

    if isinstance(move, RemoveGenerator):
        gid = p.alphabet.id_of(move.name)
        if not 0 <= move.relator_index < len(p.relators):
            raise InputError(f"RemoveGenerator: relator index {move.relator_index} out of range")
        solution = _defining_solution(p.relators[move.relator_index], gid)
        new_relators = [
            substitute(r, gid, solution)
            for i, r in enumerate(p.relators)
            if i != move.relator_index
        ]
        return Presentation(p.alphabet.drop(move.name), new_relators)

    raise InputError(f"unknown Tietze move {move!r}")


def apply_tietze(p: Presentation, script: Iterable[TietzeMove]) -> Presentation:
    """Apply a sequence of Tietze moves, validating each one.

    Every move preserves the isomorphism class of the presented group;
    an inapplicable move raises InputError naming its position.
    """
    current = p
    for i, move in enumerate(script):
        try:
            current = _apply_move(current, move)
        except InputError as exc:
            raise InputError(f"move {i} ({type(move).__name__}): {exc}") from None
    return current


# --- auto_simplify ----------------------------------------------------------


def _cyclic_reduction_step(p: Presentation, script: list[TietzeMove]) -> Presentation:
    """Replace each relator that is not cyclically reduced by its core, in
    order: append core = conj⁻¹·r·conj, then remove r, deriving it from
    the appended core. Cores are fixed points, so one pass reduces all."""
    i = 0
    for r in p.relators:
        core, conj = cyclically_reduce(r)
        if conj.is_identity():
            i += 1
            continue
        add = AddRelation(core, ((i, conj.inverse(), 1),))
        p = _apply_move(p, add)
        remove = RemoveRelation(i, ((len(p.relators) - 2, conj, 1),))
        p = _apply_move(p, remove)
        script += (add, remove)
    return p


def _facts(r: Word, cache: dict[Word, tuple]) -> tuple:
    """(key of r, key of r⁻¹, elimination candidate) of a cyclically reduced
    relator, cached by value. The candidate is (letter length, least
    generator id occurring once with exponent ±1), or None."""
    facts = cache.get(r)
    if facts is None:
        counts: dict[int, int] = {}
        for g, _ in r.syllables:
            counts[g] = counts.get(g, 0) + 1
        once = [g for g, e in r.syllables if counts[g] == 1 and abs(e) == 1]
        candidate = (r.letter_length, min(once)) if once else None
        facts = cache[r] = (cyclic_key(r), cyclic_key(r.inverse()), candidate)
    return facts


def _duplicate_removal_step(
    p: Presentation, script: list[TietzeMove], cache: dict[Word, tuple]
) -> Presentation:
    """Remove each relator r_j that is a rotation of an earlier r_i or r_i⁻¹.

    The earliest i wins, r_i before r_i⁻¹. Only the r_i^±1 that share r_j's
    :func:`cyclic_key` can match, so a dict probe lists them in increasing
    i (no nontrivial word shares its inverse's key), and
    ``rotation_conjugator`` confirms them in turn. After a removal the
    later indices shift down, so one pass emits the moves that rescanning
    from the start after every removal would.
    """
    earlier: dict[tuple, list[tuple[int, int, Word]]] = {}
    i = 0
    for r in p.relators:
        key, inverse_key, _ = _facts(r, cache)
        for index, sign, base in earlier.get(key, ()):
            conj = rotation_conjugator(base if sign == 1 else base.inverse(), r)
            if conj is not None:
                # Relator `index` keeps its index: it comes before r.
                move = RemoveRelation(i, ((index, conj, sign),))
                p = _apply_move(p, move)
                script.append(move)
                break
        else:
            earlier.setdefault(key, []).append((i, 1, r))
            earlier.setdefault(inverse_key, []).append((i, -1, r))
            i += 1
    return p


def _elimination_step(
    p: Presentation, script: list[TietzeMove], cache: dict[Word, tuple]
) -> Presentation:
    """Eliminate the generator of the least (letter length, generator id,
    relator index) over relators where it occurs once with exponent ±1."""
    candidates = []
    for idx, r in enumerate(p.relators):
        candidate = _facts(r, cache)[2]
        if candidate is not None:
            candidates.append((*candidate, idx))
    if not candidates:
        return p
    _, gid, idx = min(candidates)
    move = RemoveGenerator(p.alphabet.name_of(gid), idx)
    p = _apply_move(p, move)
    script.append(move)
    return p


def auto_simplify(p: Presentation) -> tuple[Presentation, Tuple[TietzeMove, ...]]:
    """Deterministically simplify a presentation; returns (result, script).

    Each round: (1) cyclically reduce relators, (2) delete duplicate
    relators (equal up to cyclic rotation and inversion; empty relators
    never survive construction), (3) eliminate one generator that occurs
    in some relator exactly once with exponent ±1 — the shortest such
    relator wins, ties broken by lowest generator id then lowest relator
    index. Stops when no step applies. The returned script replays to
    the same result via apply_tietze.

    Duplicates are found by key, then confirmed. Each relator's
    :func:`~knotgrp.words.cyclic_key` and its inverse's are computed once
    per relator value and kept while the relator stays; a dict probe
    finds the earlier relators that share a key, and
    ``rotation_conjugator`` confirms them in order. The script is the one
    a scan over all relator pairs gives, move for move. Raises
    BudgetError when a substitution would produce more than
    ``words.MAX_POWER_SYLLABLES`` syllables.
    """
    script: list[TietzeMove] = []
    cache: dict[Word, tuple] = {}
    while True:
        moves = len(script)
        p = _cyclic_reduction_step(p, script)
        p = _duplicate_removal_step(p, script, cache)
        p = _elimination_step(p, script, cache)
        if len(script) == moves:
            return p, tuple(script)
        cache = {r: cache[r] for r in p.relators if r in cache}


def describe_script(p: Presentation, script: Sequence[TietzeMove]) -> list[str]:
    """One deterministic line per move of a script for p. Only the alphabet
    is followed, by the ``extend``/``drop`` calls a replay makes; moves are
    formatted, not validated (apply_tietze validates)."""
    lines = []
    alphabet = p.alphabet
    for move in script:
        if isinstance(move, AddRelation):
            lines.append(f"add relator: {format_word(move.consequence, alphabet)}")
        elif isinstance(move, RemoveRelation):
            lines.append(f"remove relator {move.index}")
        elif isinstance(move, AddGenerator):
            lines.append(f"add generator {move.name} = {format_word(move.definition, alphabet)}")
            alphabet = alphabet.extend(move.name)
        else:
            lines.append(f"remove generator {move.name} using relator {move.relator_index}")
            alphabet = alphabet.drop(move.name)
    return lines


# --- text format ------------------------------------------------------------


def format_presentation(p: Presentation) -> str:
    lines = [("gens: " + " ".join(p.alphabet.names)).rstrip()]
    for r in p.relators:
        lines.append("rel: " + format_word(r, p.alphabet))
    return "\n".join(lines)


def parse_presentation(text: str) -> Presentation:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or not lines[0].startswith("gens:"):
        raise InputError("presentation must start with a 'gens:' line")
    alphabet = Alphabet(lines[0][len("gens:") :].split())
    relators = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.startswith("rel:"):
            raise InputError(f"line {lineno}: expected 'rel: <word> [= <word>]'")
        body = line[len("rel:") :]
        if "=" in body:
            lhs_text, rhs_text = body.split("=", 1)
            relator = parse_word(lhs_text, alphabet) * parse_word(rhs_text, alphabet).inverse()
        else:
            relator = parse_word(body, alphabet)
        relators.append(relator)
    return Presentation(alphabet, relators)
