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
from .torus import AB, TorusParams, _positive_orders
from .words import (
    Alphabet,
    Word,
    cyclically_reduce,
    format_word,
    parse_word,
    rotation_conjugator,
    substitute,
)


@dataclass(frozen=True, slots=True)
class Presentation:
    """An immutable presentation: ordered alphabet plus relator words.

    `relators` may be any iterable of Words over the alphabet's ids; the
    identity relators are dropped and the rest kept as a tuple.
    """

    alphabet: Alphabet
    relators: Tuple[Word, ...] = ()

    def __post_init__(self):
        rels = []
        for r in self.relators:
            if not isinstance(r, Word):
                raise InputError("relators must be Word values")
            _check_ids(r, self.alphabet)
            if not r.is_identity():
                rels.append(r)
        object.__setattr__(self, "relators", tuple(rels))

    def __repr__(self) -> str:
        rels = ", ".join(format_word(r, self.alphabet) for r in self.relators)
        return f"<Presentation ⟨{' '.join(self.alphabet.names)} | {rels}⟩>"


def _check_ids(r: Word, alphabet: Alphabet) -> None:
    for gid, _ in r.syllables:
        if not alphabet.has_id(gid):
            raise InputError(f"relator uses generator id {gid} not in alphabet")


def torus_presentation(m: int, n: int) -> Presentation:
    """The torus-knot group presentation ⟨a,b | a^m b^-n⟩.

    Requires m, n >= 1 and gcd(m, n) = 1; otherwise the parameters do
    not describe a knot.
    """
    p = TorusParams(m, n)
    return Presentation(AB, [Word([(0, p.m), (1, -p.n)])])


def free_product_presentation(m: int, n: int) -> Presentation:
    """⟨a,b | a^m, b^n⟩, presenting Z_m * Z_n."""
    m, n = _positive_orders(m, n)
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


def _apply_move(alphabet: Alphabet, relators: list[Word], move: TietzeMove) -> Alphabet:
    """Validate one move, apply it to relators in place and return the
    alphabet after it. Relators already in the list were checked before,
    so only those the move creates are checked here."""
    if isinstance(move, AddRelation):
        if _derived_word(relators, move.derivation) != move.consequence:
            raise InputError("AddRelation: derivation does not yield the stated consequence")
        if move.consequence.is_identity():
            raise InputError("AddRelation: consequence is the empty word")
        relators.append(move.consequence)
        _check_ids(move.consequence, alphabet)
    elif isinstance(move, RemoveRelation):
        if not 0 <= move.index < len(relators):
            raise InputError(f"RemoveRelation: index {move.index} out of range")
        removed = relators.pop(move.index)
        if _derived_word(relators, move.derivation) != removed:
            raise InputError("RemoveRelation: relator is not derived from the remaining ones")
    elif isinstance(move, AddGenerator):
        for gid, _ in move.definition.syllables:
            if not alphabet.has_id(gid):
                raise InputError("AddGenerator: definition uses unknown generators")
        alphabet = alphabet.extend(move.name)
        relators.append(Word([(alphabet.id_of(move.name), 1)]) * move.definition.inverse())
    elif isinstance(move, RemoveGenerator):
        gid = alphabet.id_of(move.name)
        if not 0 <= move.relator_index < len(relators):
            raise InputError(f"RemoveGenerator: relator index {move.relator_index} out of range")
        solution = _defining_solution(relators.pop(move.relator_index), gid)
        substituted = [substitute(r, gid, solution) for r in relators]
        relators[:] = [r for r in substituted if r.syllables]
        alphabet = alphabet.drop(move.name)
    else:
        raise InputError(f"unknown Tietze move {move!r}")
    return alphabet


def apply_tietze(p: Presentation, script: Iterable[TietzeMove]) -> Presentation:
    """Apply a sequence of Tietze moves, validating each one.

    Every move preserves the isomorphism class of the presented group;
    an inapplicable move raises InputError naming its position. Each
    move's derivation is checked in full, and the relators a move
    creates are checked against the alphabet; the others were checked
    before. The moves act in place on one copy of p's relators, so p is
    left as it was, and one Presentation is built after the last move.
    """
    alphabet, relators = p.alphabet, list(p.relators)
    for i, move in enumerate(script):
        try:
            alphabet = _apply_move(alphabet, relators, move)
        except InputError as exc:
            raise InputError(f"move {i} ({type(move).__name__}): {exc}") from None
    return Presentation(alphabet, relators)


# --- auto_simplify ----------------------------------------------------------


class _Facts:
    """What the rounds of auto_simplify read of one cyclically reduced relator.

    ``candidate`` is (letter length, least generator id occurring once
    with exponent ±1), or None. ``gens`` are the generator ids that occur.
    ``invariant`` counts the occurrences of each generator once
    equal-generator ends are merged: every rotation of the relator or of
    its inverse shares it, so only relators that share it are handed to
    :func:`~knotgrp.words.rotation_conjugator`. ``inverse`` is the
    relator's inverse, built by :func:`_earlier_rotation` on first use.
    """

    __slots__ = ("candidate", "gens", "invariant", "inverse")

    def __init__(self, r: Word):
        syl = r.syllables
        counts: dict[int, int] = {}
        length = 0
        for g, e in syl:
            counts[g] = counts.get(g, 0) + 1
            length += abs(e)
        once = [g for g, e in syl if counts[g] == 1 and abs(e) == 1]
        self.candidate = (length, min(once)) if once else None
        self.gens = frozenset(counts)
        if len(syl) > 1 and syl[0][0] == syl[-1][0]:
            counts[syl[0][0]] -= 1
        self.invariant = frozenset(counts.items())
        self.inverse = None


def _earlier_rotation(
    relators: list[Word], facts: list[_Facts], same: list[int], j: int
) -> DerivationStep | None:
    """(i, conjugator, sign) for the first relator i of `same`, r_i before
    r_i⁻¹, that ``rotation_conjugator`` rotates onto relator j, or None.
    `same` lists earlier relators that share j's invariant in increasing
    order; r_i⁻¹ is kept in facts[i] once built."""
    r = relators[j]
    for i in same:
        conj = rotation_conjugator(relators[i], r)
        if conj is not None:
            return i, conj, 1
        f = facts[i]
        if f.inverse is None:
            f.inverse = relators[i].inverse()
        conj = rotation_conjugator(f.inverse, r)
        if conj is not None:
            return i, conj, -1
    return None


def auto_simplify(p: Presentation) -> tuple[Presentation, Tuple[TietzeMove, ...]]:
    """Deterministically simplify a presentation; returns (result, script).

    Each round: (1) cyclically reduce relators, (2) delete duplicate
    relators (equal up to cyclic rotation and inversion; empty relators
    never survive), (3) eliminate one generator that occurs in some
    relator exactly once with exponent ±1 — the shortest such relator
    wins, ties broken by lowest generator id then lowest relator index.
    Stops when no step applies. The returned script replays to the same
    result via apply_tietze; it is the one a scan over all relator pairs
    gives, move for move.

    Moves are applied in place to one relator list, and every derivation
    is checked as apply_tietze checks it. Each relator's facts
    (:class:`_Facts`) are kept by position while it stays, so only the
    relators a substitution produced are cyclically reduced and described
    again, and an elimination substitutes only into the relators that
    contain its generator. A dict probe on the invariant lists the
    earlier relators that may be rotations of a relator, and
    ``rotation_conjugator`` tries each of them in order, r_i before r_i⁻¹.
    One Presentation is built at the end. Raises
    BudgetError when a substitution would produce more than
    ``words.MAX_POWER_SYLLABLES`` syllables.
    """
    script: list[TietzeMove] = []
    alphabet, relators = p.alphabet, list(p.relators)
    facts: list[_Facts | None] = [None] * len(relators)  # None: not yet reduced and described
    while True:
        moves = len(script)
        # (1) Only new relators can be cyclically unreduced. Each core is
        # appended and its relator removed, so later indices shift down.
        moved = 0
        for k in [k for k, f in enumerate(facts) if f is None]:
            i = k - moved
            core, conj = cyclically_reduce(relators[i])
            if not conj.is_identity():
                add = AddRelation(core, ((i, conj.inverse(), 1),))
                _apply_move(alphabet, relators, add)
                remove = RemoveRelation(i, ((len(relators) - 2, conj, 1),))
                _apply_move(alphabet, relators, remove)
                del facts[i]
                facts.append(None)
                script += (add, remove)
                moved += 1
        facts = [f or _Facts(r) for f, r in zip(facts, relators)]

        # (2) One pass removes each relator that rotates from an earlier one.
        earlier: dict[frozenset, list[int]] = {}
        j = 0
        while j < len(relators):
            same = earlier.setdefault(facts[j].invariant, [])
            found = _earlier_rotation(relators, facts, same, j) if same else None
            if found is None:
                same.append(j)
                j += 1
            else:
                move = RemoveRelation(j, (found,))
                _apply_move(alphabet, relators, move)
                del facts[j]
                script.append(move)

        # (3) Eliminate the least candidate, substituting only into the
        # relators whose facts hold its generator. _apply_move substitutes
        # into every relator and leaves no facts to keep, so this step does
        # its own elimination: through _apply_move it ran about 18 % slower
        # on 28 knot-pipeline items and about 32 % slower on T(2,201).
        best = min(((*f.candidate, i) for i, f in enumerate(facts) if f.candidate), default=None)
        if best is not None:
            _, gid, index = best
            move = RemoveGenerator(alphabet.name_of(gid), index)
            solution = _defining_solution(relators.pop(index), gid)
            del facts[index]
            for i in reversed([i for i, f in enumerate(facts) if gid in f.gens]):
                relators[i] = substitute(relators[i], gid, solution)
                facts[i] = None
                if relators[i].is_identity():
                    del relators[i], facts[i]
            alphabet = alphabet.drop(move.name)
            script.append(move)

        if len(script) == moves:
            return Presentation(alphabet, relators), tuple(script)


def describe_script(p: Presentation, script: Sequence[TietzeMove]) -> list[str]:
    """One deterministic line per move of a script for p. Only the alphabet
    is followed, by the ``extend``/``drop`` calls a replay makes; moves are
    formatted, not validated (apply_tietze validates). A value that is no
    Tietze move raises InputError."""
    lines = []
    alphabet = p.alphabet
    for i, move in enumerate(script):
        try:
            if isinstance(move, AddRelation):
                lines.append(f"add relator: {format_word(move.consequence, alphabet)}")
            elif isinstance(move, RemoveRelation):
                lines.append(f"remove relator {move.index}")
            elif isinstance(move, AddGenerator):
                definition = format_word(move.definition, alphabet)
                lines.append(f"add generator {move.name} = {definition}")
                alphabet = alphabet.extend(move.name)
            elif isinstance(move, RemoveGenerator):
                lines.append(f"remove generator {move.name} using relator {move.relator_index}")
                alphabet = alphabet.drop(move.name)
            else:
                raise InputError(f"unknown Tietze move {move!r}")
        except InputError as exc:
            raise InputError(f"move {i} ({type(move).__name__}): {exc}") from None
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
