"""Finitely presented groups and a deterministic Tietze-transformation engine.

A relation ``r = s`` is always normalized to the relator ``r * s^-1``;
presentations store freely reduced, nonempty relators only. Tietze moves
carry enough data to be replayed and verified, so a simplification script
is an auditable certificate that the presented group was preserved.

Presentation text format (UTF-8, line based)::

    gens: a b
    rel: a^2 b^-3
    rel: a b = b a        # right-hand side optional

Generators print in alphabet order and relators in stored order, so
output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .errors import InputError
from .torus import AB, TorusParams
from .words import Alphabet, Word, cyclically_reduce, format_word, parse_word, rotation_conjugator


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


def substitute(w: Word, gid: int, replacement: Word) -> Word:
    """Replace every occurrence of gid in w by `replacement`, reduced."""
    raw: list[tuple[int, int]] = []
    for g, e in w.syllables:
        if g == gid:
            raw.extend((replacement ** e).syllables)
        else:
            raw.append((g, e))
    return Word(raw)


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
        if move.name in p.alphabet:
            raise InputError(f"AddGenerator: name {move.name!r} already present")
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


def _cyclic_reduction_step(p: Presentation) -> tuple[Presentation, list[TietzeMove]] | None:
    for i, r in enumerate(p.relators):
        core, conj = cyclically_reduce(r)
        if conj.is_identity():
            continue
        # Replace r by its cyclic core: append core = conj⁻¹·r·conj, then
        # remove r, deriving it from the appended core.
        add = AddRelation(core, ((i, conj.inverse(), 1),))
        p2 = _apply_move(p, add)
        remove = RemoveRelation(i, ((len(p2.relators) - 2, conj, 1),))
        p3 = _apply_move(p2, remove)
        return p3, [add, remove]
    return None


def _duplicate_removal_step(p: Presentation) -> tuple[Presentation, list[TietzeMove]] | None:
    for j in range(1, len(p.relators)):
        for i in range(j):
            base, target = p.relators[i], p.relators[j]
            conj, sign = rotation_conjugator(base, target), 1
            if conj is None:
                conj, sign = rotation_conjugator(base.inverse(), target), -1
            if conj is None:
                continue
            # After removing index j, relator i keeps its index (i < j).
            move = RemoveRelation(j, ((i, conj, sign),))
            return _apply_move(p, move), [move]
    return None


def _elimination_step(p: Presentation) -> tuple[Presentation, list[TietzeMove]] | None:
    candidates = []
    for idx, r in enumerate(p.relators):
        counts: dict[int, int] = {}
        for g, _ in r.syllables:
            counts[g] = counts.get(g, 0) + 1
        for g, e in r.syllables:
            if counts[g] == 1 and abs(e) == 1:
                candidates.append((r.letter_length, g, idx))
    if not candidates:
        return None
    _, gid, idx = min(candidates)
    move = RemoveGenerator(p.alphabet.name_of(gid), idx)
    return _apply_move(p, move), [move]


def auto_simplify(p: Presentation) -> tuple[Presentation, Tuple[TietzeMove, ...]]:
    """Deterministically simplify a presentation; returns (result, script).

    Each round: (1) cyclically reduce relators, (2) delete duplicate
    relators (equal up to cyclic rotation and inversion; empty relators
    never survive construction), (3) eliminate one generator that occurs
    in some relator exactly once with exponent ±1 — the shortest such
    relator wins, ties broken by lowest generator id then lowest relator
    index. Stops when no step applies. The returned script replays to
    the same result via apply_tietze.
    """
    current = p
    script: list[TietzeMove] = []
    while True:
        progressed = False
        while (step := _cyclic_reduction_step(current)) is not None:
            current, moves = step
            script.extend(moves)
            progressed = True
        while (step := _duplicate_removal_step(current)) is not None:
            current, moves = step
            script.extend(moves)
            progressed = True
        step = _elimination_step(current)
        if step is not None:
            current, moves = step
            script.extend(moves)
            progressed = True
        if not progressed:
            return current, tuple(script)


def describe_script(p: Presentation, script: Sequence[TietzeMove]) -> list[str]:
    """One deterministic human-readable line per move, replayed against p."""
    lines = []
    current = p
    for move in script:
        if isinstance(move, AddRelation):
            lines.append(f"add relator: {format_word(move.consequence, current.alphabet)}")
        elif isinstance(move, RemoveRelation):
            lines.append(f"remove relator {move.index}")
        elif isinstance(move, AddGenerator):
            lines.append(
                f"add generator {move.name} = {format_word(move.definition, current.alphabet)}"
            )
        else:
            lines.append(f"remove generator {move.name} using relator {move.relator_index}")
        current = _apply_move(current, move)
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


# --- evaluation in finite quotients ----------------------------------------


def _table_power(table, x: int, e: int) -> int:
    """x^e by repeated squaring in a finite multiplication table."""
    if e < 0:
        x = table.inv[x]
        e = -e
    result = table.identity
    base = x
    while e:
        if e & 1:
            result = table.mul[result][base]
        base = table.mul[base][base]
        e >>= 1
    return result


def evaluate_word_in_quotient(
    p: Presentation, w: Word, assignment: Mapping[int, int], table
) -> int:
    """Image of w under generator-id -> element assignment into a table group."""
    for gen in p.alphabet:
        if gen.id not in assignment:
            raise InputError(f"assignment missing generator {gen.name!r}")
        if not 0 <= assignment[gen.id] < table.order:
            raise InputError(
                f"assignment for {gen.name!r} is not an element index (order {table.order})"
            )
    acc = table.identity
    for gid, e in w.syllables:
        acc = table.mul[acc][_table_power(table, assignment[gid], e)]
    return acc
