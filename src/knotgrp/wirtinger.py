"""Knot diagrams and the Wirtinger presentation of the knot group.

A diagram is a list of arcs (labeled 1..n) and signed crossings. The
knot strand is a single closed loop cut into arcs at undercrossings, so
each arc label occurs exactly once as some crossing's incoming under-arc
and exactly once as an outgoing one, and there are as many arcs as
crossings. The unknot is the special 1-arc, 0-crossing diagram.

Diagram file format (UTF-8, line based, ``#`` starts a comment)::

    arcs 3
    crossing over=1 in=2 out=3 sign=+
    crossing over=2 in=3 out=1 sign=+
    crossing over=3 in=1 out=2 sign=+

The Wirtinger presentation has one generator per arc and one conjugation
relator per crossing: with sign ``+`` the outgoing under-arc is the
incoming one conjugated by the over-arc, with sign ``-`` by its inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from .errors import InputError
from .presentation import Presentation
from .words import Alphabet, Word, _parse_int


@dataclass(frozen=True)
class Crossing:
    over: int
    under_in: int
    under_out: int
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InputError(f"crossing sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class KnotDiagram:
    arc_count: int
    crossings: Tuple[Crossing, ...]

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))
        if self.arc_count < 1:
            raise InputError("diagram needs at least one arc")
        if not self.crossings:
            if self.arc_count != 1:
                raise InputError("a diagram with no crossings must have exactly one arc")
            return
        for c in self.crossings:
            for arc in (c.over, c.under_in, c.under_out):
                if not 1 <= arc <= self.arc_count:
                    raise InputError(f"arc {arc} out of range 1..{self.arc_count}")
        if self.arc_count != len(self.crossings):
            raise InputError(
                f"arc count {self.arc_count} != crossing count {len(self.crossings)}"
            )
        for field in ("under_in", "under_out"):
            seen: dict[int, int] = {}
            for c in self.crossings:
                arc = getattr(c, field)
                if arc in seen:
                    raise InputError(f"arc {arc} appears twice as {field}")
                seen[arc] = 1
        # under_in -> under_out chaining must trace one closed loop
        succ = {c.under_in: c.under_out for c in self.crossings}
        arc = self.crossings[0].under_in
        visited = set()
        while arc not in visited:
            visited.add(arc)
            arc = succ[arc]
        if len(visited) != self.arc_count:
            raise InputError("crossings do not chain the arcs into a single closed loop")


_CROSSING_RE = re.compile(
    r"crossing\s+over=(\d+)\s+in=(\d+)\s+out=(\d+)\s+sign=([+-])\s*$"
)


def parse_diagram(text: str) -> KnotDiagram:
    """Parse the diagram file format; errors carry line numbers."""
    arc_count = None
    crossings = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if arc_count is None:
            m = re.fullmatch(r"arcs\s+(\d+)", line)
            if m is None:
                raise InputError(f"line {lineno}: expected 'arcs <n>'")
            arc_count = _parse_int(m.group(1), f"line {lineno}")
            continue
        m = _CROSSING_RE.match(line)
        if m is None:
            raise InputError(
                f"line {lineno}: expected 'crossing over=<i> in=<j> out=<k> sign=<+|->'"
            )
        over, under_in, under_out = (_parse_int(m.group(k), f"line {lineno}") for k in (1, 2, 3))
        sign = 1 if m.group(4) == "+" else -1
        crossings.append(Crossing(over, under_in, under_out, sign))
    if arc_count is None:
        raise InputError("empty diagram file")
    return KnotDiagram(arc_count, tuple(crossings))


def format_diagram(d: KnotDiagram) -> str:
    lines = [f"arcs {d.arc_count}"]
    for c in d.crossings:
        sign = "+" if c.sign == 1 else "-"
        lines.append(f"crossing over={c.over} in={c.under_in} out={c.under_out} sign={sign}")
    return "\n".join(lines)


def wirtinger_presentation(d: KnotDiagram) -> Presentation:
    """One generator per arc, one conjugation relator per crossing.

    Crossing with sign +1 contributes the relator
    ``a_over a_in a_over^-1 a_out^-1`` (i.e. a_out = a_over a_in a_over^-1);
    sign -1 conjugates by the inverse of the over-generator.
    """
    alphabet = Alphabet([f"a{i}" for i in range(1, d.arc_count + 1)])
    relators = []
    for c in d.crossings:
        over, a_in, a_out = c.over - 1, c.under_in - 1, c.under_out - 1
        relators.append(
            Word([(over, c.sign), (a_in, 1), (over, -c.sign), (a_out, -1)])
        )
    return Presentation(alphabet, relators)


_BUILTINS = {
    # 1-arc, 0-crossing unknot diagram
    "unknot": KnotDiagram(1, ()),
    # standard trefoil, all crossings positive
    "trefoil": KnotDiagram(
        3,
        (
            Crossing(over=1, under_in=2, under_out=3, sign=1),
            Crossing(over=2, under_in=3, under_out=1, sign=1),
            Crossing(over=3, under_in=1, under_out=2, sign=1),
        ),
    ),
    # five-crossing, five-arc knot; over/under incidences pinned by the
    # relator-set golden test
    "paper-5crossing": KnotDiagram(
        5,
        (
            Crossing(over=4, under_in=1, under_out=2, sign=1),
            Crossing(over=1, under_in=3, under_out=4, sign=1),
            Crossing(over=2, under_in=5, under_out=1, sign=1),
            Crossing(over=5, under_in=2, under_out=3, sign=1),
            Crossing(over=3, under_in=4, under_out=5, sign=1),
        ),
    ),
}


def builtin_diagram(name: str) -> KnotDiagram:
    """A named builtin diagram: 'unknot', 'trefoil' or 'paper-5crossing'."""
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise InputError(f"unknown builtin diagram {name!r} (known: {known})") from None
