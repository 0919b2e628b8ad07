"""Seeded input generator for the knotgrp benchmark.

Everything here is plain Python data built from a seed: diagrams as
crossing tuples and diagram-file text, words and presentations as text,
integer matrices as nested tuples, and the CLI script as argument lists.
Nothing imports knotgrp, so the program under test sees only the
generated inputs.

Usage: python3 bench/gen.py --workload <name> --seed <n>   (prints JSON)
"""

from __future__ import annotations

import argparse
import json
import random

#: ``--seed n`` selects input set ``n % INPUT_SETS``; pins.json holds the
#: output digests of every item of every input set.
INPUT_SETS = 16

WORKLOADS = ("knot-pipeline", "invariant-census", "torus-words", "cli-session")

# A crossing is (over, under_in, under_out, sign), arcs labelled 1..n.
PAPER_5CROSSING = ((4, 1, 2, 1), (1, 3, 4, 1), (2, 5, 1, 1), (5, 2, 3, 1), (3, 4, 5, 1))
TREFOIL = ((1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1))

PIPELINE_TARGETS = ("Z2", "Z3", "Z5", "S3", "A4", "S4")
CENSUS_TARGETS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "D4", "S3", "A4", "S4", "A5")
TORUS_PARAMS = ((2, 3), (3, 4), (3, 5), (5, 7), (2, 101), (97, 101))

# T(2,n) sizes of the knot-pipeline workload; fixed for every seed so the
# fitted simplify exponent always covers the same range. Beyond n = 27 one
# simplification takes over 0.15 s, too long for every item to run the
# dozens of times per run that make its best time steady on a shared host.
T2_SIZES = tuple(range(3, 29, 2))
SUMS = (
    ("trefoil", "trefoil"), ("trefoil", "5crossing"), ("t2-3", "t2-5"), ("t2-5", "t2-7"),
    ("trefoil", "t2-7"), ("5crossing", "t2-5"), ("t2-7", "t2-7"),
)


def t2_diagram(n: int) -> tuple:
    """Closed 2-braid T(2,n): crossing k has over=k, in=k-1, out=k+1 (mod n)."""
    return tuple((k, (k - 2) % n + 1, k % n + 1, 1) for k in range(1, n + 1))


def connected_sum(first: tuple, second: tuple) -> tuple:
    """Join two single-loop diagrams into one loop.

    The crossings are concatenated with the second summand's arcs shifted
    past the first's; then the crossing producing arc 1 of the first summand
    and the one producing the first arc of the second swap their outgoing
    under-arcs, which splices the two loops together.
    """
    shift = len(first)
    crossings = list(first) + [
        (o + shift, i + shift, u + shift, s) for o, i, u, s in second
    ]
    a = next(k for k, c in enumerate(crossings) if c[2] == 1)
    b = next(k for k, c in enumerate(crossings) if c[2] == shift + 1)
    (oa, ia, ua, sa), (ob, ib, ub, sb) = crossings[a], crossings[b]
    crossings[a], crossings[b] = (oa, ia, ub, sa), (ob, ib, ua, sb)
    return tuple(crossings)


def random_diagram(rng: random.Random, arcs: int) -> tuple:
    """A single-loop diagram: random cyclic arc order, random over-arc and sign."""
    order = list(range(1, arcs + 1))
    rng.shuffle(order)
    return tuple(
        (rng.randint(1, arcs), order[k], order[(k + 1) % arcs], rng.choice((1, -1)))
        for k in range(arcs)
    )


def diagram_text(crossings: tuple) -> str:
    """The diagram file format read by ``knotgrp.parse_diagram``."""
    lines = [f"arcs {max(len(crossings), 1)}"]
    for over, under_in, under_out, sign in crossings:
        lines.append(
            f"crossing over={over} in={under_in} out={under_out} sign={'+' if sign > 0 else '-'}"
        )
    return "\n".join(lines) + "\n"


def wirtinger_text(crossings: tuple) -> str:
    """The Wirtinger presentation of a diagram in presentation-file format."""
    arcs = max(len(crossings), 1)
    lines = ["gens: " + " ".join(f"a{i}" for i in range(1, arcs + 1))]
    for over, under_in, under_out, sign in crossings:
        lines.append(
            f"rel: a{over}^{sign} a{under_in} a{over}^{-sign} a{under_out}^-1"
        )
    return "\n".join(lines) + "\n"


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> tuple:
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))


def matrix_presentation_text(matrix: tuple) -> str:
    """A presentation whose relation matrix is ``matrix`` (one relator per row)."""
    cols = len(matrix[0])
    lines = ["gens: " + " ".join(f"x{j}" for j in range(1, cols + 1))]
    for row in matrix:
        syllables = [f"x{j + 1}^{e}" for j, e in enumerate(row) if e]
        lines.append("rel: " + (" ".join(syllables) if syllables else "x1 x1^-1"))
    return "\n".join(lines) + "\n"


def random_syllables(rng: random.Random, count: int, max_exp: int) -> list:
    """Alternating a/b syllables with nonzero exponents in [-max_exp, max_exp]."""
    letter = rng.choice("ab")
    out = []
    for _ in range(count):
        e = 0
        while e == 0:
            e = rng.randint(-max_exp, max_exp) if rng.random() < 0.3 else rng.randint(-9, 9)
        out.append((letter, e))
        letter = "b" if letter == "a" else "a"
    return out


def word_text(syllables) -> str:
    return " ".join(L if e == 1 else f"{L}^{e}" for L, e in syllables)


def inverse_syllables(syllables) -> list:
    return [(L, -e) for L, e in reversed(syllables)]


# --- workloads --------------------------------------------------------------


def knot_pipeline(rng: random.Random) -> list:
    items = [{"id": f"t2-{n}", "n": n, "crossings": t2_diagram(n)} for n in T2_SIZES]
    # Sums and T(2,n) are the same for every seed, and the seeded random
    # diagrams are small (6 arcs): they cost less than the median item, so
    # p50, tail and peak memory rank the same items for every seed. Random
    # diagrams above eight arcs sometimes simplify to four generators with
    # long relators, where the S4 hom sweep takes 0.1-2 s: a cost that
    # swings 100-fold between seeds.
    knots = {"trefoil": TREFOIL, "5crossing": PAPER_5CROSSING}
    knots.update({f"t2-{n}": t2_diagram(n) for n in (3, 5, 7)})
    for names in SUMS:
        crossings = knots[names[0]]
        for name in names[1:]:
            crossings = connected_sum(crossings, knots[name])
        items.append({"id": "sum-" + "+".join(names), "crossings": crossings})
    for k in range(8):
        items.append({"id": f"rnd{k}", "crossings": random_diagram(rng, 6)})
    for item in items:
        item["diagram"] = diagram_text(item["crossings"])
    return items


def invariant_census(rng: random.Random) -> list:
    # The diagrams with the costly sweeps are fixed (S4 on five arcs, A4 and
    # D4 on six) and the seeded ones have three arcs, so every seed has the
    # same heavy items. Four-arc diagrams are left out: A5 on them is a 13M
    # assignment sweep of 1-2 s, too few of which fit in a run to time.
    diagrams = [
        ("trefoil", TREFOIL),
        ("5crossing", PAPER_5CROSSING),
        ("trefoil+trefoil", connected_sum(TREFOIL, TREFOIL)),
    ]
    diagrams += [(f"rnd{k}", random_diagram(rng, 3)) for k in range(4)]
    items = []
    for name, crossings in diagrams:
        for target in CENSUS_TARGETS:
            items.append({
                "id": f"{name}-{target}",
                "kind": "profile",
                "target": target,
                "crossings": crossings,
                "presentation": wirtinger_text(crossings),
            })
    for k, size in enumerate((10, 16, 22, 28, 34, 40) * 2):
        matrix = random_matrix(rng, size, size, 6)
        items.append({
            "id": f"matrix{k}-{size}",
            "kind": "matrix",
            "matrix": matrix,
            "presentation": matrix_presentation_text(matrix),
        })
    return items


def torus_words(rng: random.Random, count: int = 1000, powers: int = 10) -> list:
    items = []
    # Every seed has the same relator-power queries, (a^m b^-n)^k for k = 110,
    # 120, ..., 200, which take about a third of the run; the seed picks the
    # words they are spliced into. There are ten of them, so the tail (the
    # eleventh slowest item) is the slowest plain query: the time of these
    # large powers swings with load from neighbouring machines far more than
    # that of short queries, too much for a steady tail.
    power_at = {k * count // powers: 110 + 10 * k for k in range(powers)}
    for k in range(count):
        m, n = TORUS_PARAMS[k % len(TORUS_PARAMS)]
        u = random_syllables(rng, rng.randint(1, 40), 1000)
        roll = rng.random()
        if k in power_at:
            # u with a conjugated relator power g (a^m b^-n)^k g^-1 spliced in:
            # the same element, so `eq` must answer true.
            g = random_syllables(rng, rng.randint(1, 4), 9)
            cut = rng.randint(0, len(u))
            items.append({
                "id": f"pow{k}", "kind": "eqpow", "m": m, "n": n,
                "head": word_text(u[:cut]), "tail": word_text(u[cut:]),
                "conj": word_text(g), "power": power_at[k],
            })
        elif roll < 0.40:
            items.append({"id": f"nf{k}", "kind": "nf", "m": m, "n": n, "u": word_text(u)})
        elif roll < 0.70:
            v = list(u)
            if rng.random() < 0.5:
                # splice in the relator (a^m b^-n)^{±1}: the same element
                cut = rng.randint(0, len(v))
                s = rng.choice((1, -1))
                v[cut:cut] = [("a", s * m), ("b", -s * n)]
            else:
                j = rng.randrange(len(v))
                v[j] = (v[j][0], v[j][1] + rng.choice((1, -1)))
            items.append({
                "id": f"eq{k}", "kind": "eq", "m": m, "n": n,
                "u": word_text(u), "v": word_text([s for s in v if s[1]]),
            })
        else:
            if rng.random() < 0.5:
                g = random_syllables(rng, rng.randint(1, 20), 1000)
                core = [(rng.choice("ab"), rng.randint(1, 50))]
                u = g + core + inverse_syllables(g)
            items.append({"id": f"fp{k}", "kind": "fporder", "m": m, "n": n, "u": word_text(u)})
    return items


CLI_FILES = {
    "trefoil.pres": wirtinger_text(TREFOIL),
    "5crossing.pres": wirtinger_text(PAPER_5CROSSING),
    "t2-9.pres": wirtinger_text(t2_diagram(9)),
    "sum-3-5.pres": wirtinger_text(connected_sum(t2_diagram(3), t2_diagram(5))),
    "t2-7.knot": diagram_text(t2_diagram(7)),
    "matrix-12.pres": matrix_presentation_text(random_matrix(random.Random(12), 12, 12, 5)),
    "malformed.pres": "gens: a b\nrel: a^^2 b\n",
}

_F = ".bench_out/cli/"

#: (argv, expected exit code). Exit 0 items are pinned byte-for-byte; exit 1
#: and 2 items must print nothing on stdout and a ``knotgrp: error:`` line.
CLI_SCRIPT = (
    (("torus", "2", "3"), 0),
    (("torus", "3", "5", "--format=kv"), 0),
    (("wirtinger", "builtin:trefoil"), 0),
    (("wirtinger", "builtin:unknot", "--format=kv"), 0),
    (("wirtinger", "builtin:paper-5crossing", "--format=kv"), 0),
    (("wirtinger", _F + "t2-7.knot"), 0),
    (("simplify", _F + "trefoil.pres"), 0),
    (("simplify", _F + "5crossing.pres", "--format=kv"), 0),
    (("simplify", _F + "t2-9.pres"), 0),
    (("simplify", _F + "sum-3-5.pres"), 0),
    (("abelian", _F + "trefoil.pres"), 0),
    (("abelian", _F + "matrix-12.pres"), 0),
    (("homcount", _F + "trefoil.pres", "--target", "S3"), 0),
    (("homcount", _F + "5crossing.pres", "--target", "S3", "--format=kv"), 0),
    (("homcount", _F + "5crossing.pres", "--target", "A4"), 0),
    (("profile", _F + "trefoil.pres", "--targets", "Z2,Z3,S3,S4"), 0),
    (("profile", _F + "5crossing.pres", "--targets", "Z2,Z3,D4,S3,A4", "--format=kv"), 0),
    (("nf", "2", "3", "a^3 b^4"), 0),
    (("nf", "3", "5", "a^-7 b^12 a^2 b^-1"), 0),
    (("nf", "97", "101", "a^500 b^-333 a^97 b^101"), 0),
    (("eq", "2", "3", "a^2", "b^3"), 0),
    (("eq", "5", "7", "a^5 b", "b a^5", "--format=kv"), 0),
    (("fporder", "3", "4", "b a^2 b^-1"), 0),
    (("fporder", "97", "101", "a^40 b^-3 a^-40", "--format=kv"), 0),
    (("retraction", "--lambda", "0.5", "--grid", "64"), 0),
    (("retraction", "--lambda", "1.0", "--grid", "160"), 0),
    (("retraction", "--lambda", "0.7854", "--grid", "64", "--format=kv"), 0),
    (("nf", "2", "3", "a^^2 b"), 1),
    (("simplify", _F + "malformed.pres"), 1),
    (("homcount", _F + "5crossing.pres", "--target", "S3", "--max-evals", "1000"), 2),
    # Python's int-from-string digit limit: the seed answers with a traceback.
    (("nf", "2", "3", "a^" + "7" * 5000), 1),
)


def cli_session(rng: random.Random) -> list:
    items = [
        {"id": f"cli{k}-{argv[0]}", "argv": list(argv), "exit": code}
        for k, (argv, code) in enumerate(CLI_SCRIPT)
    ]
    rng.shuffle(items)
    return items


GENERATORS = {
    "knot-pipeline": knot_pipeline,
    "invariant-census": invariant_census,
    "torus-words": torus_words,
    "cli-session": cli_session,
}


def items(workload: str, seed: int) -> list:
    """The workload's item list for ``--seed``; equal seeds give equal lists."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed % INPUT_SETS}"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(json.dumps(items(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
