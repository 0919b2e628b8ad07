"""Command-line front end: deterministic text output, no surprises.

Exit codes: 0 success, 1 domain/validation error, 2 resource-budget
error. Errors go to standard error; nothing is written to standard
output on an error path. Output format is ``key: value`` lines
(``--format=kv`` switches to tab-separated ``key<TAB>value``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .errors import DEFAULT_MAX_EVALS, BudgetError, InputError

Pairs = list[tuple[str, str]]


class _Parser(argparse.ArgumentParser):
    # argparse normally exits on its own; route through InputError so the
    # caller controls the exit code and stdout stays clean.
    def error(self, message):
        raise InputError(message)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_diagram(source: str):
    from .wirtinger import builtin_diagram, parse_diagram

    if source.startswith("builtin:"):
        return builtin_diagram(source[len("builtin:") :])
    return parse_diagram(_read_text(source))


def _load_presentation(path: str):
    from .presentation import parse_presentation

    return parse_presentation(_read_text(path))


def _presentation_pairs(p) -> Pairs:
    from .words import format_word

    pairs = [("gens", " ".join(p.alphabet.names))]
    pairs.extend(("rel", format_word(r, p.alphabet)) for r in p.relators)
    return pairs


def _cmd_torus(args) -> Pairs:
    from .presentation import torus_presentation

    return _presentation_pairs(torus_presentation(args.m, args.n))


def _cmd_wirtinger(args) -> Pairs:
    from .wirtinger import wirtinger_presentation

    return _presentation_pairs(wirtinger_presentation(_load_diagram(args.diagram)))


def _cmd_simplify(args) -> Pairs:
    from .presentation import auto_simplify, describe_script

    p = _load_presentation(args.presentation)
    simplified, script = auto_simplify(p)
    pairs = _presentation_pairs(simplified)
    pairs.extend(("move", line) for line in describe_script(p, script))
    return pairs


def _cmd_abelian(args) -> Pairs:
    from .invariants import abelianization

    return [("abelian", str(abelianization(_load_presentation(args.presentation))))]


def _cmd_homcount(args) -> Pairs:
    from .invariants import builtin_table, hom_count

    p = _load_presentation(args.presentation)
    count = hom_count(p, builtin_table(args.target), args.max_evals)
    return [(f"hom {args.target}", str(count))]


def _cmd_profile(args) -> Pairs:
    from .invariants import invariant_profile, profile_pairs

    p = _load_presentation(args.presentation)
    targets = [name for name in args.targets.split(",") if name]
    if not targets:
        raise InputError("no targets given")
    return profile_pairs(invariant_profile(p, targets, args.max_evals))


def _parse_ab(text: str):
    from .torus import AB
    from .words import parse_word

    return parse_word(text, AB)


def _cmd_nf(args) -> Pairs:
    from .torus import TorusParams, torus_normal_form

    params = TorusParams(args.m, args.n)
    nf = torus_normal_form(params, _parse_ab(args.word))
    return [("nf", str(nf))]


def _cmd_eq(args) -> Pairs:
    from .torus import TorusParams, words_equal_in_torus_group

    params = TorusParams(args.m, args.n)
    equal = words_equal_in_torus_group(params, _parse_ab(args.u), _parse_ab(args.v))
    return [("equal", "true" if equal else "false")]


def _cmd_fporder(args) -> Pairs:
    from .torus import INFINITE, order_in_free_product

    order = order_in_free_product(args.m, args.n, _parse_ab(args.word))
    return [("order", "infinite" if order == INFINITE else str(order))]


def _cmd_retraction(args) -> Pairs:
    from .geometry import RetractionParams, report_pairs, verify_retraction

    report = verify_retraction(RetractionParams(args.half_angle), args.grid)
    return report_pairs(report)


def build_parser() -> _Parser:
    parser = _Parser(prog="knotgrp", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "kv"), default="human", dest="format",
        help="output as 'key: value' (human) or tab-separated 'key<TAB>value' (kv)",
    )
    budget = _Parser(add_help=False)
    budget.add_argument(
        "--max-evals", type=int, default=DEFAULT_MAX_EVALS, dest="max_evals",
        help="budget for homomorphism enumeration (assignments)",
    )
    mn = _Parser(add_help=False)
    mn.add_argument("m", type=int)
    mn.add_argument("n", type=int)

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    s = sub.add_parser("torus", parents=[common, mn], help="torus-knot group presentation")
    s.set_defaults(handler=_cmd_torus)

    s = sub.add_parser("wirtinger", parents=[common], help="Wirtinger presentation of a diagram")
    s.add_argument("diagram", help="diagram file, or builtin:unknot|trefoil|paper-5crossing")
    s.set_defaults(handler=_cmd_wirtinger)

    s = sub.add_parser("simplify", parents=[common], help="deterministic Tietze simplification")
    s.add_argument("presentation", help="presentation file")
    s.set_defaults(handler=_cmd_simplify)

    s = sub.add_parser("abelian", parents=[common], help="abelian invariants")
    s.add_argument("presentation")
    s.set_defaults(handler=_cmd_abelian)

    s = sub.add_parser("homcount", parents=[common, budget], help="count homomorphisms into a target")
    s.add_argument("presentation")
    s.add_argument("--target", required=True, help="e.g. Z5, S3, S4, D4, A5")
    s.set_defaults(handler=_cmd_homcount)

    s = sub.add_parser("profile", parents=[common, budget], help="abelian + hom-count report")
    s.add_argument("presentation")
    s.add_argument("--targets", required=True, help="comma-separated target names")
    s.set_defaults(handler=_cmd_profile)

    s = sub.add_parser("nf", parents=[common, mn], help="normal form in the torus-knot group")
    s.add_argument("word")
    s.set_defaults(handler=_cmd_nf)

    s = sub.add_parser("eq", parents=[common, mn], help="word problem in the torus-knot group")
    s.add_argument("u")
    s.add_argument("v")
    s.set_defaults(handler=_cmd_eq)

    s = sub.add_parser("fporder", parents=[common, mn], help="element order in Z_m * Z_n")
    s.add_argument("word")
    s.set_defaults(handler=_cmd_fporder)

    s = sub.add_parser("retraction", parents=[common], help="verify the sector retraction numerically")
    s.add_argument("--lambda", type=float, required=True, dest="half_angle",
                   help="half-angle in radians, strictly between 0 and pi/2")
    s.add_argument("--grid", type=int, default=64)
    s.set_defaults(handler=_cmd_retraction)

    return parser


def _emit(pairs: Pairs, fmt: str, command: str) -> None:
    if command == "eq" and fmt == "human":
        print("equal" if pairs[0][1] == "true" else "not equal")
        return
    for key, value in pairs:
        print(f"{key}: {value}" if fmt == "human" else f"{key}\t{value}")


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        pairs = args.handler(args)
    except BudgetError as exc:
        print(f"knotgrp: error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"knotgrp: error: {exc}", file=sys.stderr)
        return 1
    _emit(pairs, args.format, args.command)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
