"""Regenerates bench/pins.json from the program in this checkout.

    PYTHONPATH=src python3 bench/pin.py

For every input set of the three library workloads it stores a 4-hex-digit
digest of each item's output, in item order; for cli-session it stores the
full stdout of every command expected to exit 0. Every output must pass
the checks in oracle.py before it is pinned. An item the program refuses
within its default budget is pinned with the answer computed on its
simplified presentation, since hom counts and abelianization do not
change under Tietze moves; a later version that answers the item directly
must agree with it. Pin only from a version whose outputs are the
reference: the benchmark counts any difference as a wrong answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from knotgrp import auto_simplify, invariant_profile, parse_presentation  # noqa: E402
from knotgrp.errors import BudgetError  # noqa: E402


def simplified_answer(item):
    simplified, _ = auto_simplify(parse_presentation(item["presentation"]))
    return invariant_profile(simplified, [item["target"]])


def digests(workload: str, input_set: int) -> str:
    w = worker.Worker(workload, input_set, None)
    context = w.setup()
    out = []
    for item in w.items:
        try:
            result = w.run_item(context, item)
        except BudgetError:
            if workload != "invariant-census":
                raise
            result = simplified_answer(item)
        else:
            if workload == "invariant-census" and item["kind"] == "profile":
                assert w.render(item, result) == w.render(item, simplified_answer(item)), item["id"]
        w.verify(item, result)
        out.append(worker.digest(w.render(item, result)))
    return "".join(out)


def cli_pins() -> dict:
    worker.cli_setup()
    pins = {}
    for argv, code in gen.CLI_SCRIPT:
        if code == 0:
            exit_code, out, err = worker.cli_process(None, {"argv": argv})
            if exit_code != 0 or err:
                raise SystemExit(f"{' '.join(argv)}: exit {exit_code}: {err}")
            pins[" ".join(argv)] = out
    return pins


def main() -> None:
    pins = {"made_with": run.machine()}
    for workload in ("knot-pipeline", "invariant-census", "torus-words"):
        pins[workload] = {str(s): digests(workload, s) for s in range(gen.INPUT_SETS)}
        print(f"pinned {workload}", file=sys.stderr)
    pins["cli-session"] = cli_pins()
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
