"""Runs one workload in this interpreter and prints its results as one JSON line.

The item list comes from gen.py. The worker makes passes over it until its
time is spent (see Worker.phase) and times only the calls into knotgrp
for each item. The first execution of an item is checked against the
answers in oracle.py and against the digest pinned in pins.json; every
later execution must reproduce the first output exactly.

``--trace 0`` runs the items untraced. ``--trace 1`` runs them untraced
for half the time and under bench/spans.py for the other half. For
cli-session the untraced runs start ``python -m knotgrp`` processes, one
at a time; with ``--trace 1`` a quarter of the time goes to untraced
in-process ``knotgrp.cli.run`` calls and a quarter to traced ones.

Outcomes: an item is refused when the program declines it within its
budget (BudgetError, exit 2); it is wrong when its answer fails a check;
it fails when it is wrong, raises, prints a traceback, or exits with the
wrong code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

import gen  # noqa: E402
import oracle  # noqa: E402
from spans import LAYERS, Tracer, self_times  # noqa: E402

import knotgrp  # noqa: E402
from knotgrp import cli, invariants, presentation, torus, wirtinger, words  # noqa: E402
from knotgrp.errors import BudgetError  # noqa: E402

#: Executions of every item in an untraced run, however long each takes.
MIN_RUNS = 5
#: The same for each phase of a traced run, whose figures carry no bound.
TRACED_MIN_RUNS = 2
#: Seconds the worker stays on one CPU before moving to the next.
CPU_SLICE = 0.5
#: A phase stops after this many times its nominal seconds even if items
#: have not had their share, so a much slower program still ends in time.
PHASE_CAP = 3
#: Seconds one CLI process may take before it is killed and counted failed.
CLI_TIMEOUT = 60
#: T(2,n) items at or above this n enter the fitted simplify exponent.
FIT_FROM = 15


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:4]


class Wrong(Exception):
    """The item's answer fails a check."""


class Failed(Exception):
    """The item did not end the way the program's contract says."""


# --- knot-pipeline ----------------------------------------------------------


def pipeline_setup():
    return {name: knotgrp.builtin_table(name) for name in gen.PIPELINE_TARGETS}


def pipeline_run(tables, item):
    p = wirtinger.wirtinger_presentation(wirtinger.parse_diagram(item["diagram"]))
    simplified, script = presentation.auto_simplify(p)
    replayed = presentation.apply_tietze(p, script)
    abelian = invariants.abelianization(simplified)
    counts = [invariants.hom_count(simplified, tables[name]) for name in gen.PIPELINE_TARGETS]
    return simplified, script, replayed, abelian, counts


def pipeline_render(item, result) -> str:
    simplified, script, _, abelian, counts = result
    relators = [r.syllables for r in simplified.relators]
    return f"{simplified.alphabet.names}|{relators}|{script!r}|{abelian}|{counts}"


def pipeline_verify(item, result) -> None:
    simplified, _, replayed, abelian, counts = result
    if replayed != simplified:
        raise Wrong("replaying the script does not give the simplified result")
    if str(abelian) != "Z":
        raise Wrong(f"abelianization {abelian}, expected Z")
    expected = {"Z2": 2, "Z3": 3, "Z5": 5, "S3": oracle.s3_homs(item["crossings"])}
    if "n" in item:
        expected.update({t: oracle.torus_homs(2, item["n"], t) for t in gen.PIPELINE_TARGETS})
    homs = dict(zip(gen.PIPELINE_TARGETS, counts))
    for target, count in expected.items():
        if homs[target] != count:
            raise Wrong(f"{homs[target]} homs into {target}, expected {count}")


# --- invariant-census -------------------------------------------------------


def census_setup():
    return {name: knotgrp.builtin_table(name) for name in gen.CENSUS_TARGETS}


def census_run(_, item):
    p = presentation.parse_presentation(item["presentation"])
    if item["kind"] == "matrix":
        return invariants.abelianization(p)
    return invariants.invariant_profile(p, [item["target"]])


def census_render(item, result) -> str:
    if item["kind"] == "matrix":
        return str(result)
    return f"{result.abelian}|{result.hom_counts}"


def census_verify(item, result) -> None:
    if item["kind"] == "matrix":
        det = oracle.determinant(item["matrix"])
        rank, torsion = oracle.parse_abelian(str(result))
        if det and (rank or math.prod(torsion) != abs(det)):
            raise Wrong(f"abelianization {result}, expected finite of order |det| = {abs(det)}")
        return
    if str(result.abelian) != "Z":
        raise Wrong(f"abelianization {result.abelian}, expected Z")
    target = item["target"]
    count = dict(result.hom_counts)[target]
    if target.startswith("Z"):
        expected = int(target[1:])
    elif target == "S3":
        expected = oracle.s3_homs(item["crossings"])
    elif item["id"].startswith("trefoil-"):
        expected = oracle.torus_homs(2, 3, target)
    else:
        return
    if count != expected:
        raise Wrong(f"{count} homs into {target}, expected {expected}")


# --- torus-words ------------------------------------------------------------


def torus_run(_, item):
    parse, ab = words.parse_word, torus.AB
    params = torus.TorusParams(item["m"], item["n"])
    kind = item["kind"]
    if kind == "nf":
        return str(torus.torus_normal_form(params, parse(item["u"], ab)))
    if kind == "eq":
        equal = torus.words_equal_in_torus_group(params, parse(item["u"], ab), parse(item["v"], ab))
    elif kind == "fporder":
        order = torus.order_in_free_product(item["m"], item["n"], parse(item["u"], ab))
        return "infinite" if order == torus.INFINITE else str(order)
    else:
        head, tail = parse(item["head"], ab), parse(item["tail"], ab)
        g = parse(item["conj"], ab)
        relator = parse(f"a^{item['m']} b^-{item['n']}", ab)
        spliced = head * g * relator ** item["power"] * g.inverse() * tail
        equal = torus.words_equal_in_torus_group(params, spliced, head * tail)
    return "true" if equal else "false"


def torus_verify(item, answer) -> None:
    m, n, kind = item["m"], item["n"], item["kind"]
    if kind == "nf":
        expected = oracle.torus_normal_form(m, n, oracle.parse_ab(item["u"]))
        ok = oracle.parse_normal_form(answer) == expected
    elif kind == "eq":
        u, v = oracle.parse_ab(item["u"]), oracle.parse_ab(item["v"])
        ok = answer == ("true" if oracle.equal_in_torus_group(m, n, u, v) else "false")
    elif kind == "fporder":
        ok = oracle.check_order(m, n, oracle.parse_ab(item["u"]), answer)
    else:
        ok = answer == "true"
    if not ok:
        raise Wrong(f"{kind} answered {answer!r}")


# --- cli-session ------------------------------------------------------------


def cli_setup():
    folder = OUT / "cli"
    folder.mkdir(parents=True, exist_ok=True)
    for name, text in gen.CLI_FILES.items():
        (folder / name).write_text(text, encoding="utf-8")


def cli_process(_, item):
    # run.py puts this checkout's src first on PYTHONPATH; children inherit it
    try:
        done = subprocess.run(
            [sys.executable, "-m", "knotgrp", *item["argv"]],
            cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"killed after {CLI_TIMEOUT} s"
    return done.returncode, done.stdout, done.stderr


def cli_in_process(_, item):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(item["argv"])
    except Exception:  # an escaping exception is this item's outcome
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def cli_render(item, result) -> str:
    code, out, err = result
    if code is None or "Traceback (most recent call last)" in err:
        last = err.strip().splitlines()[-1] if err.strip() else "no exit code"
        raise Failed(f"traceback: {last[:160]}")
    if code:
        if out:
            raise Failed(f"exit {code} printed to stdout")
        if not err.startswith("knotgrp: error:"):
            raise Failed(f"exit {code} without a 'knotgrp: error:' message")
        if code == 2:
            raise BudgetError(err)
    if code != item["exit"]:
        raise Failed(f"exit {code}, expected {item['exit']}")
    return out


WORKLOADS = {
    # name: (setup, run one item, render its output, verify its answer)
    "knot-pipeline": (pipeline_setup, pipeline_run, pipeline_render, pipeline_verify),
    "invariant-census": (census_setup, census_run, census_render, census_verify),
    "torus-words": (lambda: None, torus_run, lambda item, answer: answer, torus_verify),
    "cli-session": (cli_setup, cli_process, cli_render, lambda item, result: None),
}


# --- the loop ---------------------------------------------------------------


class Phase:
    """Best latency and outcome of each item over repeated executions.

    An item's latency is its best time, as timeit reports: on a shared
    host the same call can run twice as long while a neighbour loads the
    core, and the best of many executions is the steadiest estimate of the
    program's own cost.
    """

    def __init__(self, items):
        self.best = {item["id"]: math.inf for item in items}
        self.spent = {item["id"]: 0.0 for item in items}
        self.runs = {item["id"]: 0 for item in items}
        self.refused_items, self.failed_items = set(), set()
        self.attempted = self.failed = self.wrong = self.passes = 0

    def items_per_s(self) -> float:
        """Items of the list completed per second, each at its best time."""
        return len(self.best) / sum(self.best.values())

    def item_ms(self, missing_ms: float) -> dict:
        """Best latency per item; refused or failed items count as missing_ms."""
        bad = self.refused_items | self.failed_items
        return {k: missing_ms if k in bad else best * 1e3 for k, best in self.best.items()}


class Worker:
    def __init__(self, workload: str, seed: int, pins):
        self.workload = workload
        self.items = gen.items(workload, seed)
        self.pins = pins  # None: record outputs without comparing
        self.setup, self.run_item, self.render, self.verify = WORKLOADS[workload]
        self.context = None
        self.first: dict = {}  # item id -> output of its first good execution
        self.problems: dict = {}  # item id -> first reason it went wrong

    def pinned(self, index: int, item):
        if self.workload == "cli-session":
            return self.pins.get(" ".join(item["argv"]), "") if item["exit"] == 0 else ""
        return self.pins[index * 4:(index + 1) * 4]

    def outcome(self, index: int, item, result) -> str:
        """'ok', 'refused', 'failed' or 'wrong' for one execution."""
        output = self.render(item, result)
        key = item["id"]
        if key in self.first:
            if output != self.first[key]:
                raise Wrong("output differs from this item's first execution")
            return "ok"
        self.verify(item, result)
        if self.pins is not None:
            pin = self.pinned(index, item)
            if pin != (output if self.workload == "cli-session" else digest(output)):
                raise Wrong("output differs from the pinned output")
        self.first[key] = output
        return "ok"

    def phase(self, seconds: float, runner, tracer=None, min_runs: int = MIN_RUNS) -> Phase:
        """Passes over the items until each has had its share of `seconds`.

        Every item runs at least `min_runs` times, and then again in later
        passes while its total time is below an equal share of `seconds`,
        so cheap items collect many executions and costly ones a few, and
        the number an item gets does not depend on how long the others
        took. Every CPU_SLICE seconds the worker moves to the next CPU this
        process may use, so that a run samples every CPU rather than only
        the one the scheduler first picked, which a neighbour may be loading
        for the whole run.
        """
        phase = Phase(self.items)
        share = seconds / len(self.items)
        cpus = sorted(os.sched_getaffinity(0))
        deadline = perf_counter() + PHASE_CAP * seconds
        moved, cpu = -math.inf, 0
        try:
            while True:
                due = [
                    (index, item) for index, item in enumerate(self.items)
                    if phase.runs[item["id"]] < min_runs or phase.spent[item["id"]] < share
                ]
                if phase.passes >= min_runs and (not due or perf_counter() >= deadline):
                    break
                if perf_counter() - moved >= CPU_SLICE:
                    os.sched_setaffinity(0, {cpus[cpu % len(cpus)]})
                    moved, cpu = perf_counter(), cpu + 1
                for index, item in due:
                    self.execute(phase, index, item, runner, tracer)
                phase.passes += 1
        finally:
            os.sched_setaffinity(0, cpus)
        return phase

    def execute(self, phase: Phase, index: int, item, runner, tracer) -> None:
        close = tracer.open_item(item["id"]) if tracer else None
        error = result = None
        t0 = perf_counter()
        try:
            result = runner(self.context, item)
        except Exception as exc:  # classified below
            error = exc
        dt = perf_counter() - t0
        if close:
            close()
        try:
            if error is not None:
                raise error
            status = self.outcome(index, item, result)
        except BudgetError:
            status = "refused"
        except Wrong as exc:
            status = "wrong"
            self.problems.setdefault(item["id"], f"wrong: {exc}")
        except Exception as exc:  # any other escape is a failed item
            status = "failed"
            self.problems.setdefault(item["id"], f"failed: {exc}"[:240])
        key = item["id"]
        phase.attempted += 1
        phase.runs[key] += 1
        phase.spent[key] += dt
        phase.best[key] = min(phase.best[key], dt)
        if status == "refused":
            phase.refused_items.add(key)
        elif status != "ok":
            phase.failed_items.add(key)
            phase.failed += 1
            phase.wrong += status == "wrong"


# --- metrics ----------------------------------------------------------------


def end_to_end(phase: Phase, seconds: float, rss_who) -> tuple[dict, dict]:
    latencies = sorted(phase.item_ms(seconds * 1e3).values())
    n = len(latencies)
    beyond = min(10, n - 1)
    fail_ratio = len(phase.failed_items) / n
    refused_ratio = len(phase.refused_items) / n
    metrics = {
        "items_per_s": (phase.items_per_s(), "1/s"),
        "item_p50_ms": (statistics.median(latencies), "ms"),
        "item_tail_ms": (latencies[n - 1 - beyond], "ms"),
        "ok_ratio": (1 - fail_ratio, "ratio"),
        "answered_ratio": (1 - refused_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(rss_who).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "fail_ratio": fail_ratio,
        "refused_ratio": refused_ratio,
        "tail_percentile": round(100.0 * (n - beyond) / n, 2),
        "items": n,
        "passes": phase.passes,
        "executions": phase.attempted,
    }
    return metrics, notes


def fit_exponent(points) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> tuple[dict, list]:
    """Per-layer metrics for one pass over the item list.

    Items run different numbers of times, so each span and counter counts
    1/runs of its item: sums then read as one execution of every item.
    """
    runs = traced.runs
    count = defaultdict(float)
    total = defaultdict(float)
    layer_self = defaultdict(float)
    per_item = defaultdict(list)  # (name, item) -> inclusive durations
    setup_tables = 0.0
    for (name, start, end, _, item), own in zip(tracer.spans, self_times(tracer.spans)):
        if item is None:
            setup_tables += (end - start) * (name == "invariants.builtin_table")
            continue
        w = 1 / runs[item]
        count[name] += w
        total[name] += (end - start) * w
        layer_self[name.split(".")[0]] += own * w
        if name in ("presentation.auto_simplify", "presentation.apply_tietze"):
            per_item[name, item].append(end - start)
    c = {key: sum(v / runs[item] for item, v in by_item.items() if item is not None)
         for key, by_item in tracer.counts.items()}

    def mean(name, scale):
        return total[name] / count[name] * scale if count[name] else 0.0

    def rate(numerator, name):
        return numerator / total[name] if total[name] else 0.0

    table = []
    for n in gen.T2_SIZES:
        simplify = per_item.get(("presentation.auto_simplify", f"t2-{n}"))
        replay = per_item.get(("presentation.apply_tietze", f"t2-{n}"))
        if simplify and replay:
            table.append((n, min(simplify), min(replay)))
    fit = [(n, s) for n, s, _ in table if n >= FIT_FROM]
    simplify_s = total["presentation.auto_simplify"]
    replay_s = total["presentation.apply_tietze"]
    assignments = c.get("invariants.assignments", 0.0)
    m = {
        "words.parse_us": (mean("words.parse_word", 1e6), "us"),
        "words.parse_calls": (count["words.parse_word"], "count"),
        "words.pow_s": (total["words.__pow__"], "s"),
        "words.pow_letters_per_s": (rate(c.get("words.pow_letters", 0.0), "words.__pow__"), "1/s"),
        "torus.nf_us": (mean("torus.torus_normal_form", 1e6), "us"),
        "torus.eq_us": (mean("torus.words_equal_in_torus_group", 1e6), "us"),
        "torus.fporder_us": (mean("torus.order_in_free_product", 1e6), "us"),
        "torus.calls": (sum(v for k, v in count.items() if k.startswith("torus.")), "count"),
        "wirtinger.build_s": (
            total["wirtinger.parse_diagram"] + total["wirtinger.wirtinger_presentation"], "s"),
        "wirtinger.arcs": (c.get("wirtinger.arcs", 0.0), "count"),
        "presentation.simplify_s": (simplify_s, "s"),
        "presentation.replay_s": (replay_s, "s"),
        "presentation.simplify_replay_ratio": (simplify_s / replay_s if replay_s else 0.0, "ratio"),
        "presentation.moves": (c.get("presentation.moves", 0.0), "count"),
        "presentation.out_letters": (c.get("presentation.out_letters", 0.0), "count"),
        "presentation.simplify_exp": (fit_exponent(fit) if len(fit) > 1 else 0.0, "1"),
        "invariants.hom_s": (total["invariants.hom_count"], "s"),
        "invariants.assignments": (assignments, "count"),
        "invariants.assignments_per_s": (rate(assignments, "invariants.hom_count"), "1/s"),
        "invariants.hom_hit_ratio": (
            c.get("invariants.homs", 0.0) / assignments if assignments else 0.0, "ratio"),
        "invariants.snf_s": (total["invariants.smith_normal_form"], "s"),
        "invariants.snf_calls": (count["invariants.smith_normal_form"], "count"),
        "invariants.snf_max_bits": (tracer.max_bits, "bits"),
        "invariants.table_s": (setup_tables + total["invariants.builtin_table"], "s"),
        "geometry.verify_s": (total["geometry.verify_retraction"], "s"),
        "geometry.retractions_per_s": (rate(count["geometry.retract"], "geometry.verify_retraction"), "1/s"),
        "cli.run_ms": (mean("cli.run", 1e3), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.overhead_pct"] = ((untraced.items_per_s() / traced.items_per_s() - 1) * 100, "%")
    return m, [[n, s, r] for n, s, r in table]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[args.workload]
    if args.workload != "cli-session":
        pins = pins[str(args.seed % gen.INPUT_SETS)]
    worker = Worker(args.workload, args.seed, pins)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    worker.context = worker.setup()
    if tracer:
        tracer.uninstall()

    cli_session = args.workload == "cli-session"
    first_run = cli_process if cli_session else worker.run_item
    share, runs = (0.5, TRACED_MIN_RUNS) if args.trace else (1.0, MIN_RUNS)
    untraced = worker.phase(args.seconds * share, first_run, min_runs=runs)
    rss_who = resource.RUSAGE_CHILDREN if cli_session else resource.RUSAGE_SELF
    metrics, notes = end_to_end(untraced, args.seconds, rss_who)
    phases = [untraced]
    t2_table = []
    if tracer:
        baseline = untraced
        if cli_session:
            baseline = worker.phase(args.seconds / 4, cli_in_process, min_runs=runs)
            phases.append(baseline)
            process_ms = untraced.item_ms(0.0)
            inproc_ms = baseline.item_ms(0.0)
        tracer.install()
        try:
            traced = worker.phase(args.seconds / (4 if cli_session else 2),
                                  cli_in_process if cli_session else worker.run_item, tracer, runs)
        finally:
            tracer.uninstall()
        phases.append(traced)
        metrics, t2_table = per_layer(tracer, traced, baseline)
        overhead = 0.0
        if cli_session:
            bad = untraced.failed_items | untraced.refused_items
            good = [k for k in process_ms if k not in bad]
            overhead = statistics.fmean(process_ms[k] - inproc_ms[k] for k in good)
        metrics["cli.process_overhead_ms"] = (overhead, "ms")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))

    print(json.dumps({
        "workload": args.workload,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "wrong": sum(p.wrong for p in phases),
        "metrics": metrics,
        "notes": notes,
        "problems": worker.problems,
        "t2_table": t2_table,
    }))


if __name__ == "__main__":
    main()
