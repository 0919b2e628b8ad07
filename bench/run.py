"""Benchmark of knotgrp: four seeded workloads, each in one fresh worker.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see gen.py for the inputs and BENCHMARK.json for why each is here):
knot-pipeline, invariant-census, torus-words, cli-session. ``--workload all``
(the default) runs the four one after another.

With ``--trace 0`` it prints the end-to-end metrics of each workload:
setup_s, items_per_s, item_p50_ms, item_tail_ms, fail_ratio, refused_ratio
and peak_rss_mb, plus ok_ratio = 1 - fail_ratio and answered_ratio =
1 - refused_ratio, which are the forms the JSON result carries. With
``--trace 1`` it prints the per-layer metrics from a traced run instead,
and for knot-pipeline the T(2,n) simplify-versus-replay table.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. ``correct`` is false when any item gave a wrong
answer; an item that fails without answering (a traceback, a wrong exit
code) counts in ``failed`` only. The package is imported from ``src`` of
the checkout this file sits in; the benchmark writes only under
``.bench_out`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 7
#: Fresh interpreters run under ``-X importtime`` for the import metrics.
IMPORT_PROBES = 3
#: Seconds a worker may run before it is killed and the run fails.
WORKER_TIMEOUT = 150

TABLES = {
    "knot-pipeline": gen.PIPELINE_TARGETS,
    "invariant-census": gen.CENSUS_TARGETS,
    "torus-words": (),
    "cli-session": (),  # each knotgrp process builds the tables it needs
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python(args, env, timeout=60) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done


def setup_seconds(workload: str, env) -> float:
    """Median wall time for a fresh interpreter to import knotgrp and build its tables."""
    code = f"import knotgrp\nfor name in {TABLES[workload]!r}:\n    knotgrp.builtin_table(name)\n"
    python(["-c", code], env)  # untimed: writes the bytecode caches
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        python(["-c", code], env)
        times.append(perf_counter() - start)
    return statistics.median(times)


def import_seconds(env) -> dict:
    """Cumulative import time of knotgrp and of numpy, from ``-X importtime``."""
    found: dict = {"knotgrp": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        err = python(["-X", "importtime", "-c", "import knotgrp"], env).stderr
        for line in err.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] in found:
                found[fields[2]].append(int(fields[1]) / 1e6)
    return {
        "cli.import_s": (statistics.median(found["knotgrp"]), "s"),
        "cli.import_numpy_s": (statistics.median(found["numpy"]) if found["numpy"] else 0.0, "s"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, env) -> dict:
    extra = import_seconds(env) if trace else {"setup_s": (setup_seconds(workload, env), "s")}
    done = python(
        [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env, timeout=WORKER_TIMEOUT,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"].update(extra)
    return result


def machine() -> str:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip() or "missing"
    return f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {numpy}"


END_TO_END = ("setup_s", "items_per_s", "item_p50_ms", "item_tail_ms",
              "fail_ratio", "refused_ratio", "peak_rss_mb", "ok_ratio", "answered_ratio")


def report(result: dict, seed: int, seconds: float, trace: int) -> None:
    notes, metrics = result["notes"], result["metrics"]
    print(f"== {result['workload']}  seed {seed} (input set {seed % gen.INPUT_SETS}), "
          f"{seconds:g} s, {'traced' if trace else 'untraced'} ==")
    if trace:
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"  {name:36s} {value:14.6g} {unit}")
        if result["t2_table"]:
            print("\n  T(2,n) from the traced spans (best time per item):\n")
            print("  | n | simplify | replay of the same script |")
            print("  |---|---|---|")
            for n, simplify, replay in result["t2_table"]:
                print(f"  | {n} | {simplify:.4f} s | {replay * 1e3:.2f} ms |")
    else:
        metrics = dict(metrics)
        metrics["fail_ratio"] = (notes["fail_ratio"], "ratio")
        metrics["refused_ratio"] = (notes["refused_ratio"], "ratio")
        for name in END_TO_END:
            value, unit = metrics[name]
            print(f"  {name:16s} {value:14.6g} {unit}", end="")
            if name == "setup_s":
                print(f"   (median of {SETUP_PROBES} fresh interpreters)", end="")
            if name == "item_tail_ms":
                print(f"   (p{notes['tail_percentile']:g} of {notes['items']} items)", end="")
            if name == "items_per_s":
                print(f"   ({notes['executions']} executions, {notes['passes']} passes)", end="")
            print()
    for item, problem in sorted(result["problems"].items()):
        print(f"  problem: {item[:60]}: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "knotgrp" / "__init__.py").is_file():
        print(f"bench: no knotgrp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    env = child_env()
    print(f"machine: {machine()}")
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, args.trace, env)
            report(result, args.seed, args.seconds, args.trace)
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
