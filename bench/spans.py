"""Spans around calls into knotgrp's public functions, recorded from outside.

A layer is one module of the package (``words``, ``presentation``,
``wirtinger``, ``torus``, ``invariants``, ``geometry``, ``cli``). Its public
functions are the ones the package exports, plus ``Word.__pow__`` and
``cli.run``. :meth:`Tracer.install` rebinds every module-level name that
refers to one of them, in every module of the package, to a wrapper; so
calls the benchmark makes, calls ``cli`` makes through the names it
imports, and calls between public functions are all recorded. Nothing in
the package is edited, and :meth:`Tracer.uninstall` restores every name.

Each span is (name, start, end, parent span index, item id), kept in
memory and written out once at the end. Counters are taken at the same
boundaries from the call's arguments and result.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("words", "presentation", "wirtinger", "torus", "invariants", "geometry", "cli")


def _count_pow(tracer, args, result):
    tracer.add("words.pow_letters", result.letter_length)


def _count_simplify(tracer, args, result):
    simplified, script = result
    tracer.add("presentation.moves", len(script))
    tracer.add("presentation.out_letters", sum(r.letter_length for r in simplified.relators))


def _count_wirtinger(tracer, args, result):
    tracer.add("wirtinger.arcs", args[0].arc_count)


def _count_homs(tracer, args, result):
    p, table = args[0], args[1]
    tracer.add("invariants.assignments", table.order ** len(p.alphabet))
    tracer.add("invariants.homs", result)


def _count_snf(tracer, args, result):
    _, u, v = result
    bits = max((abs(x).bit_length() for m in (u, v) for row in m.entries for x in row), default=0)
    tracer.max_bits = max(tracer.max_bits, bits)


COUNTERS = {
    "words.__pow__": _count_pow,
    "presentation.auto_simplify": _count_simplify,
    "wirtinger.wirtinger_presentation": _count_wirtinger,
    "invariants.hom_count": _count_homs,
    "invariants.smith_normal_form": _count_snf,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # name -> item -> total
        self.max_bits = 0  # largest entry of U and V over all Smith normal forms
        self.item = None
        self._stack: list = []
        self._undo: list = []

    def add(self, counter: str, amount) -> None:
        self.counts[counter][self.item] += amount

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def open_item(self, item_id):
        """Root span for one item; returns the closer."""
        self.item = item_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()

        def close():
            self._stack.pop()
            self.spans[index] = ("item", start, perf_counter(), -1, item_id)
            self.item = None

        return close

    def install(self) -> None:
        package = importlib.import_module("knotgrp")
        modules = [package] + [importlib.import_module(f"knotgrp.{m}") for m in LAYERS]
        public = {}
        for name in dir(package):
            fn = getattr(package, name)
            if inspect.isfunction(fn) and fn.__module__.startswith("knotgrp."):
                public[fn] = f"{fn.__module__.split('.')[1]}.{fn.__name__}"
        cli = importlib.import_module("knotgrp.cli")
        public[cli.run] = "cli.run"
        wrappers = {fn: self.wrap(name, fn) for fn, name in public.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        word = importlib.import_module("knotgrp.words").Word
        self._undo.append((word, "__pow__", word.__pow__))
        word.__pow__ = self.wrap("words.__pow__", word.__pow__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
