"""Spans around weylift's public functions, installed from outside.

``install(recorder)`` wraps each layer boundary listed in ``SPANS`` (and the
counted-only calls in ``COUNTS``) by replacing the attribute on its module or
class.  A function that other modules imported by name
(``from .weyl import ad_pow``) is replaced in every weylift module that holds
it, so no call slips past the wrapper.  Targets that do not exist in the
program being measured are skipped and listed in ``recorder.absent``.

Each span is one record ``[id, parent, name, op, t0, t1, counts]`` kept in
memory; ``Recorder.dump`` writes them out as JSON lines when the process
ends.  ``self_times`` turns a span file into per-layer totals: a span's self
time is its duration minus the durations of its child spans (one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """In-memory span log for one worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []

    def enter(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        rec = [len(self.spans), parent, name, self.op, perf_counter(), None, None]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def leave(self, rec: list) -> None:
        rec[5] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.enter(name)
        try:
            yield rec
        finally:
            self.leave(rec)

    def innermost(self, name: str) -> list | None:
        for rec in reversed(self.stack):
            if rec[2] == name:
                return rec
        return None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"counters": self.counters, "absent": self.absent}) + "\n")


def _add(rec: list, key: str, amount: int) -> None:
    if rec[6] is None:
        rec[6] = {}
    rec[6][key] = rec[6].get(key, 0) + amount


# -- wrapper factories: factory(recorder, original function) -> wrapper -----


def _mul(rec_, fn):
    @functools.wraps(fn)
    def wrapper(self, other):
        rec = rec_.enter("weyl.mul_w2" if self.ring == "w2" else "weyl.mul_k")
        try:
            out = fn(self, other)
        finally:
            rec_.leave(rec)
        _add(rec, "term_pairs", len(self.terms) * len(other.terms))
        _add(rec, "terms_out", len(out.terms))
        return out

    return wrapper


def _tables(rec_, fn):
    module = sys.modules[fn.__module__]

    @functools.wraps(fn)
    def wrapper(p, size):
        cache = getattr(module, "_tables_cache", {})
        before = cache.get(p)
        rec = rec_.enter("kernel.tables")
        try:
            out = fn(p, size)
        finally:
            rec_.leave(rec)
        _add(rec, "builds", int(out is not before))
        return out

    return wrapper


def _solve(rec_, fn):
    @functools.wraps(fn)
    def wrapper(params, rows, rhs, *args, **kwargs):
        owner = rec_.innermost("cohomology.basis_expand")
        rec = rec_.enter("linsolve.solve")
        try:
            out = fn(params, rows, rhs, *args, **kwargs)
        finally:
            rec_.leave(rec)
        cols = len(rows[0]) if rows else 0
        _add(rec, "cells", len(rows) * cols)
        rec[6]["max_cols"] = cols
        _add(rec, "inconsistent", int(out is None))
        if owner is not None:
            _add(owner, "solves", 1)
        return out

    return wrapper


def _expand(rec_, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = rec_.enter("cohomology.basis_expand")
        try:
            out = fn(*args, **kwargs)
        finally:
            rec_.leave(rec)
        if rec[6] and rec[6].get("solves"):
            _add(rec, "expansions", 1)
        return out

    return wrapper


def _plain(name):
    def make(rec_, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = rec_.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec_.leave(rec)

        return wrapper

    return make


def _counted(name):
    def make(rec_, fn):
        counters = rec_.counters
        counters[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


# (module, attribute path, span/metric name, wrapper factory)
SPANS = [
    ("weylift.weyl", "WeylElem.__mul__", "weyl.mul", _mul),
    ("weylift._kernel", "tables", "kernel.tables", _tables),
    ("weylift.weyl", "ad_pow", "weyl.ad_pow", None),
    ("weylift.weyl", "WeylElem.p_power", "weyl.p_power", None),
    ("weylift.endo", "Endo.validate", "endo.validate", None),
    ("weylift.endo", "Endo.analyze", "endo.analyze", None),
    ("weylift.endo", "Endo.obstruction_C", "endo.obstruction_C", None),
    ("weylift.endo", "Endo.obstruction_C_oracle", "endo.obstruction_C_oracle", None),
    ("weylift.center", "is_poisson_morphism", "center.is_poisson_morphism", None),
    ("weylift.center", "is_etale", "center.is_etale", None),
    ("weylift.diffeq", "gamma_solution", "diffeq.gamma_solution", None),
    ("weylift.cohomology", "basis_expand", "cohomology.basis_expand", _expand),
    ("weylift.linsolve", "solve", "linsolve.solve", _solve),
    ("weylift.cohomology", "split_closed_2form", "cohomology.split_closed_2form", None),
    ("weylift.cohomology", "verify_lift", "cohomology.verify_lift", None),
    ("weylift.cohomology", "construct_lift", "cohomology.construct_lift", None),
    ("weylift.trivialization", "trace_top_coefficient", "trivialization.trace_top_coefficient", None),
    ("weylift.parser", "parse_spec_text", "parser.parse_spec_text", None),
    ("weylift.cli", "run", "cli.run", None),
    ("weylift.cli", "run_corpus", "cli.run_corpus", None),
]

COUNTS = [
    ("weylift.scalars", "FieldParams.carry", "scalars.carry.calls"),
]


def _resolve(modname: str, path: str):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def _replace(owner, attr: str, old, new) -> None:
    if isinstance(old, functools.cached_property):
        new = functools.cached_property(new)
        new.__set_name__(owner, attr)
    setattr(owner, attr, new)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("weylift") and module is not owner:
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)


def install(rec: Recorder) -> None:
    """Wrap every available target; call before the first operation."""
    importlib.import_module("weylift.cli")
    targets = [(m, p, factory or _plain(name), name) for m, p, name, factory in SPANS]
    targets += [(m, p, _counted(name), name) for m, p, name in COUNTS]
    for modname, path, factory, name in targets:
        found = _resolve(modname, path)
        if found is None:
            rec.absent.append(name)
            continue
        owner, attr, value = found
        fn = value.func if isinstance(value, functools.cached_property) else value
        _replace(owner, attr, value, factory(rec, fn))


def self_times(paths: list[str]) -> tuple[dict, dict, list]:
    """Per-name totals over span files (one per worker process).

    Returns ({name: {"calls", "self_s", "total_s", <counts>...}},
    counters, absent).  ``max_cols`` is combined by max, other counts by sum.
    """
    out: dict = {}
    counters: dict = {}
    absent: set = set()
    for path in paths:
        spans = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                item = json.loads(line)
                if isinstance(item, dict):
                    for key, value in item["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                    absent.update(item["absent"])
                else:
                    spans.append(item)
        child = [0.0] * len(spans)
        for sid, parent, _, _, t0, t1, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        for sid, _, name, _, t0, t1, counts in spans:
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[sid]
            for key, value in (counts or {}).items():
                if key == "max_cols":
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
    return out, counters, sorted(absent)
