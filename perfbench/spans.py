"""Span tracing of orthofield from outside the package.

The tracer wraps every public function of each module (each module is
one layer) and rebinds the wrapper wherever the package holds a
reference to the original: module attributes bound by ``from .x import
name`` and module-level dispatch tables.  The block driver
``harness._map_blocks`` is the one private name wrapped, because it is
the only boundary where replica blocks and worker threads are visible;
each block becomes a ``harness.block`` span whose parent is the driver
span, even when it runs in a worker thread.

Spans are held in memory as tuples

    (id, name, start, end, parent id, thread id, op id, info)

and written once when the traced process exits.  A span's self time is
its duration minus the union of its child spans' intervals, so child
spans that overlap in two worker threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import re
import resource
import threading
import time
from collections import defaultdict

# module name -> metric prefix; a metric name has to start with a letter
LAYERS = {
    "cli": "cli", "harness": "harness", "generators": "generators", "_rng": "rng",
    "lattice": "lattice", "sumprocess": "sumprocess", "holder": "holder",
    "bounds": "bounds", "stats": "stats",
}
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RHS_FUNCTIONS = ("bounds.thm1_rhs", "bounds.bounded_rhs", "bounds.thm2_rhs")
GEN_LABELS = ("product_rademacher", "iid_rademacher", "iid_gaussian", "iid_weibull")


def _gen_label(spec) -> str:
    if spec.variant == "iid_symmetric":
        dist = spec.param("dist")
        return "iid_" + {"weibull_symmetric": "weibull"}.get(dist, dist)
    return spec.variant


# work counted at each boundary: (args, kwargs, result) -> info dict
_INFO = {
    "generators.generate_batch": lambda a, k, out: {"cells": int(out.size),
                                                    "gen": _gen_label(a[0])},
    "rng.fold": lambda a, k, out: {"words": int(out.size)},
    "lattice.prefix_sum": lambda a, k, out: {"cells": int(out.size)},
    "sumprocess.eval_W_batch": lambda a, k, out: {"points": int(out.shape[0])},
    "bounds.I_integral": lambda a, k, out: {"dprev": int(a[1] if len(a) > 1 else k["dprev"])},
    "harness._map_blocks": lambda a, k, out: {"threads": int(a[2])},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name, t0, t1, parent, info):
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), self.op, info))

    def wrap(self, name, fn):
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            info = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(args, kwargs, out)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._record(sid, name, t0, t1, parent, info)

        return traced

    def _blocks(self, fn):
        """Wrap a block function so each block is a span under the
        driver span, with the minor faults and system time of the
        thread that ran it."""
        parent = self._stack()[-1]

        def block(start, count):
            stack = self._stack()
            sid = next(self._ids)
            stack.append(sid)
            r0 = resource.getrusage(resource.RUSAGE_THREAD)
            t0 = time.perf_counter()
            try:
                return fn(start, count)
            finally:
                t1 = time.perf_counter()
                r1 = resource.getrusage(resource.RUSAGE_THREAD)
                stack.pop()
                self._record(sid, "harness.block", t0, t1, parent,
                             {"minflt": r1.ru_minflt - r0.ru_minflt,
                              "sys_s": r1.ru_stime - r0.ru_stime})

        return block

    def install(self, package) -> None:
        """Wrap the layers of an imported orthofield package in place."""
        modules = {name: importlib.import_module("%s.%s" % (package.__name__, name))
                   for name in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for mod_name, mod in modules.items():
            for key, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                name = "%s.%s" % (LAYERS[mod_name], key)
                if key == "_map_blocks":
                    orig = obj
                    wrapped[id(obj)] = self.wrap(
                        name, lambda fn, total, threads, orig=orig:
                        orig(self._blocks(fn), total, threads))
                elif not key.startswith("_"):
                    wrapped[id(obj)] = self.wrap(name, obj)
        for mod in [package] + list(modules.values()):
            for key, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, key, wrapped[id(obj)])
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            obj[k] = wrapped[id(v)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, tid, op, info in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "thread": tid, "op": op,
                                     "info": info}) + "\n")


# ------------------------------------------------------------ arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _, t0, t1, *_ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        out[sid] = (t1 - t0) - union_length([(a, b) for a, b in kids if b > a])
    return out


def busy(spans) -> float:
    """Thread-seconds during which at least one of the spans was open."""
    per_thread = defaultdict(list)
    for s in spans:
        per_thread[s[5]].append((s[2], s[3]))
    return sum(union_length(v) for v in per_thread.values())


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced round."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    selfs = self_times(spans)

    def info_sum(name, key, rows=None):
        return sum(s[7][key] for s in (by_name[name] if rows is None else rows) if s[7])

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    m = {}
    main = by_name["cli.main"]
    m["cli.main.calls"] = len(main)
    m["cli.main.self_s"] = sum(selfs[s[0]] for s in main)

    blocks = by_name["harness.block"]
    drivers = by_name["harness._map_blocks"]
    m["harness.self_s"] = sum(selfs[s[0]] for s in spans if s[1].startswith("harness."))
    m["harness.blocks"] = len(blocks)
    m["harness.minflt_per_block"] = per(info_sum("harness.block", "minflt"), len(blocks), 1)
    m["harness.sys_s"] = info_sum("harness.block", "sys_s")
    capacity = sum((s[3] - s[2]) * s[7]["threads"] for s in drivers if s[7])
    m["harness.threads_busy_ratio"] = per(sum(s[3] - s[2] for s in blocks), capacity, 1)

    gen = by_name["generators.generate_batch"]
    m["generators.generate_batch.calls"] = len(gen)
    m["generators.generate_batch.cells"] = info_sum("generators.generate_batch", "cells")
    m["generators.generate_batch.busy_s"] = busy(gen)
    for label in GEN_LABELS:
        rows = [s for s in gen if s[7] and s[7]["gen"] == label]
        m["generators.ns_per_cell." + label] = per(
            busy(rows), info_sum("generators.generate_batch", "cells", rows), 1e9)

    fold = by_name["rng.fold"]
    m["rng.fold.calls"] = len(fold)
    m["rng.fold.words"] = info_sum("rng.fold", "words")
    m["rng.fold.busy_s"] = busy(fold)
    m["rng.ns_per_word"] = per(m["rng.fold.busy_s"], m["rng.fold.words"], 1e9)

    prefix = by_name["lattice.prefix_sum"]
    m["lattice.prefix_sum.calls"] = len(prefix)
    m["lattice.prefix_sum.cells"] = info_sum("lattice.prefix_sum", "cells")
    m["lattice.prefix_sum.busy_s"] = busy(prefix)

    m["sumprocess.from_field.busy_s"] = busy(by_name["sumprocess.from_field"])
    m["sumprocess.eval_W_batch.points"] = info_sum("sumprocess.eval_W_batch", "points")
    m["sumprocess.eval_W_batch.busy_s"] = busy(by_name["sumprocess.eval_W_batch"])
    m["sumprocess.ns_per_point"] = per(m["sumprocess.eval_W_batch.busy_s"],
                                       m["sumprocess.eval_W_batch.points"], 1e9)

    m["holder.seq_norm.calls"] = len(by_name["holder.seq_norm"])
    m["holder.seq_norm.busy_s"] = busy(by_name["holder.seq_norm"])
    m["holder.tightness_sum_estimate.self_s"] = sum(
        selfs[s[0]] for s in by_name["holder.tightness_sum_estimate"])

    quad = by_name["bounds.I_integral"]
    m["bounds.recurse_constants.busy_s"] = busy(by_name["bounds.recurse_constants"])
    m["bounds.I_integral.calls"] = len(quad)
    m["bounds.I_integral.us_per_call"] = per(busy(quad), len(quad), 1e6)
    for d in range(2, 7):
        m["bounds.level_d%d.busy_s" % d] = busy(
            [s for s in quad if s[7] and s[7]["dprev"] == d - 1])
    rhs = [s for name in RHS_FUNCTIONS for s in by_name[name]]
    m["bounds.rhs.calls"] = len(rhs)
    m["bounds.rhs.busy_s"] = busy(rhs)

    m["stats.wilson_interval.calls"] = len(by_name["stats.wilson_interval"])
    return m


def selfcheck() -> list:
    """Check the self-time arithmetic on spans whose children overlap
    across two threads, and that every metric name is well formed.
    Returns a list of problems (empty when all hold)."""
    problems = []
    spans = [
        (1, "harness._map_blocks", 0.0, 10.0, None, 1, "x", {"threads": 2}),
        (2, "harness.block", 1.0, 4.0, 1, 2, "x", {"minflt": 3, "sys_s": 0.0}),
        (3, "harness.block", 3.0, 6.0, 1, 3, "x", {"minflt": 5, "sys_s": 0.0}),
        (4, "harness.block", 8.0, 9.0, 1, 2, "x", {"minflt": 1, "sys_s": 0.0}),
        (5, "generators.generate_batch", 1.5, 2.5, 2, 2, "x",
         {"cells": 10, "gen": "iid_gaussian"}),
    ]
    want_self = {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}  # 10 - |[1,6] u [8,9]| = 4
    got = self_times(spans)
    if any(abs(got[k] - v) > 1e-12 for k, v in want_self.items()):
        problems.append("self times %r, expected %r" % (got, want_self))
    if abs(busy(spans[1:4]) - 7.0) > 1e-12:  # thread 2: [1,4] u [8,9]; thread 3: [3,6]
        problems.append("busy time %r, expected 7" % busy(spans[1:4]))
    m = layer_metrics(spans)
    if abs(m["harness.self_s"] - 10.0) > 1e-12:  # 4 + 2 + 3 + 1
        problems.append("harness.self_s %r, expected 10" % m["harness.self_s"])
    if abs(m["harness.threads_busy_ratio"] - 7.0 / 20.0) > 1e-12:
        problems.append("threads_busy_ratio %r, expected 0.35" % m["harness.threads_busy_ratio"])
    problems += ["bad metric name %r" % n for n in m if not METRIC_NAME.match(n)]
    return problems
