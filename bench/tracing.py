"""The traced run's instruments, installed from outside the program.

A span wrapper goes around each public function listed in ``SPANS``, in
every module that imported it by name, so the program's source stays as it
is. Each span records its name, start, end, parent span and the index of the
operation it belongs to; a layer's self time is its span time minus the
time its child spans cover. The hot comparators (``cmp_t``, ``cmp_shat``,
``cmp_hall_t``, ``is_B``) and the ``LinComb`` methods are called millions
of times and are not wrapped; their memo tables are reported as sizes.
Spans and counts are taken only inside the timed regions.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function, span name)
SPANS = (
    ("tensor", "tree_mul", "tensor"),
    ("tensor", "tree_brk", "tensor"),
    ("tensor", "tensor_mul", "tensor"),
    ("tensor", "triple_bracket", "tensor"),
    ("tensor", "word_act_trees", "tensor"),
    ("tensor", "symmetrize", "tensor"),
    ("linalg", "invert", "linalg.invert"),
    ("osbb", "decompose", "osbb.decompose"),
    ("orders", "sort_by", "orders.sort"),
    ("bases", "any_to_t", "bases.any_to_t"),
    ("bases", "enumerate_S", "bases.enumerate"),
    ("bases", "enumerate_Shat", "bases.enumerate"),
    ("bases", "enumerate_Bhat", "bases.enumerate"),
    ("bases", "enumerate_T", "bases.enumerate"),
    ("normal", "normalize", "normal.normalize"),
    ("normal", "head_rewrite", "normal.head_rewrite"),
    ("normal", "subst", "normal.subst"),
    ("normal", "check_trace", "normal.check_trace"),
    ("hall", "lts_hall_rewrite", "hall.lts_hall_rewrite"),
    ("exprs", "parse_algebra", "exprs.parse"),
    ("exprs", "render_lincomb", "exprs.render"),
    ("yamaguti", "ly_binary", "yamaguti"),
    ("yamaguti", "ly_triple", "yamaguti"),
    ("suites", "relation_residual", "suites.relation_residual"),
)
CALLS = ("normal.normalize", "bases.any_to_t", "osbb.decompose",
         "linalg.invert", "hall.lts_hall_rewrite")

# (module, function, its memo table, metric); a call that grows the table
# by an entry is a miss, every other call a hit
HITS = (
    ("bases", "shat_elem_to_t", "_S2T", "bases.shat_elem_to_t.hit_ratio"),
    ("normal", "t_mul", "_TMUL", "normal.t_mul.hit_ratio"),
    ("osbb", "_component", "_COMPONENTS", "osbb.component_hit_ratio"),
)

MEMOS = {
    "terms.interned_nodes": ("terms", ("_GEN", "_BRK", "_GRAFT", "_OGRAFT", "_SYM",
                                       "_TRI", "_BLOCK", "_WORD")),
    "tensor.graft_product.memo_entries": ("tensor", ("_PROD",)),
    "orders.cmp_shat.memo_entries": ("orders", ("_CMP_SHAT",)),
    "orders.cmp_t.memo_entries": ("bases", ("_CMP_T",)),
    "bases.memo_entries": ("bases", ("_TO_SHAT", "_FROM_SHAT", "_PHI", "_PHI_INV",
                                     "_FOLIAGE", "_T_VALUE", "_S2T", "_S_GRADE",
                                     "_SHAT_GRADE", "_BHAT_GRADE")),
    "normal.memo_entries": ("normal", ("_IS_B", "_BH2T", "_TMUL", "_E2", "_E3")),
    "osbb.components": ("osbb", ("_COMPONENTS",)),
}

RULES = ("PLY1", "PLY2", "PLY3", "PLY4", "PLY5", "PLY6", "TB-antisym")

# one span: name id, operation index (-1: prepare), parent span (-1: none),
# start s, end s
FIELDS = 5


class InstrumentError(Exception):
    """An instrument lost its hold on the program: a listed function or
    memo table is gone, a hook could not read a result, or a layer the
    workload exercises saw no call. Its figures would read 0, which looks
    like a gain, so the traced run stops instead."""


class SpanLog:
    """Span records, packed as float64 in one array."""

    def __init__(self):
        self.data = array("d")

    @property
    def n(self):
        return len(self.data) // FIELDS

    def reserve(self):
        """Index of a new span, whose record ``put`` fills in later."""
        i = self.n
        self.data.extend((0.0,) * FIELDS)
        return i

    def put(self, i, *record):
        self.data[i * FIELDS:(i + 1) * FIELDS] = array("d", record)


class Tracer:
    def __init__(self):
        self.names = []
        self.self_s = []
        self.calls = []
        self.log = SpanLog()
        self.stack = []             # [child seconds, span index] per open span
        self.counts = Counter()
        self.max_order = 0
        self.peak_work = 0
        self.op = 0
        self.faults = []
        self.active = False
        self.wall = 0.0
        self._t0 = 0.0

    def begin(self, op):
        """Open a timed region belonging to operation ``op``."""
        self.op = op
        self.active = True
        self._t0 = perf_counter()

    def end(self):
        self.wall += perf_counter() - self._t0
        self.active = False

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.names.index(name)

    def span(self, fn, name, on_result=None):
        nid = self._name_id(name)
        log, stack, self_s, calls = self.log, self.stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, log.reserve()]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self_s[nid] += took - frame[0]
                calls[nid] += 1
                if stack:
                    stack[-1][0] += took
                log.put(frame[1], nid, self.op, parent, start, end)
            if on_result is not None:
                try:
                    on_result(args, result)
                except Exception as e:
                    self.faults.append("%s: reading its result: %s: %s"
                                       % (name, type(e).__name__, e))
            return result
        return wrapper

    def hits(self, fn, mod, table, metric):
        """Count calls and misses; misses are the entries the outermost
        call adds to the memo table (nested calls add theirs within it)."""
        counts = self.counts
        depth = [0]

        def wrapper(*args):
            if not self.active:
                return fn(*args)
            counts[metric + ".calls"] += 1
            if depth[0]:
                return fn(*args)
            memo = getattr(mod, table)
            before = len(memo)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
                counts[metric + ".misses"] += len(memo) - before
        return wrapper

    def on_normalize(self, args, result):
        trace = result[1]
        self.counts["normal.rewrite_steps"] += len(trace.steps)
        self.peak_work = max(self.peak_work, len(trace.input),
                             max((len(s.after) for s in trace.steps), default=0))
        for step in trace.steps:
            self.counts["normal.steps." + step.rule] += 1

    def on_invert(self, args, result):
        self.max_order = max(self.max_order, len(args[0]))

    def install(self, extra_modules=()):
        """Wrap every listed function, in each plyalg module and each of
        ``extra_modules`` that holds it by name. Raises InstrumentError if a
        listed function or memo table is missing."""
        hooks = {"normal.normalize": self.on_normalize, "linalg.invert": self.on_invert}
        holders = [m for n, m in sys.modules.items()
                   if m is not None and (n == "plyalg" or n.startswith("plyalg."))]
        holders += list(extra_modules)
        for mod_name, fn_name, name in SPANS:
            self._replace(holders, mod_name, fn_name,
                          lambda fn, name=name: self.span(fn, name, hooks.get(name)))
        for mod_name, fn_name, table, metric in HITS:
            mod = _module(mod_name, table)
            self._replace(holders, mod_name, fn_name,
                          lambda fn, mod=mod, t=table, m=metric: self.hits(fn, mod, t, m))
        for mod_name, tables in MEMOS.values():
            _module(mod_name, *tables)

    @staticmethod
    def _replace(holders, mod_name, fn_name, make):
        orig = getattr(_module(mod_name, fn_name), fn_name)
        wrapped = make(orig)
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    def metrics(self, layers):
        """Every per-layer metric as name -> (value, unit). ``layers`` names
        the spans and hit ratios the workload must reach; InstrumentError if
        one saw no call, or if a hook failed. A hit ratio of a function the
        workload never calls reads 0."""
        by_name = dict(zip(self.names, zip(self.self_s, self.calls)))
        silent = [name for name in sorted(layers)
                  if not by_name.get(name, (0.0, 0))[1] and not self.counts[name + ".calls"]]
        if self.faults or silent:
            raise InstrumentError("; ".join(self.faults + [
                "%s saw no call: renamed, or no longer called?" % name for name in silent]))
        out = {}
        for _, _, name in SPANS:
            out[name + ".self_s"] = (by_name.get(name, (0.0, 0))[0], "s")
        for name in CALLS:
            out[name + ".calls"] = (by_name.get(name, (0.0, 0))[1], "count")
        out["linalg.invert.max_order"] = (self.max_order, "count")
        for _, _, _, metric in HITS:
            calls = self.counts[metric + ".calls"]
            hits = calls - self.counts[metric + ".misses"]
            out[metric] = (hits / calls if calls else 0.0, "ratio")
        for metric, (mod_name, tables) in MEMOS.items():
            mod = _module(mod_name)
            out[metric] = (sum(len(getattr(mod, t)) for t in tables), "count")
        out["normal.rewrite_steps"] = (self.counts["normal.rewrite_steps"], "count")
        for rule in RULES:
            out["normal.steps." + rule] = (self.counts["normal.steps." + rule], "count")
        out["normal.peak_work_terms"] = (self.peak_work, "count")
        out["trace.wall_s"] = (self.wall, "s")
        out["trace.untraced_s"] = (self.wall - sum(self.self_s), "s")
        out["trace.spans"] = (self.log.n, "count")
        return out

    def write_spans(self, path):
        """Write the span records as raw float64, ``FIELDS`` per span."""
        with open(path, "wb") as f:
            self.log.data.tofile(f)


def _module(name, *attrs):
    """``plyalg.<name>``, checked to hold every one of ``attrs``."""
    mod = importlib.import_module("plyalg." + name)
    missing = [a for a in attrs if not hasattr(mod, a)]
    if missing:
        raise InstrumentError("plyalg.%s has no %s: the instruments need updating"
                              % (name, ", ".join(missing)))
    return mod
