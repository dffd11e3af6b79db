"""Span recording around the calls that cross schur2's layers.

Only the traced run installs these wrappers; the untraced run measures the
package as shipped. Spans are kept in memory and written out at the end.
"""

import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from schur2 import are_analysis, gauss_measure, sets, solvers

ENGINES = ("PRODUCT_1D", "SLICE_QUAD", "POLAR2D", "MC_PLAIN", "MC_IMPORTANCE")
VARIANTS = ("pball", "pqball", "hatb", "checkb", "cube", "complement")
ROOT_NAMES = {"are": "are_analysis.are", "measure": "gauss_measure.measure",
              "critical_value": "solvers.critical_value",
              "shift_solution": "solvers.shift_solution"}
SOLVER_NAMES = ("solvers.critical_value", "solvers.shift_solution",
                "solvers.tail_probability")
SETS_NAMES = ("sets.contains_rows", "sets.contains")


def _rows(X):
    shape = np.shape(X)
    return shape[0] if len(shape) == 2 else 1


def _measure_info(args, out):
    return {"method": out.method, "nodes": out.samples_or_nodes,
            "met": out.target_met}


def root_info(args, out):
    """Info of an answer's root span; out is an answers.Outcome."""
    return {"method": out.method, "nodes": out.nodes, "met": out.met}


def _rows_info(args, out):
    S, X = args[0], args[1]
    return {"variant": S.variant, "rows": _rows(X), "k": S.k}


def _mean_rows_info(args, out):
    return {"rows": _rows(args[0])}


# (module, attribute, span name, info) for every cross-layer call site
SITES = (
    (solvers, "measure", "gauss_measure.measure", _measure_info),
    (solvers, "tail_probability", "solvers.tail_probability", None),
    (solvers, "critical_value", "solvers.critical_value", None),
    (are_analysis, "shift_solution", "solvers.shift_solution", None),
    (gauss_measure, "contains_rows", "sets.contains_rows", _rows_info),
    (sets, "contains", "sets.contains", None),
    (sets, "contains_rows", "sets.contains_rows", _rows_info),
    (sets, "p_mean_rows", "means.p_mean_rows", _mean_rows_info),
    (sets, "pq_mean_rows", "means.pq_mean_rows", _mean_rows_info),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # None for an answer's root span
    answer: int
    info: dict = None

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans; a span opened on a worker thread takes as parent the
    span open on the main thread, which is waiting for that worker."""

    def __init__(self):
        self.spans = []
        self.answer = None
        self._ids = itertools.count()
        self._main = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs, info=None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main
                                          else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.answer,
                               info(args, out) if info else None))
        return out

    def install(self):
        for module, attr, name, info in SITES:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))

            def traced(*args, _orig=orig, _name=name, _info=info, **kwargs):
                return self.call(_name, _orig, args, kwargs, _info)

            setattr(module, attr, functools.wraps(orig)(traced))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent,
                                    s.answer, s.info]) + "\n")


def _union_ms(intervals, lo, hi):
    """Length in ms of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total * 1e3


def _p50(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans):
    """Per-layer metrics from a finished trace."""
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_ms(s, names=None):
        kids = [(c.start, c.end) for c in children.get(s.sid, ())
                if names is None or c.name in names]
        return s.ms - _union_ms(kids, s.start, s.end)

    def named(name):
        return [s for s in spans if s.name == name]

    def root(s):
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    m = {}
    ares = [s for s in named("are_analysis.are") if s.parent is None]
    crits = named("solvers.critical_value")
    m["are_analysis.are.calls"] = (len(ares), "count")
    m["are_analysis.are.ms_p50"] = (_p50([s.ms for s in ares]), "ms")
    crit_in_are = sum(root(s).name == "are_analysis.are" for s in crits)
    m["are_analysis.critical_value_per_are"] = (
        crit_in_are / len(ares) if ares else 0.0, "ratio")
    m["are_analysis.self_ms"] = (sum(self_ms(s) for s in ares), "ms")

    for name in ("solvers.critical_value", "solvers.shift_solution"):
        ss = named(name)
        tails = [sum(c.name == "solvers.tail_probability"
                     for c in children.get(s.sid, ())) for s in ss]
        m[f"{name}.calls"] = (len(ss), "count")
        m[f"{name}.ms_p50"] = (_p50([s.ms for s in ss]), "ms")
        m[f"{name}.tail_calls"] = (
            statistics.fmean(tails) if tails else 0.0, "count")
    tails = named("solvers.tail_probability")
    closed = sum(not children.get(s.sid) for s in tails)
    m["solvers.tail_probability.closed_share"] = (
        closed / len(tails) if tails else 0.0, "ratio")
    m["solvers.self_ms"] = (
        sum(self_ms(s) for s in spans if s.name in SOLVER_NAMES), "ms")

    measures = named("gauss_measure.measure")
    for e in ENGINES:
        es = [s for s in measures if s.info["method"] == e]
        m[f"gauss_measure.{e}.calls"] = (len(es), "count")
        m[f"gauss_measure.{e}.ms_p50"] = (_p50([s.ms for s in es]), "ms")
        m[f"gauss_measure.{e}.ms_total"] = (sum(s.ms for s in es), "ms")
        m[f"gauss_measure.{e}.nodes_mean"] = (
            statistics.fmean(s.info["nodes"] for s in es) if es else 0.0,
            "count")
        m[f"gauss_measure.{e}.target_missed"] = (
            sum(not s.info["met"] for s in es), "count")
    met = sum(s.info["met"] for s in measures)
    m["gauss_measure.target_met_ratio"] = (
        met / len(measures) if measures else 1.0, "ratio")
    m["gauss_measure.self_ms"] = (
        sum(self_ms(s, SETS_NAMES) for s in measures), "ms")

    # a contains_rows call nested in another (complements) is not counted
    outer = [s for s in named("sets.contains_rows")
             if s.parent is None or by_id[s.parent].name != "sets.contains_rows"]
    rows = sum(s.info["rows"] for s in outer)
    m["sets.contains_rows.calls"] = (len(outer), "count")
    m["sets.contains_rows.rows"] = (rows, "count")
    m["sets.contains_rows.ms_total"] = (sum(s.ms for s in outer), "ms")
    for v in VARIANTS:
        vs = [s for s in outer if s.info["variant"] == v]
        n = sum(s.info["rows"] for s in vs)
        m[f"sets.contains_rows.{v}.ns_per_row"] = (
            sum(s.ms for s in vs) * 1e6 / n if n else 0.0, "ns/row")
    m["sets.contains.calls"] = (len(named("sets.contains")), "count")
    # computed, not measured: rows * k * 8 bytes of float64 input
    m["sets.contains_rows.mb_in"] = (
        sum(s.info["rows"] * s.info["k"] * 8 for s in outer) / 1e6, "MB")

    for name in ("means.pq_mean_rows", "means.p_mean_rows"):
        ss = named(name)
        n = sum(s.info["rows"] for s in ss)
        total = sum(s.ms for s in ss)
        m[f"{name}.ms_total"] = (total, "ms")
        m[f"{name}.ns_per_row"] = (total * 1e6 / n if n else 0.0, "ns/row")
    return m


KERNEL_ROWS = 1 << 20
KERNEL_SEED = 12345
KERNEL_SETS = {
    "pball": "pball:p=0,eps=1",
    "pqball": "pqball:p=2,q=-0.4,eps=1",
    "hatb": "hatb:p=4.5,a=1,eps=0.8",
    "checkb": "checkb:p=1.5,a=1,eps=0.45",
    "cube": "cube:a=1",
    "complement": "complement(pball:p=3,eps=1)",
}


def kernel_metrics():
    """contains_rows once per variant on one fixed seeded 1M x 3 batch."""
    X = np.random.default_rng(KERNEL_SEED).standard_normal((KERNEL_ROWS, 3))
    m = {}
    for v, text in KERNEL_SETS.items():
        S = sets.parse_set(text, 3)
        t0 = time.perf_counter()
        sets.contains_rows(S, X)
        ns = (time.perf_counter() - t0) * 1e9 / KERNEL_ROWS
        m[f"sets.kernel.{v}.ns_per_row"] = (ns, "ns/row")
    return m
