"""Run benchmark answers through the public schur2 API and check them.

An answer fails its check when it misses its accuracy target, when
|value - ref| > 3 * (err + ref_err), or, for Monte Carlo answers, when its
value differs in any bit from the value recorded with one worker.

References, in order of preference: a closed form, an acceptance-suite
golden, or a value recorded at the seed commit by record_refs.py together
with its stated error.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.stats import chi2, ncx2, norm

from schur2.are_analysis import are
from schur2.gauss_measure import GaussianShiftQuery, measure
from schur2.sets import parse_set
from schur2.solvers import (TestDesign, critical_value, normalize_direction,
                            shift_solution)


@dataclass(frozen=True)
class Outcome:
    value: float
    err: float
    met: bool
    bits: tuple  # hex of every float the call returned, for exact equality
    method: str = ""  # measure answers: the engine that ran, and its nodes
    nodes: int = 0


def _bits(*xs):
    return tuple(float(x).hex() for x in xs)


def design(a):
    return TestDesign(a.get("k"), a.get("p"), a.get("alpha"), a.get("beta"),
                      tuple(normalize_direction(a.get("u"))))


def run(a, c=None):
    """Call the API for answer a; c is the critical value a preceding
    critical_value answer of the same block produced."""
    if a.kind == "are":
        r = are(design(a))
        return Outcome(r.are, r.error, True, _bits(r.are, r.error, r.sp_norm))
    if a.kind == "measure":
        q = GaussianShiftQuery(set=parse_set(a.get("set"), a.get("k")),
                               shift=a.shift(),
                               target_rel_error=a.get("target"),
                               seed=a.get("seed"), workers=a.get("workers"))
        if a.get("max_samples"):
            q = replace(q, mc_max_samples=a.get("max_samples"))
        e = measure(q)
        return Outcome(e.value, e.abs_error, e.target_met,
                       _bits(e.value, e.abs_error, e.samples_or_nodes),
                       e.method, e.samples_or_nodes)
    if a.kind == "critical_value":
        v = critical_value(a.get("k"), a.get("p"), a.get("alpha"),
                           workers=a.get("workers"))
        return Outcome(v, 0.0, True, _bits(v))
    if a.kind == "shift_solution":
        s = shift_solution(design(a), workers=a.get("workers"), c=c)
        return Outcome(s.t, s.solver_error, s.exists,
                       _bits(s.t, s.achieved_power, s.solver_error))
    raise ValueError(f"unknown answer kind {a.kind!r}")


def run_block(block, on_answer):
    """Run a block in sequence; on_answer(answer, thunk) must call thunk()
    and return its Outcome, so the caller can time and trace each answer."""
    c = None
    for a in block:
        out = on_answer(a, functools.partial(run, a, c))
        if a.kind == "critical_value":
            c = out.value


# closed forms and goldens -------------------------------------------------


def _closed_are(k, p, alpha, beta, u):
    if p == 2.0:
        return 1.0
    u = np.asarray(normalize_direction(u))
    c2 = math.sqrt(chi2.ppf(1.0 - alpha, k) / k)
    lam2 = brentq(lambda lam: ncx2.sf(k * c2 * c2, k, lam) - beta,
                  1e-9, 1e4, xtol=1e-14, rtol=1e-15)
    ci = float(norm.ppf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / k))))

    def power_inf(t):
        return 1.0 - np.prod(norm.cdf(ci - t * u) - norm.cdf(-ci - t * u))

    t = brentq(lambda t: power_inf(t) - beta, 0.0, 1e3, xtol=1e-14,
               rtol=1e-15)
    return lam2 / (t * t * float(u @ u))


_ARE_GOLDENS = {  # acceptance criterion 3: (p, direction index) -> ARE
    (1.0, 4): 1.0317, (2.1, 0): 1.00429, (1.9, 4): 1.00459}
_DIAG2 = (math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))


def _are_golden(a):
    if (a.get("k"), a.get("alpha"), a.get("beta")) != (2, 0.05, 0.95):
        return None
    u = a.get("u")
    idx = 0 if u == (1.0, 0.0) else 4 if u == _DIAG2 else None
    want = _ARE_GOLDENS.get((a.get("p"), idx))
    return None if want is None else (want, 0.003 / 3.0)


_MEASURE_GOLDENS = {  # acceptance criteria 1 and 2: (radius, angle) -> value
    (1.0, math.pi / 5): (0.5250, 5e-4 / 3.0),
    (1.0, math.pi / 20): (0.5268, 5e-4 / 3.0),
    (11.0, math.pi / 5): (1.5e-14, 1.5e-14 / 9.0),
    (11.0, math.pi / 20): (1.4e-6, 1.4e-6 / 9.0),
}


def _measure_golden(a):
    if a.get("set") != "pqball:p=2,q=-0.4,eps=1" or a.get("k") != 2:
        return None
    x, y = a.get("shift")
    for (r, t), ref in _MEASURE_GOLDENS.items():
        if (x, y) == (r * math.cos(t), r * math.sin(t)):
            return ref
    return None


@functools.lru_cache(maxsize=None)
def fixed_reference(a):
    """(ref, ref_err, kind) from a closed form or a golden, else None."""
    if a.kind == "are":
        if a.get("p") in (2.0, math.inf):
            return (_closed_are(a.get("k"), a.get("p"), a.get("alpha"),
                                a.get("beta"), a.get("u")), 1e-12, "closed")
        g = _are_golden(a)
        return None if g is None else (*g, "golden")
    if a.kind == "measure":
        g = _measure_golden(a)
        return None if g is None else (*g, "golden")
    return None


def reference(a, refs):
    """(ref, ref_err, kind, value_w1 bits or None) for answer a."""
    rec = refs.get(a.key, {})
    fixed = fixed_reference(a)
    if fixed is not None:
        ref, ref_err, kind = fixed
    elif "ref" in rec:
        ref, ref_err, kind = rec["ref"], rec["ref_err"], "recorded"
    else:
        raise KeyError(f"no reference for {a.key}")
    w1 = tuple(rec["bits_w1"]) if "bits_w1" in rec else None
    return ref, ref_err, kind, w1


def accurate(out, ref, ref_err):
    return out.met and abs(out.value - ref) <= 3.0 * (out.err + ref_err)


def check(a, out, refs):
    """(passed, regressed) for one outcome. An answer regressed when it
    fails its accuracy check and passed it at the seed commit, or when its
    bits differ from the workers=1 bits, which every answer matched there."""
    ref, ref_err, _, w1 = reference(a, refs)
    acc = accurate(out, ref, ref_err)
    same_bits = w1 is None or w1 == out.bits
    regressed = (not acc and refs[a.key]["pass_at_seed"]) or not same_bits
    return acc and same_bits, regressed
