"""Critical values and power-matching shifts for p-mean tests.

The test rejects when the p-mean of |Z + shift| exceeds a critical value c.
critical_value calibrates c so the size at shift 0 equals alpha; shift_solution
finds the scalar t with power beta along a fixed direction u, relying on the
strict monotonicity of the power curve in t.

How c and t are found, past the closed forms (k = 1, p = 2, p = +-inf):
  - finite p > 0: one zero-shift radial CDF G on a domain that holds c, and
    the root of G(k^(1/p) c) = 1 - alpha on its interpolant; no measure call.
  - deterministic paths (quadrature or closed-form power): Brent's method on
    the probit-transformed power Phi^-1(P(t)) - Phi^-1(beta), nearly linear
    in t, with every evaluation memoised.
  - Monte Carlo paths (p <= 0 at k >= 3): bisection with a fixed seed at
    every trial point, i.e. common random numbers, robust to their noise.
  - deterministic c is memoised per (k, p, alpha), so the directions of one
    design share a single solve.
Both solvers use one monotone root finder for the bracket and its refinement.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.stats import chi2, ncx2, norm

from .gauss_measure import GaussianShiftQuery, measure, pball_radius_cdf
from .means import p_mean
from .sets import p_ball

T_MAX = 1e3
BRACKET_RTOL = 1e-7
_QUAD_TARGET = 1e-7
_GROW_STEPS = 60  # bracket halvings or doublings
_CV_TAIL_SHARE = 1e-3  # P(p-mean > m) / alpha bound at the domain end m
_CV_RTOL = 1e-10  # agreement of the roots from n and 2n radial-CDF nodes
_CV_MAX_NODES = 512
_PROBIT_CLIP = (1e-300, 1.0 - 2.0**-53)  # keeps Phi^-1 finite at 0 and 1


def normalize_direction(u):
    """Scale u so its quadratic mean is 1 (not the Euclidean norm)."""
    u = np.asarray(u, dtype=float)
    m = p_mean(u, 2.0)
    if m <= 0.0:
        raise ValueError("direction must be nonzero")
    return u / m


@dataclass(frozen=True)
class TestDesign:
    __test__ = False  # not a test fixture, despite the name

    k: int
    p: float
    alpha: float
    beta: float
    u: tuple

    def __post_init__(self):
        if not 0.0 < self.alpha < self.beta < 1.0:
            raise ValueError("need 0 < alpha < beta < 1")
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.k,):
            raise ValueError("direction length must equal k")
        if abs(p_mean(u, 2.0) - 1.0) > 1e-12:
            raise ValueError("direction must have quadratic mean 1")
        object.__setattr__(self, "u", tuple(float(x) for x in u))


@dataclass(frozen=True)
class ShiftSolution:
    exists: bool
    t: float
    norm: float
    achieved_power: float
    solver_error: float


def _tail_closed(k, p, c, shift):
    """P(<Z + shift>_p > c) on the closed-form paths, else None."""
    s = np.asarray(shift, dtype=float)
    if k == 1:
        return 1.0 - (norm.cdf(c - s[0]) - norm.cdf(-c - s[0]))
    if p == 2.0:
        return float(ncx2.sf(k * c * c, k, float(s @ s)))
    if p == math.inf:
        return 1.0 - float(np.prod(norm.cdf(c - s) - norm.cdf(-c - s)))
    if p == -math.inf:
        return float(np.prod(norm.sf(c - s) + norm.cdf(-c - s)))
    return None


def has_closed_power(k, p):
    return k == 1 or p in (2.0, math.inf, -math.inf)


def tail_probability(k, p, c, shift, *, seed=0, workers=1,
                     target_rel_error=None):
    """P(<Z + shift>_p > c) with a propagated absolute error estimate."""
    closed = _tail_closed(k, p, c, shift)
    if closed is not None:
        return min(max(closed, 0.0), 1.0), 0.0
    q = GaussianShiftQuery(set=p_ball(k, p, c),
                           shift=-np.asarray(shift, dtype=float),
                           seed=seed, workers=workers,
                           target_rel_error=target_rel_error)
    est = measure(q)
    return min(max(1.0 - est.value, 0.0), 1.0), est.abs_error


def _quad_path(k, p):
    # SLICE_QUAD covers finite p > 0, POLAR2D covers every k = 2 set; the
    # rest (p <= 0 at k >= 3) falls through to Monte Carlo.
    return k <= 2 or (math.isfinite(p) and p > 0.0)


def _monotone_root(h, x0, *, exact, xtol, rtol, steps=200, lo=None,
                   hi_max=math.inf):
    """Root of an increasing function h, searched from x0 > 0.

    Bracket: unless the caller knows a point lo with h(lo) < 0, halve x0
    until h < 0. Then double from x0 until h >= 0 or hi_max is reached; a
    known lo trails the doubling. Refine: Brent when h is deterministic;
    otherwise bisection, robust to correlated Monte Carlo noise, for at most
    `steps` halvings or until hi - lo <= max(xtol, rtol * hi).

    Returns (x, err, found): the root and a bound on |x - root|, or
    (hi_max, inf, False) when h(hi_max) < 0. Raises RuntimeError when no
    sign change appears within _GROW_STEPS doublings.
    """
    if lo is None:
        lo = x0
        for _ in range(_GROW_STEPS):
            if h(lo) < 0.0:
                break
            lo *= 0.5
        trail = False
    else:
        trail = True
    hi = x0
    for _ in range(_GROW_STEPS):
        h_hi = h(hi)
        if h_hi >= 0.0 or hi >= hi_max:
            break
        if trail:
            lo = hi
        hi = min(2.0 * hi, hi_max)
    else:
        raise RuntimeError("no sign change found while doubling")
    if h_hi < 0.0:
        return hi, math.inf, False
    if exact:
        x = brentq(h, lo, hi, xtol=xtol, rtol=rtol)
        return x, xtol + rtol * abs(x), True
    for _ in range(steps):
        if hi - lo <= max(xtol, rtol * hi):
            break
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), 0.5 * (hi - lo), True


def _radial_critical_value(k, p, alpha):
    """c for finite p > 0 from one zero-shift radial CDF per node count.

    If every |Z_j| <= m the p-mean is at most m, and 2k Phi-bar(m) is a small
    share of alpha, so c lies in [0, m]. The CDF G of the p-radius is built
    on [0, k^(1/p) m] and c is the root of G(k^(1/p) c) = 1 - alpha on its
    interpolant. Node counts double until the roots of n and 2n nodes agree.
    """
    m = float(norm.isf(_CV_TAIL_SHARE * alpha / (2.0 * k)))
    scale = k ** (1.0 / p)
    prev, n = None, 32
    while True:
        G = pball_radius_cdf(k, p, np.zeros(k), 1.0, scale * m, n_nodes=n)
        c = brentq(lambda x: float(G(scale * x)) - (1.0 - alpha), 0.0, m,
                   xtol=1e-14)
        if prev is not None and (abs(c - prev) <= _CV_RTOL * c
                                 or n >= _CV_MAX_NODES):
            return c
        prev, n = c, 2 * n


def _chi2_guess(k, alpha):
    return math.sqrt(chi2.ppf(1.0 - alpha, k) / k)


@functools.lru_cache(maxsize=256)
def _exact_critical_value(k, p, alpha):
    """Deterministic c, memoised per (k, p, alpha)."""
    if math.isfinite(p) and p > 0.0:
        return _radial_critical_value(k, p, alpha)
    # p <= 0 at k = 2: root of the POLAR2D tail
    zero = np.zeros(k)

    @functools.cache
    def tail(c):
        return tail_probability(k, p, c, zero,
                                target_rel_error=_QUAD_TARGET)[0]

    return _monotone_root(lambda c: alpha - tail(c), _chi2_guess(k, alpha),
                          exact=True, xtol=1e-10, rtol=1e-12)[0]


def critical_value(k, p, alpha, *, seed=0, workers=1):
    """The root c of P(<Z>_p > c) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k == 1:
        return float(norm.ppf(1.0 - alpha / 2.0))
    if p == 2.0:
        return _chi2_guess(k, alpha)
    if p == math.inf:
        return float(norm.ppf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / k))))
    if p == -math.inf:
        return float(norm.ppf(1.0 - alpha ** (1.0 / k) / 2.0))
    if _quad_path(k, p):
        return _exact_critical_value(k, p, alpha)

    zero = np.zeros(k)

    def h(c):
        return alpha - tail_probability(k, p, c, zero, seed=seed,
                                        workers=workers)[0]

    return _monotone_root(h, _chi2_guess(k, alpha), exact=False, xtol=0.0,
                          rtol=0.0, steps=40)[0]


def _probit(P):
    return float(norm.ppf(min(max(P, _PROBIT_CLIP[0]), _PROBIT_CLIP[1])))


def shift_solution(d: TestDesign, *, seed=0, workers=1, c=None):
    """Find t with P(<Z + t u>_p > c_{p,alpha}) = beta, or report that the
    power curve stays below beta (possible for p < 0)."""
    if c is None:
        c = critical_value(d.k, d.p, d.alpha, seed=seed, workers=workers)
    u = np.asarray(d.u, dtype=float)
    exact = _quad_path(d.k, d.p) or has_closed_power(d.k, d.p)
    target = _QUAD_TARGET if exact else None
    powers = {0.0: (d.alpha, 0.0)}  # t -> (power, abs error)

    def pw(t):
        if t not in powers:
            # fixed seed across all t: common random numbers on MC paths
            powers[t] = tail_probability(d.k, d.p, c, t * u, seed=seed,
                                         workers=workers,
                                         target_rel_error=target)
        return powers[t]

    if exact:
        probit_beta = _probit(d.beta)

        def h(t):
            return _probit(pw(t)[0]) - probit_beta
    else:
        def h(t):
            return pw(t)[0] - d.beta

    # Brent's bound tol * (1 + t) stays within the half-bracket
    # 0.5 * BRACKET_RTOL * max(1, t) that bisection stops at
    tol = 0.25 * BRACKET_RTOL if exact else BRACKET_RTOL
    t, t_err, found = _monotone_root(h, 1.0, lo=0.0, hi_max=T_MAX,
                                     exact=exact, xtol=tol, rtol=tol)
    achieved, err = pw(t)
    if not found:
        return ShiftSolution(False, math.nan, math.nan, achieved,
                             max(err, 1e-12))
    solver_error = max(err, abs(achieved - d.beta), t_err)
    s_norm = t * float(np.linalg.norm(u))
    return ShiftSolution(True, float(t), s_norm, achieved, solver_error)
