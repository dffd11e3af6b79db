"""Critical values and power-matching shifts for p-mean tests.

The test rejects when the p-mean of |Z + shift| exceeds a critical value c.
critical_value calibrates c so the size at shift 0 equals alpha; shift_solution
finds the scalar t with power beta along a fixed direction u, relying on the
strict monotonicity of the power curve in t.

How c and t are found, past the closed forms (k = 1, p = 2, p = +-inf):
  - c at k = 2: M_p is 1-homogeneous, so the zero-shift tail is, in polar
    coordinates, (4/pi) int_0^(pi/4) exp(-c^2 / (2 M_p(cos, sin)^2)).
  - c at k >= 3 if bounded_root(k, p): P(R > k^(1/p) c) = alpha for the
    zero-shift p-radius R, on SEP's row over nested Lobatto levels; a node
    doubling brackets its root within 1e-6 of the last. Neither calls measure.
  - deterministic paths: Brent's method on Phi^-1(P(t)) - Phi^-1(beta),
    nearly linear in t, every evaluation memoised, from the p = 2 shift
    ||s_2|| / ||u|| (5.3 measures per solve); solver_error is in t units,
    through the secant of the final bracket.
  - Monte Carlo paths (where gauss_measure.engine takes the p-ball to Monte
    Carlo: the other finite p at k >= 3): bisection from t = 1, which a
    nearer start would not shorten, with a fixed seed at every trial point:
    common random numbers, each chunk reduced once. A shift trial keeps the
    sign of one round of draws if beta lies 3 bars off it; else its full
    measure reuses that round, keeping every bit.
  - deterministic c is memoised per (k, p, alpha), so the directions of one
    design share a single solve.
Both solvers use one monotone root finder, which evaluates each point once;
every Brent root, of c or of t, comes from brentq, a port of scipy's.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, chdtri, chndtr, chndtrinc, gammaincinv, ndtri
from scipy.special._ufuncs import _ncx2_sf  # what scipy.stats.ncx2.sf calls

from .gauss_measure import (MC_ROUND_DRAWS, GaussianShiftQuery, _profile,
                            _NODES, engine, measure, pball_radius_cdf)
from .means import p_mean, p_mean_rows
from .sets import complement, p_ball

T_MAX = 1e3
BRACKET_RTOL = 1e-7
_QUAD_TARGET = 1e-7
_GROW_STEPS = 60  # bracket halvings or doublings
_CV_TAIL_SHARE = 1e-3  # P(p-mean > m) / alpha bound at the domain end m
_CV_RTOL = 1e-10  # agreement of the roots from n and 2n radial-CDF nodes
_PROBIT_CLIP = (1e-300, 1.0 - 2.0**-53)  # keeps Phi^-1 finite at 0 and 1


def normalize_direction(u):
    """Scale u so its quadratic mean is 1 (not the Euclidean norm)."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("direction must be finite")
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
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if math.isnan(self.p):
            raise ValueError("p must not be NaN")
        if not 0.0 < self.alpha < self.beta < 1.0:
            raise ValueError("need 0 < alpha < beta < 1")
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.k,):
            raise ValueError("direction length must equal k")
        if not abs(p_mean(u, 2.0) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("direction must be finite with quadratic mean 1")
        object.__setattr__(self, "u", tuple(float(x) for x in u))


@dataclass(frozen=True)
class ShiftSolution:
    exists: bool
    t: float
    norm: float
    achieved_power: float
    solver_error: float
    target_met: bool  # every full measure of the solve met its target


def tail_probability(k, p, c, shift, *, seed=0, workers=1,
                     target_rel_error=None,
                     mc_max_samples=GaussianShiftQuery.mc_max_samples):
    """P(<Z + shift>_p > c), its absolute error and target_met: ncx2 at p = 2,
    else the measure of the ball's complement, on its small side. Monte Carlo
    paths measure the ball, whose chunk p-means every c shares."""
    s = np.asarray(shift, dtype=float)
    if p == 2.0:  # as ncx2.sf: chi2 at nc = 0 and off (0, inf), NaN at nc NaN
        x, nc = k * c * c, float(s @ s)
        ncx2 = nc != 0.0 and (0.0 < x < math.inf or math.isnan(nc))
        with np.errstate(over="ignore"):  # as scipy.stats runs _ncx2_sf
            try:
                sf = _ncx2_sf(x, k, nc) if ncx2 else chdtrc(k, x)
            except OverflowError:  # boost's tgamma, at x ~ 0 and a large nc
                sf = 1.0 - chndtr(x, k, nc)
        return float(sf), 0.0, True
    mc = _mc_path(k, p)
    S = p_ball(k, p, c)
    est = measure(GaussianShiftQuery(set=S if mc else complement(S), shift=-s,
                                     seed=seed, workers=workers,
                                     target_rel_error=target_rel_error,
                                     mc_max_samples=mc_max_samples))
    return 1.0 - est.value if mc else est.value, est.abs_error, est.target_met


def _s2_norm(k, alpha, beta):
    """||s_2|| depends only on alpha, beta, k (spherical symmetry): its
    square is the ncx2 noncentrality with power beta at k c_2^2."""
    return math.sqrt(chndtrinc(chdtri(k, alpha), k, 1.0 - beta))


def _mc_path(k, p):  # whether measure takes the p-balls to Monte Carlo
    return engine(p_ball(k, p, 1.0))[0][0] == "MC"


def brentq(f, a, b, xtol, rtol=4.0 * 2.0**-52):
    """A root of f on [a, b] by Brent's method (Brent 1973, ch. 4), step for
    step as in scipy's brentq.c, so every iterate keeps its bits. ValueError
    if f(a), f(b) share a sign or f is NaN; RuntimeError after 100 steps."""
    def fn(x):
        if math.isnan(fx := f(x)):
            raise ValueError(f"f({x:g}) is NaN; the root search cannot go on")
        return fx

    xpre, xcur, fpre, fcur = a, b, fn(a), fn(b)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):  # the first step sets xblk, fblk, spre and scur
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur takes the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta, sbis = (xtol + rtol * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation takes a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fn(xcur)
    raise RuntimeError("Brent's method did not converge in 100 steps")


def _monotone_root(h, x0, *, exact, xtol, rtol, steps=200, lo=None,
                   hi_max=math.inf):
    """Root of an increasing function h, searched from x0 > 0.

    Bracket: unless the caller knows a point lo with h(lo) < 0, halve x0
    until h < 0. Then double from x0 until h >= 0 or hi_max is reached, lo
    trailing the doubling. Refine: Brent when h is deterministic;
    otherwise bisection, robust to correlated Monte Carlo noise, for at most
    `steps` halvings or until hi - lo <= max(xtol, rtol * hi).

    Returns (x, err, found): the root and a bound on |x - root|, or
    (hi_max, inf, False) when h(hi_max) < 0. Raises RuntimeError when no
    sign change appears within _GROW_STEPS doublings. h is memoised, so the
    bracket search measures x0 once.
    """
    h = functools.lru_cache(maxsize=None)(h)
    if lo is None:
        lo = x0
        for _ in range(_GROW_STEPS):
            if h(lo) < 0.0:
                break
            lo *= 0.5
    hi = x0
    for _ in range(_GROW_STEPS):
        h_hi = h(hi)
        if h_hi >= 0.0 or hi >= hi_max:
            break
        lo, hi = hi, min(2.0 * hi, hi_max)
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
        lo, hi = (mid, hi) if h(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi), 0.5 * (hi - lo), True


@functools.lru_cache(maxsize=256)
def _exact_critical_value(k, p, alpha):
    """c at k = 2 from the polar tail on the nodes of _profile, or at k >= 3
    from the radial CDF's small-side tail, levels on [0, k^(1/p) m], doubling
    inner nodes until two roots agree; memoised per (k, p, alpha). c is in
    [0, m]: M_p <= m if every |Z_j| <= m, and 2k Phi-bar(m) = 1e-3 alpha."""
    m = float(-ndtri(_CV_TAIL_SHARE * alpha / (2.0 * k)))
    if k == 2:
        u, w = _profile(1.0)[:2]  # p shapes only its radii
        phi = 0.25 * math.pi * u
        M = p_mean_rows(np.stack((np.cos(phi), np.sin(phi)), axis=1), p)
        return brentq(lambda c: float(w @ np.exp(-0.5 * (c / M) ** 2))
                      - alpha, 0.0, m, xtol=1e-14)
    scale, c = k ** (1.0 / p), None
    for n in _NODES:
        G = pball_radius_cdf(k, p, np.zeros(k), scale * m, n_nodes=n)
        f = functools.lru_cache(lambda x: G(scale * x, True)[0] - alpha)
        if f(m) >= 0.0:  # the levels' error at n reaches alpha
            raise ValueError(f"alpha = {alpha:g} is below what c resolves")
        a, b = (0.0, m) if c is None else (c - 1e-6, c + 1e-6)
        if (f(a) < 0.0) == (f(b) < 0.0):  # no root next to the last one
            a, b = 0.0, m
        prev, c = c, brentq(f, a, b, xtol=1e-14)
        if prev is not None and abs(c - prev) <= _CV_RTOL * c:
            break
    return c


def critical_value(k, p, alpha, *, seed=0, workers=1):
    """The root c of P(<Z>_p > c) = alpha."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if math.isnan(p):
        raise ValueError("p must not be NaN")
    if workers < 1:  # the closed forms build no query, which checks it too
        raise ValueError("workers must be at least 1")
    # closed forms on their small side: tail quantiles, never 1 - alpha
    if k == 1:
        return float(-ndtri(alpha / 2.0))
    if p == 2.0:
        return math.sqrt(chdtri(k, alpha) / k)
    if p == math.inf:  # every |Z_j| <= c with probability 1 - alpha
        return float(-ndtri(-0.5 * math.expm1(math.log1p(-alpha) / k)))
    if p == -math.inf:  # every |Z_j| > c with probability alpha
        return float(-ndtri(0.5 * math.exp(math.log(alpha) / k)))
    if not _mc_path(k, p):
        return _exact_critical_value(k, p, alpha)

    def h(c):
        return alpha - tail_probability(k, p, c, np.zeros(k), seed=seed,
                                        workers=workers)[0]

    x0 = math.sqrt(2.0 * gammaincinv(k / 2, 1.0 - alpha) / k)  # the p = 2 c
    return _monotone_root(h, x0, exact=False, xtol=0.0, rtol=0.0, steps=40)[0]


def _probit(P):
    return float(ndtri(min(max(P, _PROBIT_CLIP[0]), _PROBIT_CLIP[1])))


def shift_solution(d: TestDesign, *, seed=0, workers=1, c=None):
    """Find t with P(<Z + t u>_p > c_{p,alpha}) = beta, or report that the
    power curve stays below beta (possible for p < 0)."""
    if workers < 1:  # the closed forms build no query, which checks it too
        raise ValueError("workers must be at least 1")
    if c is None:
        c = critical_value(d.k, d.p, d.alpha, seed=seed, workers=workers)
    u = np.asarray(d.u, dtype=float)
    exact = not _mc_path(d.k, d.p)
    target = _QUAD_TARGET if exact else None
    powers = {0.0: (d.alpha, 0.0, True)}  # t -> (power, abs error, met)
    probes = {}  # Monte Carlo: t -> the same from one round of draws

    def pw(t, memo=powers, cap=GaussianShiftQuery.mc_max_samples):
        if t not in memo:
            # fixed seed across all t: common random numbers on MC paths
            memo[t] = tail_probability(d.k, d.p, c, t * u, seed=seed,
                                       workers=workers,
                                       target_rel_error=target,
                                       mc_max_samples=cap)
        return memo[t]

    if exact:
        probit_beta = _probit(d.beta)

        def h(t):
            return _probit(pw(t)[0]) - probit_beta
    else:
        def h(t):
            P, err, _ = pw(t, probes, MC_ROUND_DRAWS)
            if abs(P - d.beta) <= 3.0 * err:  # the sign is not settled yet
                P = pw(t)[0]
            return P - d.beta

    # Brent's bound tol * (1 + t) stays within the half-bracket
    # 0.5 * BRACKET_RTOL * max(1, t) that bisection stops at
    tol = 0.25 * BRACKET_RTOL if exact else BRACKET_RTOL
    norm_u = float(np.linalg.norm(u))
    t0 = _s2_norm(d.k, d.alpha, d.beta) / norm_u if exact else 1.0
    t, t_err, found = _monotone_root(h, t0, lo=0.0, hi_max=T_MAX,
                                     exact=exact, xtol=tol, rtol=tol)
    achieved, err, _ = pw(t)
    met = all(m for _, _, m in powers.values())
    if not found:
        return ShiftSolution(False, math.nan, math.nan, achieved,
                             max(err, 1e-12), met)
    solver_error = max(err, abs(achieved - d.beta))
    if exact:  # into t units: the secant of the powers that bracket the root
        lo = max(x for x, (P, _, _) in powers.items() if P < d.beta)
        hi = min(x for x, (P, _, _) in powers.items() if P >= d.beta)
        solver_error *= (hi - lo) / (powers[hi][0] - powers[lo][0])
    return ShiftSolution(True, float(t), t * norm_u, achieved,
                         max(solver_error, t_err), met)
