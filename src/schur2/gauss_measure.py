"""Gaussian measure of shifted sets: P(Z in A + theta) for Z ~ N(0, sigma^2 I).

measure divides sigma out once, P(sigma Z in A + theta) = P(Z in A/sigma +
theta/sigma), resolves the default target and takes the engine from one
table (engine); every engine then sees a standard normal and returns a value
with its bar, and measure alone judges target_met from them.
  PRODUCT_1D    p = +-inf balls and every k = 1 set, a slab or a slab pair:
                exact products of SEP's slab masses, or their union
  SEP           p-balls at k >= 2 with k^(1/p) <= 1e6, and every k = 2 set of
                finite exponents: one K27/G13 row over the largest |Y_j| of
                the slice mass, slabs at k = 2, nested Lobatto levels beyond
  MC_PLAIN /    everything else, in one Monte Carlo loop: plain draws, or
  MC_IMPORTANCE importance sampling from N(center, I) around a near member
                point when the event is rare, which the first common member
                scanned rules out; chunk-indexed streams make the estimates
                independent of the worker count, and plain draws memoise a
                p-ball's chunk p-means across eps
  POLAR2D       any set at k = 2, forced only: periodic Simpson over n rays
                from two running trapezoid means, each ray's radial integral
                in closed form on its membership intervals, found by a scan,
                the ray's two axis crossings and one bisection per block
A forced engine must be able to measure the set, or measure raises.
"""

import functools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.special import chdtrc, ndtr

from . import sets as sets_mod
from .sets import bounded_root, contains_rows

__all__ = [
    "MeasureEstimate",
    "GaussianShiftQuery",
    "measure",
    "engine",
    "METHODS",
    "rotate2",
    "pball_radius_cdf",
    "chunk_rng",
]


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    abs_error: float
    rel_error: float
    method: str  # PRODUCT_1D | SEP | MC_PLAIN | MC_IMPORTANCE | POLAR2D
    samples_or_nodes: int  # draws, rays; SEP: the nodes of every row it runs
    seed: int = None
    wall_ms: float = 0.0
    target_met: bool = True

    def to_json(self):  # the fields in order, samples_or_nodes as "nodes"
        return {"nodes" if k == "samples_or_nodes" else k: v
                for k, v in asdict(self).items()}


@dataclass(frozen=True)
class GaussianShiftQuery:
    set: "sets_mod.SetSpec"
    shift: tuple
    sigma: float = 1.0
    target_rel_error: float = None  # default 1e-4 quadrature, 1e-2 MC
    seed: int = 0
    workers: int = 1
    method: str = None  # force a specific engine (testing / fallback)
    mc_max_samples: int = 4_000_000

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        t = self.target_rel_error
        if t is not None and not (math.isfinite(t) and t > 0):
            raise ValueError("target_rel_error must be finite and positive")
        shift = np.asarray(self.shift, dtype=float)
        if shift.size != self.set.k:
            raise ValueError(
                f"shift dimension {shift.size} != set dimension {self.set.k}")
        if not np.isfinite(shift).all():
            raise ValueError("shift must be finite")
        object.__setattr__(self, "shift", tuple(float(s) for s in shift))


def rotate2(x, t):
    """Rotation of a point in the plane through angle t."""
    x = np.asarray(x, dtype=float)
    if x.size != 2:
        raise ValueError("rotate2 requires k = 2")
    c, s = math.cos(t), math.sin(t)
    return np.array([x[0] * c - x[1] * s, x[0] * s + x[1] * c])


def chunk_rng(seed, chunk):
    """Counter-based generator for one Monte Carlo chunk.

    Streams are indexed by chunk number, never by thread, so results are
    bit-identical for any worker count.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(seed=ss))


# ---------------------------------------------------------------------------
# PRODUCT_1D


def _uncomplement(S):
    """The set under a complement, and whether there was one."""
    return (S.inner, True) if S.variant == "complement" else (S, False)


def _product_capable(S):  # every k = 1 set is a slab or a slab pair
    return S.k == 1 or math.isinf(S.p)


def _product_1d(S, theta, target, q):
    """Products over the slabs lo <= |Y_j| <= hi, Y_j ~ N(theta_j, 1): lo = 0,
    hi = eps for p = +-inf balls, lo = max(a - eps, 0), hi = a + eps for the
    k = 1 set ||x| - a| <= eps (a = 0 for a ball). Each slab's masses in and
    out, _level0's or _annuli's with their _rounding bars, go through sums of
    logs to the product, the slab union's 1 - prod(out) and the complements."""
    S, comp = _uncomplement(S)
    t, a = np.abs(theta), S.a or 0.0
    lo, hi = max(a - S.eps, 0.0), a + S.eps
    (m, em), (o, eo) = (_annuli(t, (lo, hi, math.inf, math.inf), c) if lo
                        else _level0(t, hi, c, True) for c in (False, True))
    union = S.p == -math.inf and S.k > 1  # min |Y_j| <= eps: some Y_j stays
    (x, ex), (y, ey) = ((o, eo), (m, em)) if union else ((m, em), (o, eo))
    with np.errstate(divide="ignore"):  # log x from the smaller of x, 1 - x
        L = np.sum(np.where(x < 0.5, np.log(x), np.log1p(-y)))
    P = float(np.exp(L))  # the product, and its factors' relative bars
    rel = float(np.sum(np.where(x < 0.5, ex, ey) / x)) if P else 0.0
    v = float(-np.expm1(L)) if union != comp else P
    return "PRODUCT_1D", v, 1e-14 * (P * rel + v), 2 * S.k  # and v's rounding


# ---------------------------------------------------------------------------
# SEP: one outer row, over k = 2 slices or the radial CDF of p-balls


# panel ends of [0, 1], halved 32 times toward each end: below 2^-32 of an
# interval the tip panel's share is under rounding for these families' kinks
_BP = np.unique(np.r_[0.0, 1.0, (e := 0.5 ** np.arange(1.0, 33.0)), 1.0 - e])
_PANEL_V = 4.0  # widest panel in v units: 24 nodes resolve a unit density
_BAND = _PANEL_V * np.arange(-2.5, 3.0)  # cuts across theta_j +- 10
_ROW_BLOCK = 16  # radii per block: bounds the (block x nodes) temporaries
_NODES = (32, 64, 128, 256, 512)  # inner node counts, doubled until two agree
_leggauss = functools.lru_cache(maxsize=1)(np.polynomial.legendre.leggauss)


def _mesh(p, bp):
    """Gauss-Legendre nodes u (24 per panel bp of [0, 1]), weights, and the
    radius (w^p - v^p)^(1/p) at v = w u over w."""
    x, wx = _leggauss(24)
    mids, halfs = 0.5 * (bp[1:] + bp[:-1]), 0.5 * (bp[1:] - bp[:-1])
    u = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    uw = (halfs[:, None] * wx[None, :]).ravel()
    mesh = u, uw, (-np.expm1(p * np.log(u))) ** (1.0 / p)
    for a in mesh:
        a.flags.writeable = False
    return mesh


# the mesh of _BP per p, whose panels halve 32 times toward the kinks at v = 0
# (p < 1) and v = w: every radius and shift at p shares it
_profile = functools.lru_cache(maxsize=8)(functools.partial(_mesh, bp=_BP))


def _npdf(x):
    """scipy.stats.norm.pdf bit for bit, without its argument checks."""
    return np.exp(-x**2 / 2.0) / math.sqrt(2.0 * math.pi)


def _rounding(N, z):  # of N = ndtr(z), in 1e-14 units
    return N * (1 + np.clip(z, -40, 0) ** 2 / 16)


def _level0(t, w, comp=False, bar=False):
    """Level 0, P(|Y| <= w) for Y ~ N(t, 1), or P(|Y| > w) if comp, on its
    small side; with bar, also the bound on its rounding."""
    t = abs(t)  # z built where used: a level's blocks keep 3 arrays alive
    z = (lambda: np.subtract(t, w) if comp else np.subtract(w, t),
         lambda: np.subtract(-t, w))
    N0, N1 = ndtr(z[0]()), ndtr(z[1]())
    m = N0 + N1 if comp else N0 - N1
    return (m, _rounding(N0, z[0]()) + _rounding(N1, z[1]())) if bar else m


def _annuli(t, ends, comp=False):
    """P(|Y| in [a1, b1] u [a2, b2]), Y ~ N(t, 1), t >= 0, or if comp P(|Y| in
    [0, a1) u (b1, a2)), each interval on its small side, and its rounding."""
    a1, b1, a2, b2 = ends
    m = e = 0.0
    for lo, hi in ((0.0, a1), (b1, a2)) if comp else ((a1, b1), (a2, b2)):
        if np.any(np.less(lo, hi)):  # ~27 % of SEP's time; slices ~44 %
            z = np.stack(np.broadcast_arrays(lo - t, hi - t, -hi - t, -lo - t))
            z[:2] = np.where(z[0] > 0.0, -z[1::-1], z[:2])
            N = ndtr(z)
            m = m + N[1] - N[0] + N[3] - N[2]
            e = e + _rounding(N, z).sum(0)
    return m, e


def _convolve_level(G_prev, p, theta_j, ws):
    """The next running CDF at radii ws >= 0: G_j(w) = int_0^w G_{j-1}((w^p -
    v^p)^(1/p)) g(v) dv with g the density of |Z_j - theta_j|, on
    _profile(p) in fixed blocks of radii. g is below
    1e-22 off |theta_j| +- 10; a row with a panel wider than _PANEL_V there
    gets its own mesh, cut _PANEL_V apart across that band."""
    w = np.asarray(ws, dtype=float)
    band = abs(theta_j) + _BAND
    vb = w[:, None] * _BP  # panel ends in v units
    wide = ((vb[:, :-1] < band[-1]) & (vb[:, 1:] > band[0])
            & (np.diff(vb) > _PANEL_V)).any(axis=1)
    narrow, rows, B = np.flatnonzero(~wide), np.empty_like(w), _ROW_BLOCK
    for b in ([narrow[i:i + B] for i in range(0, narrow.size, B)]
              + [[i] for i in np.flatnonzero(wide)]):
        wb = w[b, None]
        u, uw, prof = (_mesh(p, np.union1d(_BP, np.clip(band / wb[0, 0], 0, 1)))
                       if wide[b[0]] else _profile(p))
        v = wb * u
        g = _npdf(v - theta_j) + _npdf(v + theta_j)
        rows[b] = (G_prev(wb * prof) * g * uw).sum(axis=1)
    return w * rows


@functools.lru_cache(maxsize=32)
def _level(p, theta, w_max, n):
    """Level len(theta) - 1 >= 1 at the Lobatto radii w of [0, w_max]: (w,
    its rows, their Chebyshev coefficients in 1 - 2 w / w_max by a DCT-I).
    The radii at n are the even ones at 2n bit for bit; level 1 keeps its
    rows there, deeper levels, over an interpolant that moved, are rebuilt."""
    w = w_max * (1.0 - np.cos(np.pi * (np.arange(n + 1) / n))) / 2.0
    rows, new = np.empty(n + 1), slice(None)
    if len(theta) == 2 and n // 2 in _NODES:
        rows[::2], new = _level(p, theta, w_max, n // 2)[1], slice(1, None, 2)
    G = functools.partial(_inner, p, theta[:-1], w_max, n)
    rows[new] = _convolve_level(G, p, theta[-1], w[new])
    ends = np.r_[0.5, np.ones(n - 1), 0.5]  # the DCT-I halves both ends
    coef = np.fft.rfft(np.r_[rows, rows[-2:0:-1]]).real * ends / n
    w.flags.writeable = rows.flags.writeable = coef.flags.writeable = False
    return w, rows, coef


def _inner(p, theta, w_max, n, w, comp=False, bar=False):
    """Level len(theta) - 1 at w, or 1 - it if comp; with bar, its rounding."""
    if len(theta) == 1:
        return _level0(theta[0], w, comp, bar)
    y = 1.0 - np.multiply(w, 2.0 / w_max)
    G = np.clip(chebval(y, _level(p, theta, w_max, n)[2]), 0.0, 1.0)
    m = 1.0 - G if comp else G
    return (m, comp * G) if bar else m


def pball_radius_cdf(k, p, theta, w_max, n_nodes=64):
    """The p-radius R = (sum |Z_j - theta_j|^p)^(1/p), k >= 2: G(w, comp=False)
    is (P(R <= w), or P(R > w) if comp; its bar; nodes) from _outer over the
    largest |theta_j|, the slice mass at y level k - 2 of _inner at n_nodes on
    [0, w_max] and radius (w^p - y^p)^(1/p); zero shifts feed inner levels."""
    if k < 2 or not (0.0 < p < math.inf):
        raise ValueError("requires k >= 2 and finite p > 0")
    *t_in, t = map(float, np.sort(np.abs(theta)))
    inner = functools.partial(_inner, p, tuple(t_in), w_max, n_nodes)

    def G(w, comp=False):
        return _outer(t, min(w, t + 14.0), w, comp, lambda y: inner(
            w * (-np.expm1(p * np.log(y / w))) ** (1.0 / p), comp, True))
    return G


def _solve(H, dH, c, lo, hi, v0=0.0):
    """Roots in [lo, hi] of H = c, H monotone there, or an end if c is out
    of range: Newton from v0 on log(H / c), or asinh(H) if H changes sign,
    bisecting off the bracket, until a step or H - c is at rounding level."""
    h_lo, h_hi = H(lo), H(hi)
    s, log = 1.0 if h_hi > h_lo else -1.0, (h_lo > 0.0) == (h_hi > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(s * c > s * h_lo, hi, lo)
        i = np.flatnonzero((s * c > s * h_lo) & (s * c < s * h_hi))
        a, b, c, v = lo, hi, c[i], np.full(c.shape, np.clip(v0, lo, hi))[i]
        for _ in range(100):
            h = H(v)
            a, b = np.where(s * h < s * c, v, a), np.where(s * h < s * c, b, v)
            vn = v - (np.log(h / c) * h if log else np.hypot(1.0, h) * (
                np.arcsinh(h) - np.arcsinh(c))) / dH(v)
            vn = np.where((a <= vn) & (vn <= b), vn, 0.5 * (a + b))
            done = ((abs(vn - v) <= 1e-15 * (1.0 + abs(v)))
                    | (abs(h - c) <= 1e-15 * abs(c)))
            x[i[done]] = vn[done]
            i, a, b, c, v = (z[~done] for z in (i, a, b, c, vn))
            if not i.size:
                break
        x[i] = v
    return x


def _sep_set(S, xb):
    """(slices, kinks, cuts, reach) at k = 2 (README, SEP): slices(y) = (a1,
    b1, a2, b2) puts (y, x) in the set for |x| in [a1, b1] u [a2, b2], in its
    complement for the rest of [0, b2]; analytic off the kinks and empty past
    reach. The cuts, where a slice end crosses xb, only resolve Y_2's mass."""
    inf, eps, x = np.inf, S.eps, (lambda v: S.eps * np.exp(v))
    if S.variant in ("hatb", "checkb"):
        p, a, hatb = S.p, S.a, S.variant == "hatb"
        d = lambda y: eps * np.maximum(  # ||x| - a| <= d(y) on the ball
            2.0 - (abs(y - a) / eps) ** p, 0.0) ** (1.0 / p)
        X = np.r_[0.0, a, xb] if hatb else a + np.r_[0.0, xb]  # kinks first
        ends = (a + np.c_[-d(X), d(X)]).ravel()  # ends at X (check-B: X - a)
        kinks, cuts = np.r_[a, ends[:2 + 2 * hatb]], ends[2 + 2 * hatb:]
        if hatb:
            return (lambda y: (np.maximum(a - d(y), 0.0), a + d(y), inf, inf)
                    ), kinks, cuts, a + d(a)
        f = lambda y: y**p + abs(y - a) ** p  # = 2 eps^p where d(y) = y
        df = lambda y: p * (y**(p - 1) + np.sign(y - a) * abs(y - a)**(p - 1))
        c = np.array([2.0 * eps**p])
        kinks = np.r_[kinks, _solve(f, df, c, 0.0, 0.5 * a),
                      _solve(f, df, c, 0.5 * a, a + d(a))]
        return (lambda y: (0.0, np.minimum(y, d(y)), y, y)), kinks, np.r_[
            cuts, xb], a + d(a)
    p, q = sorted((S.p, S.q or 0.0))[::-1]  # a p-ball is the (p, 0)-ball
    H = ((lambda v: v * np.exp(p * v)) if p == q else
         (lambda v: np.exp(p * v) - np.exp(q * v)))
    dH = ((lambda v: (p * v + 1.0) * np.exp(p * v)) if p == q else
          (lambda v: p * np.exp(p * v) - q * np.exp(q * v)))
    lo, hi = -600.0 / (abs(q) or p or 1.0), 600.0 / (abs(p) or -q or 1.0)
    vs = lo if p * q <= 0.0 else (  # where H turns, and H''(vs) (0: no turn)
        math.log(q / p) / (p - q) if p != q else -1.0 / p)
    d2 = p * math.exp(p * vs) * ((p - q) or 1.0) if p * q > 0.0 else 0.0

    def root(c, lo, hi):  # within 1 of vs, start at H's quadratic model
        with np.errstate(divide="ignore", invalid="ignore"):
            v0 = np.sqrt(2.0 * (c - H(vs)) / d2) * (1.0 if lo == vs else -1.0)
        return x(_solve(H, dH, c, lo, hi, np.where(abs(v0) <= 1, vs + v0, 0)))

    def slices(y):
        u, r = np.log(y / eps), p + q
        if p * q == 0.0:
            return 0.0, x(np.log1p(np.maximum(-np.expm1(r * u), -1.0)) / r
                          if r else -u), inf, inf
        x_lo, x_hi = root(-H(u), lo, vs), root(-H(u), vs, hi)
        return (x_lo, x_hi, inf, inf) if p > 0.0 else (0.0, x_lo, x_hi, inf)
    # kinks where -H(u) meets H at v*, its range's ends and 0; cuts at xb
    with np.errstate(over="ignore"):
        c = -H(np.r_[lo, vs, hi, 0.0, np.log(xb / eps)])
        ends = np.c_[root(c, lo, vs), (up := root(c, vs, hi))]
    return slices, *(e[e > x(lo)] for e in (ends[:4], ends[4:])), (
        up[1] if p > 0.0 else inf)


@functools.cache
def _gauss_kronrod(n):
    """The (2n + 1)-point Kronrod extension of n-point Gauss-Legendre on
    [-1, 1] (Kronrod 1965; Laurie 1997): nodes x, new at even indices, its
    weights and the Gauss weights, 0 at the new nodes. These are the roots of
    the Stieltjes polynomial E = P_(n+1) + sum c_j P_j, orthogonal to
    P_0..P_n under the weight P_n; the weights integrate P_0..P_2n."""
    leg = np.polynomial.legendre
    X, W = leg.leggauss(2 * n + 2)  # exact for the degree 3n + 1 products
    V = leg.legvander(X, n + 1)
    A = V.T @ (V * (W * V[:, n])[:, None])  # A_ij = int P_i P_j P_n
    E = np.r_[np.linalg.solve(A[:-1, :-1], -A[:-1, -1]), 1.0]  # c_j, then 1
    x, wg = np.empty(2 * n + 1), np.zeros(2 * n + 1)
    x[1::2], wg[1::2] = leg.leggauss(n)
    r = np.sort(leg.legroots(E))  # one Newton step takes them to 1 ulp
    x[::2] = r - leg.legval(r, E) / leg.legval(r, leg.legder(E))
    wk = np.linalg.solve(leg.legvander(x, 2 * n).T, np.eye(2 * n + 1)[0] * 2)
    return x, wk, wg


def _outer(t, Y, reach, comp, mass, kinks=(), cuts=(), acc=(0.0, 0.0, 0)):
    """acc + (int_0^Y g m dy + comp P(|Y_1| > Y), its bar, nodes), g the
    density of |Y_1|, Y_1 ~ N(t, 1), (m, its rounding) = mass(y): K27 on _BP's
    panels graded toward 0, Y and the kinks, cut at cuts and across t + _BAND.
    Bar: |K27 - G13|, the rounding of m and g, and the mass past Y < reach."""
    x, wk, wg = _gauss_kronrod(13)
    bp = np.unique(np.clip(np.concatenate(([0.0, Y], kinks)), 0.0, Y))
    bp = np.union1d(bp[:-1, None] + np.diff(bp)[:, None] * _BP,
                    np.clip(np.concatenate((cuts, t + _BAND)), 0.0, Y))
    mids, halfs = 0.5 * (bp[1:] + bp[:-1]), 0.5 * np.diff(bp)[:, None]
    y = (mids[:, None] + halfs * x).ravel()
    g = _npdf(y - t) + _npdf(y + t)
    K, G = ((halfs * w).ravel() * g for w in (wk, wg))
    m, e = mass(y)
    e = e + (1.0 + (y - t) ** 2 / 16.0) * m  # and g's rounding
    o = _level0(t, Y, True)  # P(|Y_1| > Y)
    err = ((Y < reach) + comp * 1e-14 * (1.0 + (Y - t) ** 2 / 16.0)) * o
    return (acc[0] + K @ m + comp * o,
            acc[1] + abs((K - G) @ m) + 1e-14 * K @ e + err, acc[2] + y.size)


def _sep(S, theta, target, q):
    """_outer over the largest |theta_j|. p-balls with bounded_root run
    pball_radius_cdf, at k >= 3 doubling inner nodes until two values agree
    within max(target / 10, 1e-13 / value) relative, the gap joining the bar;
    other k = 2 sets the N(theta_2, 1) mass of _sep_set's slices (check-B
    sums over the larger coordinate)."""
    S, comp = _uncomplement(S)
    if S.variant == "pball" and bounded_root(S.k, S.p):
        w, nodes, prev = S.k ** (1.0 / S.p) * S.eps, 0, math.nan
        for n in _NODES[:1 if S.k == 2 else None]:
            value, err, rows = pball_radius_cdf(S.k, S.p, theta, w, n)(w, comp)
            nodes, gap = nodes + rows, abs(value - prev)
            if gap <= max(0.1 * target * value, 1e-13):
                break
            prev = value
        return "SEP", value, err + (gap if S.k > 2 else 0.0), nodes
    t = np.sort(np.abs(theta))[::-1]  # every symmetry image: the same bits
    checkb = S.variant == "checkb"
    value = err = nodes = 0
    for t_out, t_in in (t, t[::-1])[:1 + checkb]:
        xb = t_in + _BAND
        slices, kinks, cuts, reach = _sep_set(S, xb[xb > 0.0])
        Y = min(reach, t[0] + 14.0)
        with np.errstate(divide="ignore", over="ignore"):  # slice ends at inf
            value, err, nodes = _outer(  # |Y_2|'s slabs, and the tail below
                t_out, Y, Y, False, lambda y: _annuli(t_in, slices(y), comp),
                kinks, cuts, (value, err, nodes))
    o, e = _level0(t, Y, True, True)  # P(|Y_j| > Y), all in the complement
    tail, e = ((o[0] + o[1] - o[0] * o[1], e[0] + e[1] * (1.0 - o[0]))
               if checkb else (o[0], e[0]))  # e[0] >= o[0] bars rounding too
    err += (Y < reach) * tail + comp * 1e-14 * e
    return "SEP", value + comp * tail, err, nodes


def _sep_capable(S):  # finite exponents: every k = 2 set, bounded_root p-balls
    return (S.k > 1 and math.isfinite(S.p)
            and (S.k == 2 or S.variant == "pball" and bounded_root(S.k, S.p)))


# ---------------------------------------------------------------------------
# POLAR2D


_N_SCAN = 1024  # uniform scan radii per ray
_BISECT_ITERS = 48
_PHI_CHUNK = 512  # rays per block, scanned and bisected together


def _radial_mass_batch(S, theta, phis, rho_max):
    """Radial Gaussian mass along many rays: per membership interval [a, b]
    of a ray, exp(-a^2/2) - exp(-b^2/2). Each block of _PHI_CHUNK rays finds
    its intervals by a scan of _N_SCAN radii and the two radii where a ray
    crosses the shifted axis lines x = theta_1, y = theta_2 (a coordinate is
    0 there, inside every arm of the q < 0 and p <= 0 families, however far
    below the scan resolution it hugs), then polishes their ends by one
    vectorized bisection."""
    def member(rho, cos_ph, sin_ph):
        pts = np.stack((rho * cos_ph - theta[0], rho * sin_ph - theta[1]), -1)
        return contains_rows(S, pts.reshape(-1, 2)).reshape(rho.shape)

    rho_base = np.linspace(0.0, rho_max, _N_SCAN)
    out = np.zeros(phis.size)
    for start in range(0, phis.size, _PHI_CHUNK):
        ph = phis[start:start + _PHI_CHUNK]
        cos_ph, sin_ph = np.cos(ph), np.sin(ph)
        with np.errstate(divide="ignore", invalid="ignore"):
            hints = np.stack([theta[0] / cos_ph, theta[1] / sin_ph], axis=1)
        hints[~np.isfinite(hints) | (hints <= 0) | (hints >= rho_max)] = 0.0
        rho = np.sort(np.concatenate([np.broadcast_to(
            rho_base, (ph.size, _N_SCAN)), hints], axis=1), axis=1)
        mem = member(rho, cos_ph[:, None], sin_ph[:, None])
        iphi, irho = np.nonzero(mem[:, 1:] != mem[:, :-1])
        lo, hi, inside_lo = rho[iphi, irho], rho[iphi, irho + 1], mem[iphi, irho]
        cos_x, sin_x = cos_ph[iphi], sin_ph[iphi]
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            take_lo = member(mid, cos_x, sin_x) == inside_lo
            lo, hi = np.where(take_lo, mid, lo), np.where(take_lo, hi, mid)
        sign = np.where(inside_lo, -1.0, 1.0)  # leaving ends, entering starts
        np.add.at(out, start + iphi, sign * np.exp(-(0.5 * (lo + hi))**2 / 2.0))
        out[start:start + ph.size] += mem[:, 0]  # inside at rho = 0: weight 1
    return out


_POLAR_MAX_PANELS = 1 << 14


def _polar2d(S, theta, target, q):
    """Simpson on periodic data, S_n = (4 T_n - T_(n/2)) / 3, from the mean
    radial masses T_n of n rays 2 pi i / n; a doubling adds the midpoint rays,
    T_2n = (T_n + their mean) / 2, until two S agree. nodes: distinct rays."""
    rho_max = float(np.linalg.norm(theta)) + 40.0
    n = 512
    vals = _radial_mass_batch(S, theta, math.tau / n * np.arange(n), rho_max)
    t_half, t_n = vals[::2].mean(), vals.mean()
    value = (4.0 * t_n - t_half) / 3.0
    while True:
        mids = math.pi / n * np.arange(1, 2 * n, 2)
        t_half, n = t_n, 2 * n
        t_n = 0.5 * (t_n + _radial_mass_batch(S, theta, mids, rho_max).mean())
        prev, value = value, (4.0 * t_n - t_half) / 3.0
        err = abs(value - prev)
        if err <= 0.2 * target * max(value, 1e-300) or n >= _POLAR_MAX_PANELS:
            break
    return "POLAR2D", value, max(err, 1e-15 * value), n


# ---------------------------------------------------------------------------
# Monte Carlo


@functools.lru_cache(maxsize=None)
def _pool(pid, workers):
    """One pool per process and worker count: a fork copies no threads."""
    return ThreadPoolExecutor(max_workers=workers)


_MC_CHUNK = 1 << 15
_MC_ROUND = 8  # chunks per convergence check
MC_ROUND_DRAWS = _MC_ROUND * _MC_CHUNK  # draws per convergence check
_DRAWS = threading.local()  # one draw buffer per thread, see _chunk_draws


def _nearest_member_point(S, theta, seed=0, forced=False):
    """Approximate point of S + theta closest to the origin, to centre
    importance draws on; None for plain draws, when no member is found or,
    unless forced, N(0, I) puts mass >= 1e-6 outside its ball.

    Multi-start: radial scans along the axes, the diagonals, and the shift
    direction, followed by a shrink-and-slide descent on the norm, which
    never lengthens a point: the first common member scanned decides.
    """
    def plain(y):
        return not forced and chdtrc(S.k, np.linalg.norm(y)**2) >= 1e-6

    best, diag = None, np.ones(S.k) / math.sqrt(S.k)
    starts = [*np.eye(S.k), *-np.eye(S.k), diag, -diag]
    tn = np.linalg.norm(theta)
    if tn > 0:
        starts.append(theta / tn)
    if sets_mod.contains(S, -theta):  # origin itself is in S + theta
        return None if plain(np.zeros(S.k)) else np.zeros(S.k)
    rho = np.linspace(0.0, float(tn) + 40.0, 4096)
    for d in starts:
        pts = rho[:, None] * d[None, :] - theta[None, :]
        mem = contains_rows(S, pts)
        if not mem.any():
            continue
        cand = rho[np.argmax(mem)] * d  # the first member on the ray
        if plain(cand):
            return None
        if best is None or np.linalg.norm(cand) < np.linalg.norm(best):
            best = cand
    if best is None:
        return None
    rng = np.random.default_rng(seed)
    y = best.copy()
    step = 0.25
    for _ in range(400):
        trial = y * (1.0 - step)
        if sets_mod.contains(S, trial - theta):
            y = trial
            continue
        tang = rng.standard_normal(S.k)
        tang -= tang @ y * y / max(y @ y, 1e-300)
        trial = y + step * np.linalg.norm(y) * tang / max(np.linalg.norm(tang), 1e-300)
        if np.linalg.norm(trial) < np.linalg.norm(y) and sets_mod.contains(S, trial - theta):
            y = trial
        else:
            step *= 0.9
        if step < 1e-10:
            break
    return None if plain(y) else y


def _chunk_draws(seed, chunk, shift):
    """A chunk's (_MC_CHUNK, k) normals plus the shift, of size k, in its
    thread's one draw buffer, made for the k it last drew at and overwritten
    by its next chunk."""
    if getattr(_DRAWS, "k", None) != shift.size:
        _DRAWS.k, _DRAWS.buf = shift.size, np.empty((_MC_CHUNK, shift.size))
    Z = chunk_rng(seed, chunk).standard_normal(out=_DRAWS.buf)
    return np.add(Z, shift, out=Z)


@functools.lru_cache(maxsize=_MC_ROUND)
def _pball_means(seed, chunk, k, p, theta_bytes):
    """p-means of a chunk's rows Z - theta, reused by a sweep over eps."""
    theta = np.frombuffer(theta_bytes)
    stat = sets_mod.p_mean_rows(_chunk_draws(seed, chunk, -theta), p)
    stat.flags.writeable = False
    return stat


def _mc(S, theta, target, q):
    """Monte Carlo estimate of the measure: plain draws from N(0, I), or
    importance sampling from N(center, I) around the nearest member point
    found. Importance sampling runs when forced, or when the event is rare:
    N(0, I) puts mass < 1e-6 outside the ball of radius |center|.

    Plain draws keep the variance floor 1/n, so a run with no hits is never
    reported as exact; the importance weights need no floor.
    """
    center = None if q.method == "MC_PLAIN" else _nearest_member_point(
        S, theta, q.seed, q.method == "MC_IMPORTANCE")

    def worker(chunk):  # Z - theta is Z + (-theta) bit for bit
        if center is None:  # 0/1 weights: sum and sum of squares agree
            hits = int(np.count_nonzero(
                _pball_means(q.seed, chunk, S.k, S.p, theta.tobytes()) <= S.eps
                if S.variant == "pball" else
                contains_rows(S, _chunk_draws(q.seed, chunk, -theta))))
            return hits, hits
        X = _chunk_draws(q.seed, chunk, center)
        w = np.exp((center @ center - 2.0 * X @ center) / 2.0)
        w *= contains_rows(S, np.subtract(X, theta, out=X))
        return float(w.sum()), float((w * w).sum())

    chunk_map = map if q.workers == 1 else _pool(os.getpid(), q.workers).map
    s1 = s2 = n = 0
    while True:
        first = n // _MC_CHUNK
        parts = list(chunk_map(worker, range(first, first + _MC_ROUND)))
        s1 += sum(p[0] for p in parts)
        s2 += sum(p[1] for p in parts)
        n += MC_ROUND_DRAWS
        mean = s1 / n
        var = (max(mean * (1.0 - mean), 1.0 / n) if center is None
               else max(s2 / n - mean * mean, 0.0))
        err = 2.0 * math.sqrt(var / n)
        if _target_met(mean, err, target) or n >= q.mc_max_samples:
            method = "MC_PLAIN" if center is None else "MC_IMPORTANCE"
            return method, mean, err, n


# ---------------------------------------------------------------------------
# dispatch


# (methods, default target, capable, run) in the order of automatic
# dispatch; a forced method takes the row that names it, and a row past
# Monte Carlo's, which measures anything, runs only when forced. capable(S)
# sees the set under any complement, run(S, theta, target, q) the set and
# shift divided by sigma; only Monte Carlo reads q, for its seed, workers,
# sample cap and forced variant. run returns (method, value, abs_error,
# nodes); measure alone judges the target.
_ENGINES = (
    (("PRODUCT_1D",), 1e-4, _product_capable, _product_1d),
    (("SEP",), 1e-4, _sep_capable, _sep),
    (("MC", "MC_PLAIN", "MC_IMPORTANCE"), 1e-2, lambda S: True, _mc),
    (("POLAR2D",), 1e-4, lambda S: S.k == 2, _polar2d),
)
METHODS = tuple(m for row in _ENGINES for m in row[0])


def _target_met(value, abs_error, target):
    """The accuracy verdict: a positive value within its relative target."""
    return bool(0.0 < value and abs_error <= target * value)


def engine(S, method=None):
    """The _ENGINES row that measures S: the first capable one, or the one
    that names a forced method, if it is capable."""
    inner = _uncomplement(S)[0]
    for row in _ENGINES:
        if method in (None, *row[0]) and row[2](inner):
            return row
    raise ValueError(f"engine {method!r} cannot measure "
                     f"{sets_mod.format_set(S)} at k={S.k}")


def measure(q):
    """Estimate P(Z in A + shift) for Z ~ N(0, sigma^2 I_k). target_met is
    judged here, for every engine, on the clipped value and its bar."""
    t0 = time.perf_counter()
    S = sets_mod.scale(q.set, 1.0 / q.sigma)
    theta = np.asarray(q.shift, dtype=float) / q.sigma
    _, default_target, _, run = engine(q.set, q.method)
    target = q.target_rel_error or default_target
    method, value, err, nodes = run(S, theta, target, q)

    value, err = float(min(max(value, 0.0), 1.0)), float(err)
    wall = (time.perf_counter() - t0) * 1e3
    return MeasureEstimate(value, err, err / max(value, 1e-300), method, nodes,
                           seed=q.seed, wall_ms=wall,
                           target_met=_target_met(value, err, target))
