"""Gaussian measure of shifted sets: P(Z in A + theta) for Z ~ N(0, sigma^2 I).

Method dispatch:
  PRODUCT_1D    cubes and the p = +-inf balls (coordinatewise product, exact)
  SLICE_QUAD    p-balls with finite p > 0 at any dimension: the membership
                condition is a sum of independent one-dimensional pieces
                sum |Y_j|^p <= k eps^p, so the probability is built by k-1
                sequential one-dimensional convolutions of the running CDF,
                represented in the radius variable w = s^(1/p) where it is
                smooth and Chebyshev interpolation converges fast
  POLAR2D       any set at k = 2: adaptive Simpson over the angle with the
                radial integral done in closed form on membership intervals
  MC_PLAIN /    everything else; chunk-indexed counter-based streams make the
  MC_IMPORTANCE estimates independent of the worker count
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.interpolate import RegularGridInterpolator
from scipy.stats import chi2, norm

from . import sets as sets_mod
from .sets import contains_rows

__all__ = [
    "MeasureEstimate",
    "GaussianShiftQuery",
    "measure",
    "rotate2",
    "smooth",
    "GridFunction",
    "pball_radius_cdf",
    "chunk_rng",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    abs_error: float
    rel_error: float
    method: str  # PRODUCT_1D | SLICE_QUAD | POLAR2D | MC_PLAIN | MC_IMPORTANCE
    samples_or_nodes: int
    seed: int = None
    wall_ms: float = 0.0
    target_met: bool = True

    def to_json(self):
        return {
            "value": self.value,
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "method": self.method,
            "nodes": self.samples_or_nodes,
            "seed": self.seed,
            "wall_ms": self.wall_ms,
            "target_met": self.target_met,
        }


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
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        shift = np.asarray(self.shift, dtype=float)
        if shift.size != self.set.k:
            raise ValueError(
                f"shift dimension {shift.size} != set dimension {self.set.k}")
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


def _product_core(S, theta, sigma):
    """Exact value for cubes and +-inf balls (no complement wrapper)."""
    theta = np.asarray(theta, dtype=float)
    if S.variant == "cube":
        a = S.a
    elif S.variant == "pball" and S.p in (math.inf, -math.inf):
        a = S.eps
    else:
        raise ValueError("not a product-form set")
    per_coord = norm.cdf((a + theta) / sigma) - norm.cdf((-a + theta) / sigma)
    if S.variant == "pball" and S.p == -math.inf:
        # min |Y_j| <= a  <=>  not all coordinates escape the slab
        return 1.0 - np.prod(1.0 - per_coord)
    return float(np.prod(per_coord))


def _product_capable(S):
    inner = S.inner if S.variant == "complement" else S
    return inner.variant == "cube" or (
        inner.variant == "pball" and inner.p in (math.inf, -math.inf))


def _product_1d(q):
    S, comp = q.set, False
    if S.variant == "complement":
        S, comp = S.inner, True
    v = _product_core(S, q.shift, q.sigma)
    if comp:
        v = 1.0 - v
    err = 1e-14 * S.k
    return v, err, 2 * S.k


# ---------------------------------------------------------------------------
# SLICE_QUAD


def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


_GLX, _GLW = _gl_nodes(24)


def _graded_breakpoints(w, levels=48):
    """Panel breakpoints on [0, w], geometrically refined toward both ends
    (the integrand has algebraic kinks at v = 0 for p < 1 and at v = w)."""
    left = w * 0.5 * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))
    right = w - left[::-1]
    return np.concatenate(([0.0], left, right[1:], [w]))


def _unit_mesh():
    """Composite Gauss-Legendre nodes and weights on [0, 1], graded mesh."""
    bp = _graded_breakpoints(1.0)
    mids = 0.5 * (bp[1:] + bp[:-1])
    halfs = 0.5 * (bp[1:] - bp[:-1])
    u = (mids[:, None] + halfs[:, None] * _GLX[None, :]).ravel()
    uw = (halfs[:, None] * np.broadcast_to(_GLW, (mids.size, _GLW.size))).ravel()
    return u, uw


_UNIT_U, _UNIT_W = _unit_mesh()  # ~2,350 nodes, scaled per radius w
_ROW_BLOCK = 16  # radii per block: bounds the (block x nodes) temporaries


def _convolve_level(G_prev, p, theta_j, sigma, ws):
    """One convolution step: values of the next running CDF at radii ws.

    G_j(w) = int_0^w G_{j-1}((w^p - v^p)^(1/p)) g(v) dv with g the density of
    |Z_j - theta_j|; composite Gauss-Legendre on a graded mesh. Radii are
    taken in fixed blocks; each row's sum is independent of the others.
    """
    ws = np.asarray(ws, dtype=float)
    out = np.zeros_like(ws)
    pos = ws > 0
    if not pos.any():
        return out
    wpos = ws[pos]
    sums = np.empty_like(wpos)
    for i in range(0, wpos.size, _ROW_BLOCK):
        wb = wpos[i:i + _ROW_BLOCK]
        v = wb[:, None] * _UNIT_U[None, :]
        rad = np.clip(wb[:, None] ** p - v**p, 0.0, None) ** (1.0 / p)
        g = (norm.pdf((v - theta_j) / sigma) + norm.pdf((v + theta_j) / sigma)) / sigma
        sums[i:i + _ROW_BLOCK] = (G_prev(rad) * g * _UNIT_W[None, :]).sum(axis=1)
    out[pos] = wpos * sums
    return out


def pball_radius_cdf(k, p, theta, sigma, w_max, n_nodes=64):
    """CDF of the p-radius (sum |Z_j - theta_j|^p)^(1/p) on [0, w_max].

    Returns a vectorized callable G with G(w) = P(radius <= w), built by
    sequential convolution with Chebyshev representation of each level.
    """
    if not (0.0 < p < math.inf):
        raise ValueError("requires finite p > 0")
    theta = np.asarray(theta, dtype=float)

    def g1(w):
        w = np.asarray(w, dtype=float)
        return norm.cdf((w + theta[0]) / sigma) - norm.cdf((-w + theta[0]) / sigma)

    G = g1
    for j in range(1, k):
        level = Chebyshev.interpolate(
            lambda ws, Gp=G, tj=theta[j]: _convolve_level(Gp, p, tj, sigma, ws),
            n_nodes, domain=[0.0, w_max])
        G = lambda w, lv=level: np.clip(lv(np.asarray(w, dtype=float)), 0.0, 1.0)
    return G


def _slice_capable(S):
    inner = S.inner if S.variant == "complement" else S
    return inner.variant == "pball" and 0.0 < inner.p < math.inf


def _slice_quad(q):
    S, comp = q.set, False
    if S.variant == "complement":
        S, comp = S.inner, True
    k, p = S.k, S.p
    theta = np.asarray(q.shift, dtype=float)
    w_eval = k ** (1.0 / p) * S.eps
    target = q.target_rel_error if q.target_rel_error is not None else 1e-4

    prev, nodes_used = None, 0
    n = 32
    while True:
        G = pball_radius_cdf(k, p, theta, q.sigma, w_eval, n_nodes=n)
        val = float(G(w_eval))
        nodes_used += n
        if prev is not None:
            err = abs(val - prev)
            scale = max(val, 1e-300)
            if err <= max(0.1 * target * scale, 1e-13) or n >= 512:
                break
        prev = val
        n *= 2
    if comp:
        val = 1.0 - val
    met = err <= target * max(abs(val), 1e-300) + 1e-13
    return val, max(err, 1e-15), nodes_used, met


# ---------------------------------------------------------------------------
# POLAR2D


_HINT_OFFSETS = np.concatenate([
    [0.0], 10.0 ** -np.arange(1.0, 14.0), -(10.0 ** -np.arange(1.0, 14.0))])


def _axis_hint_radii(theta, cos_ph, sin_ph, rho_max):
    """Probe radii clustered where each ray crosses the shifted axis lines
    x = theta_1 and y = theta_2; the unbounded q < 0 families have arms that
    hug those lines at widths far below any uniform scan resolution."""
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.stack([theta[0] / cos_ph, theta[1] / sin_ph], axis=1)  # (m,2)
    hints = base[:, :, None] + _HINT_OFFSETS[None, None, :]
    hints = hints.reshape(base.shape[0], -1)
    bad = ~np.isfinite(hints) | (hints <= 0.0) | (hints >= rho_max)
    return np.where(bad, 0.0, hints)  # rho=0 duplicates are harmless


def _radial_mass_batch(S, theta, phis, rho_max, sigma,
                       n_scan=1024, bisect_iters=48, phi_chunk=256):
    """Radial Gaussian mass along many rays at once.

    mass(phi) = sum over membership intervals [a,b] of the ray of
    exp(-a^2/2s^2) - exp(-b^2/2s^2); intervals located by a scan of n_scan
    radii (plus axis-line hint probes) and polished by vectorized bisection
    across all crossings.
    """
    phis = np.asarray(phis, dtype=float)
    two_s2 = 2.0 * sigma * sigma
    out = np.zeros(phis.size)
    rho_base = np.linspace(0.0, rho_max, n_scan)
    for start in range(0, phis.size, phi_chunk):
        ph = phis[start:start + phi_chunk]
        m = ph.size
        cos_ph, sin_ph = np.cos(ph), np.sin(ph)
        d = np.stack([cos_ph, sin_ph], axis=1)  # (m, 2)
        hints = _axis_hint_radii(theta, cos_ph, sin_ph, rho_max)
        rho = np.sort(np.concatenate(
            [np.broadcast_to(rho_base, (m, n_scan)), hints], axis=1), axis=1)
        pts = rho[:, :, None] * d[:, None, :] - theta[None, None, :]
        mem = contains_rows(S, pts.reshape(-1, 2)).reshape(m, rho.shape[1])
        iphi, irho = np.nonzero(mem[:, 1:] != mem[:, :-1])
        lo, hi = rho[iphi, irho], rho[iphi, irho + 1]
        inside_lo = mem[iphi, irho]
        dirs = d[iphi]
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            mm = contains_rows(S, mid[:, None] * dirs - theta[None, :])
            take_lo = np.where(inside_lo, mm, ~mm)
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
        cross = 0.5 * (lo + hi)
        w = np.exp(-cross**2 / two_s2)
        sign = np.where(inside_lo, -1.0, 1.0)  # leaving ends, entering starts
        mass = np.zeros(m)
        np.add.at(mass, iphi, sign * w)
        mass += mem[:, 0]  # inside at rho = 0 opens an interval with weight 1
        out[start:start + m] = mass
    return out


def _composite_simpson(vals, h):
    return h / 3.0 * (vals[0] + vals[-1]
                      + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())


def _polar2d(q):
    S = q.set
    theta = np.asarray(q.shift, dtype=float)
    rho_max = float(np.linalg.norm(theta)) + 40.0 * q.sigma
    target = q.target_rel_error if q.target_rel_error is not None else 1e-4

    n = 512  # panels; doubled until two refinements agree
    phis = np.linspace(0.0, 2.0 * math.pi, n + 1)
    vals = _radial_mass_batch(S, theta, phis, rho_max, q.sigma)
    total_evals = phis.size
    prev = None
    while True:
        integral = _composite_simpson(vals, 2.0 * math.pi / n)
        if prev is not None:
            err = abs(integral - prev)
            if err <= 0.2 * target * max(integral, 1e-300) or n >= 1 << 14:
                break
        prev = integral
        mids = np.linspace(0.0, 2.0 * math.pi, 2 * n + 1)[1::2]
        mid_vals = _radial_mass_batch(S, theta, mids, rho_max, q.sigma)
        total_evals += mids.size
        merged = np.empty(2 * n + 1)
        merged[0::2] = vals
        merged[1::2] = mid_vals
        vals, n = merged, 2 * n
    value = integral / (2.0 * math.pi)
    err_final = max(err / (2.0 * math.pi), 1e-15 * value)
    return value, err_final, total_evals


# ---------------------------------------------------------------------------
# Monte Carlo


def _run_chunks(worker, n_chunks, workers, start=0):
    """Map worker(chunk_index) over chunk indices, reducing in chunk order."""
    idx = range(start, start + n_chunks)
    if workers <= 1:
        return [worker(i) for i in idx]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, idx))


_MC_CHUNK = 1 << 15
_MC_ROUND = 8  # chunks per convergence check


def _mc_plain(q):
    S = q.set
    theta = np.asarray(q.shift, dtype=float)
    target = q.target_rel_error if q.target_rel_error is not None else 1e-2

    def worker(chunk):
        rng = chunk_rng(q.seed, chunk)
        Z = q.sigma * rng.standard_normal((_MC_CHUNK, S.k))
        return int(np.count_nonzero(contains_rows(S, Z - theta)))

    hits, n, chunk0, met = 0, 0, 0, False
    while n < q.mc_max_samples:
        counts = _run_chunks(worker, _MC_ROUND, q.workers, start=chunk0)
        chunk0 += _MC_ROUND
        hits += sum(counts)
        n += _MC_ROUND * _MC_CHUNK
        p_hat = hits / n
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
        if p_hat > 0 and 2.0 * se <= target * p_hat:
            met = True
            break
    p_hat = hits / n
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
    return p_hat, 2.0 * se, n, met


def _scan_directions(k):
    dirs = list(np.eye(k)) + list(-np.eye(k))
    diag = np.ones(k) / math.sqrt(k)
    dirs += [diag, -diag]
    return dirs


def _nearest_member_point(S, theta, rho_max, seed=0):
    """Approximate point of S + theta closest to the origin.

    Multi-start: radial scans along the axes, the diagonals, and the shift
    direction, followed by a shrink-and-slide descent on the norm.
    """
    theta = np.asarray(theta, dtype=float)
    best = None
    starts = _scan_directions(S.k)
    tn = np.linalg.norm(theta)
    if tn > 0:
        starts.append(theta / tn)
    if sets_mod.contains(S, -theta):  # origin itself is in S + theta
        return np.zeros(S.k), 0.0
    for d in starts:
        rho = np.linspace(0.0, rho_max, 4096)
        pts = rho[:, None] * d[None, :] - theta[None, :]
        mem = contains_rows(S, pts)
        hit = np.nonzero(mem)[0]
        if hit.size == 0:
            continue
        cand = rho[hit[0]] * d
        if best is None or np.linalg.norm(cand) < np.linalg.norm(best):
            best = cand
    if best is None:
        return None, math.inf
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
    return y, float(np.linalg.norm(y))


def _mc_importance(q, center):
    S = q.set
    theta = np.asarray(q.shift, dtype=float)
    target = q.target_rel_error if q.target_rel_error is not None else 1e-2
    c2 = float(center @ center)
    two_s2 = 2.0 * q.sigma**2

    def worker(chunk):
        rng = chunk_rng(q.seed, chunk)
        X = center[None, :] + q.sigma * rng.standard_normal((_MC_CHUNK, S.k))
        w = np.exp((c2 - 2.0 * X @ center) / two_s2)
        w *= contains_rows(S, X - theta)
        return float(w.sum()), float((w * w).sum())

    s1, s2, n, chunk0, met = 0.0, 0.0, 0, 0, False
    while n < q.mc_max_samples:
        parts = _run_chunks(worker, _MC_ROUND, q.workers, start=chunk0)
        chunk0 += _MC_ROUND
        s1 += sum(p[0] for p in parts)
        s2 += sum(p[1] for p in parts)
        n += _MC_ROUND * _MC_CHUNK
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0)
        se = math.sqrt(var / n)
        if mean > 0 and 2.0 * se <= target * mean:
            met = True
            break
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    se = math.sqrt(var / n)
    return mean, 2.0 * se, n, met


# ---------------------------------------------------------------------------
# dispatch


def measure(q):
    """Estimate P(Z in A + shift) for Z ~ N(0, sigma^2 I_k)."""
    t0 = time.perf_counter()
    method = q.method
    if method is None:
        if _product_capable(q.set):
            method = "PRODUCT_1D"
        elif _slice_capable(q.set):
            method = "SLICE_QUAD"
        elif q.set.k == 2:
            method = "POLAR2D"
        else:
            method = "MC"

    met = True
    if method == "PRODUCT_1D":
        value, err, nodes = _product_1d(q)
    elif method == "SLICE_QUAD":
        value, err, nodes, met = _slice_quad(q)
    elif method == "POLAR2D":
        value, err, nodes = _polar2d(q)
    else:
        theta = np.asarray(q.shift, dtype=float)
        rho_max = float(np.linalg.norm(theta)) + 40.0 * q.sigma
        if method in ("MC", "MC_IMPORTANCE"):
            center, dist = _nearest_member_point(q.set, theta, rho_max, seed=q.seed)
        if method == "MC":
            bound = chi2.sf(dist**2 / q.sigma**2, q.set.k) if center is not None else 0.0
            method = "MC_IMPORTANCE" if bound < 1e-6 else "MC_PLAIN"
        if method == "MC_IMPORTANCE":
            if center is None:
                value, err, nodes, met = 0.0, 0.0, 0, True  # no member found
            else:
                value, err, nodes, met = _mc_importance(q, center)
        else:
            value, err, nodes, met = _mc_plain(q)

    value = min(max(value, 0.0), 1.0)
    wall = (time.perf_counter() - t0) * 1e3
    rel = err / max(value, 1e-300)
    return MeasureEstimate(value, err, rel, method, nodes,
                           seed=q.seed, wall_ms=wall, target_met=met)


# ---------------------------------------------------------------------------
# smoothing operator


@dataclass(frozen=True)
class GridFunction:
    """Function tabulated on a regular grid with a declared extension."""
    values: np.ndarray
    lows: tuple
    spacing: tuple
    extension: str = "zero"  # zero | constant (nearest value)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        sp = np.atleast_1d(np.asarray(self.spacing, dtype=float))
        if sp.size == 1:
            sp = np.repeat(sp, v.ndim)
        if lows.size != v.ndim or sp.size != v.ndim:
            raise ValueError("grid/dimension mismatch")
        object.__setattr__(self, "lows", tuple(lows))
        object.__setattr__(self, "spacing", tuple(sp))

    def interpolator(self):
        axes = [self.lows[d] + self.spacing[d] * np.arange(self.values.shape[d])
                for d in range(self.values.ndim)]
        if self.extension == "zero":
            return RegularGridInterpolator(
                axes, self.values, bounds_error=False, fill_value=0.0)
        interp = RegularGridInterpolator(axes, self.values, bounds_error=False)
        bounds = [(ax[0], ax[-1]) for ax in axes]

        def clamped(pts):
            pts = np.atleast_2d(np.array(pts, dtype=float, copy=True))
            for d, (lo, hi) in enumerate(bounds):
                np.clip(pts[:, d], lo, hi, out=pts[:, d])
            out = interp(pts)
            return out[0] if out.size == 1 else out
        return clamped


def smooth(f, sigma, x, n_start=8, n_max=64, tol=1e-6):
    """Gauss-Hermite tensor estimate of E f(sigma*Z + x) for grid-tabulated f.

    The error heuristic is the difference between the last two node-doubling
    refinements.
    """
    x = np.asarray(x, dtype=float)
    k = f.values.ndim
    if x.size != k:
        raise ValueError("grid/dimension mismatch")
    interp = f.interpolator()
    prev, val, n = None, None, n_start
    while True:
        t, w = np.polynomial.hermite.hermgauss(n)
        grids = np.meshgrid(*([t] * k), indexing="ij")
        wgrids = np.meshgrid(*([w] * k), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
        vals = interp(math.sqrt(2.0) * sigma * pts + x[None, :])
        val = float((wts * vals).sum() / math.pi ** (k / 2.0))
        if prev is not None and (abs(val - prev) <= tol * max(1.0, abs(val)) or n >= n_max):
            return val, abs(val - prev)
        prev = val
        n *= 2
