"""Desk-scale verification suite.

Checks, on concrete grids and shift pairs, the monotonicity of shifted-set
Gaussian measures in the squared-coordinate majorization order, the strictness
of that monotonicity for non-spherical sets, the uniform-on-a-ball
counterexample showing the Gaussian assumption cannot be dropped, and the
calibration of the finite-sample mean tests.

Direction convention: for a Schur2-convex set the measure is Schur2-concave
in the shift (it grows as the squared shift becomes more balanced, i.e.
toward the diagonal); for a Schur2-concave set the measure is Schur2-convex
(it grows toward a coordinate axis).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .majorization import MajorizationVerdict, schur2_compare
from .means import Schur2Value, p_mean_rows
from .gauss_measure import GaussianShiftQuery, chunk_rng, measure
from .sets import SetSpec, classify_set, contains_rows, format_set


def _measure_at(S, theta, seed, workers, target):
    est = measure(GaussianShiftQuery(set=S, shift=np.asarray(theta, float),
                                     seed=seed, workers=workers,
                                     target_rel_error=target))
    return est.value, est.abs_error


def _expected_sign(char):
    # +1: measure nondecreasing toward the diagonal; -1: nonincreasing
    if char.value == Schur2Value.SCHUR2_CONVEX:
        return 1
    if char.value == Schur2Value.SCHUR2_CONCAVE:
        return -1
    raise ValueError("set classification must not be NEITHER_KNOWN")


def check_schur2_monotonicity(S: SetSpec, shift_pairs, *, seed=0, workers=1,
                              target_rel_error=None):
    """shift_pairs: iterable of (theta_low, theta_high) with
    theta_low^2 majorized by theta_high^2."""
    char = classify_set(S)
    sign = _expected_sign(char)
    pairs, violations, strict_gap = [], 0, False
    for th1, th2 in shift_pairs:
        verdict = schur2_compare(th2, th1)
        if verdict not in (MajorizationVerdict.STRICT_MAJORIZES,
                           MajorizationVerdict.MAJORIZES_NONSTRICT,
                           MajorizationVerdict.EQUAL_SORTED):
            pairs.append({"theta_low": list(map(float, th1)),
                          "theta_high": list(map(float, th2)),
                          "skipped": "squared shifts are not comparable"})
            continue
        m1, e1 = _measure_at(S, th1, seed, workers, target_rel_error)
        m2, e2 = _measure_at(S, th2, seed, workers, target_rel_error)
        # sign=+1: balanced shift th1 should not lose mass; sign=-1: reverse
        diff = sign * (m1 - m2)
        ok = diff >= -3.0 * (e1 + e2)
        if not ok:
            violations += 1
        if abs(m1 - m2) > 5.0 * (e1 + e2):
            strict_gap = True
        pairs.append({"theta_low": list(map(float, th1)),
                      "theta_high": list(map(float, th2)),
                      "measure_low": m1, "measure_high": m2,
                      "abs_error": e1 + e2, "ok": ok})
    need_strict = not char.spherical and any("ok" in p for p in pairs)
    passed = violations == 0 and (strict_gap or not need_strict)
    return {"set": format_set(S), "k": S.k,
            "classification": char.value.name, "spherical": char.spherical,
            "pairs": pairs, "violations": violations,
            "strict_gap_found": strict_gap, "passed": passed, "seed": seed}


def check_rotation_monotonicity(S: SetSpec, r, t_grid, *, seed=0, workers=1,
                                target_rel_error=None):
    """Measures at shifts r(cos t, sin t) for t in [0, pi/4]; k = 2 only."""
    if S.k != 2:
        raise ValueError("rotation sweeps are defined for k = 2")
    char = classify_set(S)
    sign = _expected_sign(char)
    ts = [float(t) for t in t_grid]
    if any(t < -1e-12 or t > math.pi / 4.0 + 1e-12 for t in ts):
        raise ValueError("t_grid must lie in [0, pi/4]")
    vals, errs = [], []
    for t in ts:
        m, e = _measure_at(S, [r * math.cos(t), r * math.sin(t)],
                           seed, workers, target_rel_error)
        vals.append(m)
        errs.append(e)
    violations = []
    for i in range(len(ts) - 1):
        step = sign * (vals[i + 1] - vals[i])
        if char.spherical:
            ok = abs(vals[i + 1] - vals[i]) <= 3.0 * (errs[i] + errs[i + 1])
        else:
            ok = step >= -3.0 * (errs[i] + errs[i + 1])
        if not ok:
            violations.append(i)
    return {"set": format_set(S), "radius": float(r),
            "classification": char.value.name, "spherical": char.spherical,
            "t_grid": ts, "measures": vals, "abs_errors": errs,
            "violations": violations, "passed": not violations, "seed": seed}


@dataclass(frozen=True)
class CounterexampleConfig:
    k: int
    epsilon: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need k >= 2")
        if not 0.0 < self.epsilon < math.sqrt(self.k) - 1.0:
            raise ValueError("epsilon must lie in (0, sqrt(k) - 1)")

    @property
    def R(self):
        return (self.epsilon ** 2 + self.k - 1) / (2.0 * self.epsilon)

    @property
    def r(self):
        return self.R - 1.0 - self.epsilon

    @property
    def x0(self):
        v = np.zeros(self.k)
        v[0] = self.r
        return v

    @property
    def x1(self):
        return np.full(self.k, self.r / math.sqrt(self.k))


def _ball_volume(k, R):
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * R ** k


def _cube_disk_overlap(center, R):
    """Area of ([-1,1]^2 + center) intersected with the disk of radius R."""
    cx, cy = center

    def chord(x):
        if abs(x) >= R:
            return 0.0
        h = math.sqrt(R * R - x * x)
        return max(0.0, min(cy + 1.0, h) - max(cy - 1.0, -h))

    val, err = quad(chord, cx - 1.0, cx + 1.0, limit=200, epsabs=1e-12)
    return val, err


def run_counterexample(cfg: CounterexampleConfig, *, seed=0, budget=400_000):
    """Uniform distribution on the ball B(R): the measure of the shifted unit
    cube is larger at the extreme shift x0 = r e1 than at the balanced shift
    x1 = (r/sqrt k) 1, even though x1^2 is majorized by x0^2."""
    k, R, r = cfg.k, cfg.R, cfg.r
    vol_ratio = 2.0 ** k / _ball_volume(k, R)
    # the cube at x0 touches the sphere exactly at its far face
    containment = (1.0 + r) ** 2 + (k - 1) - R ** 2
    x1_maj = schur2_compare(cfg.x0, cfg.x1) in (
        MajorizationVerdict.STRICT_MAJORIZES,
        MajorizationVerdict.MAJORIZES_NONSTRICT)
    p0 = vol_ratio
    if k == 2:
        overlap, qerr = _cube_disk_overlap(cfg.x1, R)
        p1 = overlap / (math.pi * R * R)
        err = qerr / (math.pi * R * R) + 1e-14
    elif k == 3:
        c = cfg.x1[0]

        def slab_area(z):
            rho2 = R * R - z * z
            if rho2 <= 0.0:
                return 0.0
            return _cube_disk_overlap((c, c), math.sqrt(rho2))[0]

        vol, qerr = quad(slab_area, c - 1.0, c + 1.0, limit=200, epsabs=1e-10)
        p1 = vol / _ball_volume(3, R)
        err = qerr / _ball_volume(3, R) + 1e-12
    else:
        # uniform ball sampling: Gaussian direction times U^{1/k} radius
        hits = 0
        n_chunks = max(1, budget // 65536)
        per = budget // n_chunks
        for c in range(n_chunks):
            rng = chunk_rng(seed, c)
            g = rng.standard_normal((per, k))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            pts = R * g * rng.random((per, 1)) ** (1.0 / k)
            hits += int(np.count_nonzero(
                np.all(np.abs(pts - cfg.x1) <= 1.0, axis=1)))
        n = per * n_chunks
        p1 = hits / n
        err = 3.0 * math.sqrt(max(p1 * (1.0 - p1), 1e-12) / n)
    gap_ok = p0 - p1 > 5.0 * err
    passed = abs(containment) < 1e-9 and x1_maj and gap_ok
    return {"k": k, "epsilon": cfg.epsilon, "R": R, "r": r,
            "p_x0": p0, "p_x1": p1, "p_error": err,
            "containment_residual": containment,
            "x1_sq_majorized_by_x0_sq": bool(x1_maj),
            "gap_exceeds_5_error": bool(gap_ok), "passed": bool(passed),
            "seed": seed}


@dataclass(frozen=True)
class EmpiricalDesign:
    n: int
    k: int
    p: float
    c: float
    theta: tuple = None
    population: str = "gaussian"
    replications: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.population not in ("gaussian", "uniform"):
            raise ValueError("population must be gaussian or uniform")
        th = (np.zeros(self.k) if self.theta is None
              else np.asarray(self.theta, dtype=float))
        if th.shape != (self.k,):
            raise ValueError("theta length must equal k")
        object.__setattr__(self, "theta", tuple(float(x) for x in th))


def empirical_power(d: EmpiricalDesign):
    """Rejection rate of the test sqrt(n) <mean of the sample>_p > c over
    Monte Carlo replications, with its binomial standard error."""
    theta = np.asarray(d.theta)
    root_n = math.sqrt(d.n)
    chunk = max(1, min(d.replications, 2_000_000 // (d.n * d.k) + 1))
    rejections = 0
    done = 0
    ci = 0
    while done < d.replications:
        m = min(chunk, d.replications - done)
        rng = chunk_rng(d.seed, ci)
        if d.population == "gaussian":
            x = rng.standard_normal((m, d.n, d.k))
        else:
            half = math.sqrt(3.0)  # unit variance uniform
            x = rng.uniform(-half, half, size=(m, d.n, d.k))
        xbar = x.mean(axis=1) + theta
        stat = root_n * p_mean_rows(xbar, d.p)
        rejections += int(np.count_nonzero(stat > d.c))
        done += m
        ci += 1
    rate = rejections / d.replications
    stderr = math.sqrt(max(rate * (1.0 - rate), 1.0 / d.replications)
                       / d.replications)
    return rate, stderr
