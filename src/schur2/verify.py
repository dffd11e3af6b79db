"""Desk-scale verification suite.

Checks both halves of the theorem with one pair rule: shifted-set Gaussian
measures are monotone in the squared-coordinate majorization order,
strictly unless the set is spherical. The pairs are neighbours on a
rotation arc at k = 2, or every two points of the sorted chamber lattice
on a sphere, where theta^2 takes multiples of r^2 / N. Also the
uniform-on-a-ball counterexample showing the Gaussian assumption cannot be
dropped, and the calibration of the finite-sample mean tests.

Direction convention: for a Schur2-convex set the measure is Schur2-concave
in the shift (it grows toward the diagonal as the squared shift becomes
more balanced); for a Schur2-concave set it grows toward a coordinate axis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .majorization import MajorizationVerdict, schur2_compare
from .means import Schur2Value, p_mean_rows
from .gauss_measure import GaussianShiftQuery, chunk_rng, measure
from .sets import SetSpec, classify_set, format_set


# +1: measure nondecreasing toward the diagonal; -1: nonincreasing
_SIGN = {Schur2Value.SCHUR2_CONVEX: 1, Schur2Value.SCHUR2_CONCAVE: -1}
_COMPARABLE = (MajorizationVerdict.STRICT_MAJORIZES,
               MajorizationVerdict.MAJORIZES_NONSTRICT,
               MajorizationVerdict.EQUAL_SORTED)


def check_schur2_monotonicity(S: SetSpec, shift_pairs, *, seed=0, workers=1,
                              target_rel_error=None):
    """shift_pairs: iterable of (theta_low, theta_high) with theta_low^2
    majorized by theta_high^2. Each shift is measured once, and one rule
    judges every pair, with sigma the sum of its two error bars: the measure
    moves in the direction of the set's class within 3 sigma, a spherical
    set's measures are equal within 3 sigma, and any other set shows a gap
    above 5 sigma somewhere. A check that compares no pair raises."""
    char = classify_set(S)
    if char.value not in _SIGN:
        raise ValueError("set classification must not be NEITHER_KNOWN")
    sign = _SIGN[char.value]
    measured, pairs, violations, strict_gap = {}, [], 0, False
    for th1, th2 in shift_pairs:
        th1, th2 = tuple(map(float, th1)), tuple(map(float, th2))
        pair = {"theta_low": list(th1), "theta_high": list(th2)}
        pairs.append(pair)
        if schur2_compare(th2, th1) not in _COMPARABLE:
            pair["skipped"] = "squared shifts are not comparable"
            continue
        for th in (th1, th2):
            if th not in measured:
                measured[th] = measure(GaussianShiftQuery(
                    set=S, shift=th, seed=seed, workers=workers,
                    target_rel_error=target_rel_error))
        lo, hi = measured[th1], measured[th2]
        m1, m2, sigma = lo.value, hi.value, lo.abs_error + hi.abs_error
        # sign=+1: balanced shift th1 should not lose mass; sign=-1: reverse
        ok = (abs(m1 - m2) if char.spherical
              else sign * (m2 - m1)) <= 3.0 * sigma
        violations += not ok
        strict_gap |= abs(m1 - m2) > 5.0 * sigma
        pair.update(measure_low=m1, measure_high=m2, abs_error=sigma, ok=ok)
    if not measured:
        raise ValueError("no comparable shift pair to check")
    passed = violations == 0 and (strict_gap or char.spherical)
    return {"set": format_set(S), "k": S.k,
            "classification": char.value.name, "spherical": char.spherical,
            "pairs": pairs, "violations": violations,
            "strict_gap_found": strict_gap, "passed": passed, "seed": seed}


def chamber_pairs(k, r, n):
    """Every two points r sqrt(u / n), u descending naturals summing to n, as
    (low, high): only the lexicographically larger, high, can majorize."""
    def tuples(left, cap, slots):  # descending, no term above cap
        return [(u,) + t for u in range(min(left, cap), -1, -1) for t in
                tuples(left - u, u, slots - 1)] if slots else [()] * (not left)
    if k < 1 or n < 1:
        raise ValueError("a chamber lattice needs k >= 1 and n >= 1")
    pts = [tuple(r * math.sqrt(u / n) for u in t) for t in tuples(n, n, k)]
    return [(low, high) for i, high in enumerate(pts) for low in pts[i + 1:]]


def check_rotation_monotonicity(S: SetSpec, r, t_grid, *, seed=0, workers=1,
                                target_rel_error=None):
    """The arc case of check_schur2_monotonicity at k = 2: shifts
    r(cos t, sin t) for t in [0, pi/4], where of two neighbours on the grid
    the one nearer the diagonal has the majorized squares."""
    if S.k != 2:
        raise ValueError("rotation sweeps are defined for k = 2")
    ts = [float(t) for t in t_grid]
    if not all(-1e-12 <= t <= math.pi / 4.0 + 1e-12 for t in ts):
        raise ValueError("t_grid must lie in [0, pi/4]")
    if len(ts) < 2:
        raise ValueError("a rotation check needs at least 2 grid points")
    at = lambda t: (r * math.cos(t), r * math.sin(t))
    rep = check_schur2_monotonicity(
        S, [(at(max(s, t)), at(min(s, t))) for s, t in zip(ts, ts[1:])],
        seed=seed, workers=workers, target_rel_error=target_rel_error)
    seen = {tuple(p["theta_" + e]): p["measure_" + e]
            for p in rep["pairs"] for e in ("low", "high")}
    return {**rep, "radius": float(r), "t_grid": ts,
            "measures": [seen[at(t)] for t in ts]}


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
        return self.r * np.eye(self.k)[0]

    @property
    def x1(self):
        return np.full(self.k, self.r / math.sqrt(self.k))


def _ball_volume(k, R):
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * R ** k


def _cube_disk_overlap(center, R):
    """Area of ([-1,1]^2 + center) intersected with the disk of radius R."""
    from scipy.integrate import quad  # only the counterexample oracle loads it
    cx, cy = center

    def chord(x):
        if abs(x) >= R:
            return 0.0
        h = math.sqrt(R * R - x * x)
        return max(0.0, min(cy + 1.0, h) - max(cy - 1.0, -h))

    return quad(chord, cx - 1.0, cx + 1.0, limit=200, epsabs=1e-12)


def run_counterexample(cfg: CounterexampleConfig, *, seed=0, budget=400_000):
    """Uniform distribution on the ball B(R): the measure of the shifted unit
    cube is larger at the extreme shift x0 = r e1 than at the balanced shift
    x1 = (r/sqrt k) 1, even though x1^2 is majorized by x0^2."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    k, R, r = cfg.k, cfg.R, cfg.r
    p0 = 2.0 ** k / _ball_volume(k, R)  # the cube at x0 lies inside B(R)
    # the cube at x0 touches the sphere exactly at its far face
    containment = (1.0 + r) ** 2 + (k - 1) - R ** 2
    x1_maj = schur2_compare(cfg.x0, cfg.x1) in _COMPARABLE
    if k in (2, 3):  # quadrature: the square's overlap, or its slabs' at k = 3
        from scipy.integrate import quad
        c = cfg.x1[0]  # |z| <= c + 1 < R for every valid epsilon
        vol, qerr = _cube_disk_overlap(cfg.x1, R) if k == 2 else quad(
            lambda z: _cube_disk_overlap((c, c), math.sqrt(R * R - z * z))[0],
            c - 1.0, c + 1.0, limit=200, epsabs=1e-10)
        p1 = vol / _ball_volume(k, R)
        err = qerr / _ball_volume(k, R) + (1e-14 if k == 2 else 1e-12)
    else:
        # uniform draws U on the cube x1 + [-1, 1]^k: p1 = p0 P(|U| <= R),
        # whose gap from p0 is the share of the cube outside the ball
        hits = 0
        n_chunks = max(1, budget // 65536)
        per = budget // n_chunks
        for c in range(n_chunks):
            U = cfg.x1 + chunk_rng(seed, c).uniform(-1.0, 1.0, (per, k))
            hits += int(np.count_nonzero((U * U).sum(axis=1) <= R * R))
        n = per * n_chunks
        f = hits / n
        p1 = p0 * f
        err = 3.0 * p0 * math.sqrt(max(f * (1.0 - f), 1e-12) / n)
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
        if self.n < 1 or self.replications < 1:
            raise ValueError("need n >= 1 and replications >= 1")
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
    chunk = max(1, min(d.replications, 2_000_000 // (d.n * d.k) + 1))
    rejections = 0
    for ci, done in enumerate(range(0, d.replications, chunk)):
        m = min(chunk, d.replications - done)
        rng = chunk_rng(d.seed, ci)
        if d.population == "gaussian":
            x = rng.standard_normal((m, d.n, d.k))
        else:
            half = math.sqrt(3.0)  # unit variance uniform
            x = rng.uniform(-half, half, size=(m, d.n, d.k))
        xbar = x.mean(axis=1) + np.asarray(d.theta)
        stat = math.sqrt(d.n) * p_mean_rows(xbar, d.p)
        rejections += int(np.count_nonzero(stat > d.c))
    rate = rejections / d.replications
    stderr = math.sqrt(max(rate * (1.0 - rate), 1.0 / d.replications)
                       / d.replications)
    return rate, stderr
