"""Power means of absolute coordinates, truncated variants, the two-parameter
ratio-power (p,q)-mean, and their squared-coordinate convexity classification.

All means use the 1/k normalization, so the all-ones vector has every mean
equal to 1.  Limit conventions for p in {-inf, 0, +inf} and for vanishing
coordinates follow continuity: in particular a p-mean with p < 0 is 0 as soon
as one coordinate is 0, and the (p,q)-mean with q < 0 < p vanishes on the
coordinate axes.

One row kernel, pq_mean_rows, computes every mean: a p-mean is the
(p,0)-mean, since with 0^0 = 1 the power sum of exponent 0 is k.  It takes
its power sums on magnitudes divided by a row extreme, the largest
coordinate for a positive exponent and the smallest for a negative one, so
every term lies in [0, 1] and no sum overflows.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MeanKind",
    "Tail",
    "MeanSpec",
    "Schur2Value",
    "SchurCharacter",
    "p_mean",
    "p_mean_rows",
    "truncated_mean",
    "pq_mean",
    "pq_mean_rows",
    "pq_extreme",
    "classify_mean",
    "schur_ostrowski_sign",
]


class MeanKind(Enum):
    P_MEAN = "p_mean"
    PQ_MEAN = "pq_mean"
    TRUNCATED = "truncated"


class Tail(Enum):
    SMALLEST = "smallest"
    LARGEST = "largest"


class Schur2Value(Enum):
    SCHUR2_CONCAVE = "schur2_concave"
    SCHUR2_CONVEX = "schur2_convex"
    NEITHER_KNOWN = "neither_known"


@dataclass(frozen=True)
class SchurCharacter:
    value: Schur2Value
    spherical: bool = False  # True for the Euclidean case: both at once


@dataclass(frozen=True)
class MeanSpec:
    kind: MeanKind
    p: float
    q: float = None
    ell: int = None
    tail: Tail = None
    k: int = None  # the dimension, if known: an ell = k truncated mean is M_p

    def __post_init__(self):
        if self.kind is MeanKind.PQ_MEAN and self.q is not None and self.p < self.q:
            # the (p,q)-mean is symmetric in (p,q); normalize to p >= q
            q = self.p
            object.__setattr__(self, "p", self.q)
            object.__setattr__(self, "q", q)


def p_mean_rows(X, p):
    """p-mean of |row| for each row of X, shape (n, k) -> (n,).

    The p-mean is the (p,0)-mean: with 0^0 = 1 the power sum of exponent 0
    is k, so this is one call to the (p,q) kernel and shares its scaling and
    its limit conventions.
    """
    return pq_mean_rows(X, p, 0.0)


def p_mean(x, p):
    """p-mean of the absolute coordinates of a single vector."""
    return float(p_mean_rows(np.asarray(x, dtype=float)[None, :], p)[0])


def truncated_mean(x, ell, tail, p):
    """p-mean of the ell smallest or largest absolute coordinate values."""
    a = np.sort(np.abs(np.asarray(x, dtype=float)))
    if not 1 <= ell <= a.size:
        raise ValueError(f"ell must be in 1..{a.size}, got {ell}")
    part = a[:ell] if tail is Tail.SMALLEST else a[-ell:]
    return p_mean(part, p)


def pq_mean_rows(X, p, q):
    """(p,q)-mean of |row| for each row of X, shape (n, k) -> (n,).

    Power-sum form on the magnitudes r = |x|/m scaled by the row maximum m:
    log M = log m + (log sum r^p - log sum r^q) / (p - q) for p > q, and the
    self-weighted geometric mean log M = log m + sum r^p log r / sum r^p for
    p = q.  A sum with a negative exponent is shifted by its own largest
    term (the smallest coordinate s: sum r^e = (s/m)^e sum (|x|/s)^e), so a
    coordinate of 1e-300 under q = -3 gives its tiny positive mean instead of
    overflowing.  The coordinates are laid out as the rows of a (k, n) array,
    so every reduction over them is an elementwise pass over n points.
    """
    if p < q:
        p, q = q, p
    A = np.abs(np.atleast_2d(np.asarray(X, dtype=float)).T, order="C")
    k = A.shape[0]
    extreme = pq_extreme(p, q)
    if extreme:
        return A.max(axis=0) if extreme == "max" else A.min(axis=0)
    m = A.max(axis=0)
    # zero coordinates and all-zero rows yield nan or inf here; the limit
    # conventions below overwrite every such row
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        logm = np.log(m)
        if p == q == 0.0:
            # geometric mean: the self-weights are all 1
            log_rel = np.sum(np.log(A) - logm, axis=0) / k
        elif p == q:
            s = A.min(axis=0) if p < 0.0 else m
            w = (A / s) ** p  # r^p up to a row factor
            logr = np.log(A) - logm
            log_rel = (np.sum(np.where(w > 0.0, w * logr, 0.0), axis=0)
                       / np.sum(w, axis=0))
        else:
            def log_power_sum(e):
                if e == 0.0:
                    return math.log(k)  # 0^0 = 1: zeros count as unit terms
                if e > 0.0:
                    return np.log(np.sum((A / m) ** e, axis=0))
                s = A.min(axis=0)
                return e * (np.log(s) - logm) + np.log(np.sum((A / s) ** e, axis=0))

            log_rel = (log_power_sum(p) - log_power_sum(q)) / (p - q)
        # log_rel = log(M/m); m * exp(log_rel) could underflow before M does
        out = np.exp(logm + log_rel)
    zero = A == 0.0
    vanish = zero.all(axis=0)
    if q < 0.0 or (p == q and q <= 0.0):
        # sum |x|^q diverges (q < 0), the self-weights concentrate on a zero
        # coordinate (p = q < 0), or the geometric mean vanishes (p = q = 0)
        vanish |= zero.any(axis=0)
    out[vanish] = 0.0
    return out


def pq_extreme(p, q):
    """Which extreme of the |x_j| the (p,q)-mean is: "max" if its larger
    exponent is +inf, else "min" if its smaller one is -inf, else None."""
    p, q = max(p, q), min(p, q)
    return "max" if p == math.inf else "min" if q == -math.inf else None


def pq_mean(x, p, q):
    """(p,q)-mean of a single vector."""
    return float(pq_mean_rows(np.asarray(x, dtype=float)[None, :], p, q)[0])


def classify_mean(spec):
    """Squared-coordinate convexity character of a mean functional."""
    if spec.kind is MeanKind.P_MEAN or spec.ell == spec.k is not None:
        # the p-mean is the (p,0)-mean; so is a truncated mean of all k
        return classify_mean(MeanSpec(MeanKind.PQ_MEAN, spec.p, 0.0))
    if spec.kind is MeanKind.PQ_MEAN:
        p, q = spec.p, spec.q  # MeanSpec keeps p >= q
        if (p, q) == (2.0, 0.0):
            return SchurCharacter(Schur2Value.SCHUR2_CONVEX, spherical=True)
        extreme = pq_extreme(p, q)
        if extreme:  # the cube's max_j |x_j| or the slab union's min_j
            return SchurCharacter(Schur2Value.SCHUR2_CONVEX if extreme == "max"
                                  else Schur2Value.SCHUR2_CONCAVE)
        if q <= 0.0 <= p <= 2.0:
            return SchurCharacter(Schur2Value.SCHUR2_CONCAVE)
        if 0.0 <= q <= 2.0 <= p:
            return SchurCharacter(Schur2Value.SCHUR2_CONVEX)
        return SchurCharacter(Schur2Value.NEITHER_KNOWN)
    if spec.kind is MeanKind.TRUNCATED:  # ell = 1: min_j or max_j |x_j|
        if spec.tail is Tail.SMALLEST and (spec.p <= 2.0 or spec.ell == 1):
            return SchurCharacter(Schur2Value.SCHUR2_CONCAVE)
        if spec.tail is Tail.LARGEST and (spec.p >= 2.0 or spec.ell == 1):
            return SchurCharacter(Schur2Value.SCHUR2_CONVEX)
        return SchurCharacter(Schur2Value.NEITHER_KNOWN)
    raise ValueError(f"unknown mean kind {spec.kind}")


def schur_ostrowski_sign(p, q, u, i, j, rtol=1e-12):
    """Sign of (d/du_i - d/du_j) of the (p,q)-mean composed with sqrt.

    Uses the derivative expression p*u_i^(p/2-1)*sum(u^(q/2))
    - q*u_i^(q/2-1)*sum(u^(p/2)), which equals the partial derivative up to
    an i-independent positive factor (valid for p > q, u > 0).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("coordinates must be strictly positive")
    if not p > q:
        raise ValueError("requires p > q")
    sp = np.sum(u ** (p / 2.0))
    sq = np.sum(u ** (q / 2.0))
    ei, ej = (p * u[[i, j]] ** (p / 2.0 - 1.0) * sq
              - q * u[[i, j]] ** (q / 2.0 - 1.0) * sp)
    d = ei - ej
    if abs(d) <= rtol * (abs(ei) + abs(ej) + 1.0):
        return 0
    return 1 if d > 0 else -1
