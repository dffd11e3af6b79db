"""Pitman asymptotic relative efficiency of p-mean tests against the 2-mean
(likelihood ratio) test: are = ||s_2||^2 / ||s_p||^2 for the power-matching
shifts along a common direction, with 0 when s_p does not exist."""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .gauss_measure import rotate2
from .solvers import TestDesign, normalize_direction, shift_solution


@dataclass(frozen=True)
class AreResult:
    are: float
    s2_norm: float
    sp_norm: float
    design: TestDesign
    error: float

    def to_dict(self):
        return {"are": self.are, "s2_norm": self.s2_norm,
                "sp_norm": self.sp_norm, "error": self.error,
                "k": self.design.k, "p": self.design.p,
                "alpha": self.design.alpha, "beta": self.design.beta,
                "u": list(self.design.u)}


def _s2_norm(k, alpha, beta):
    """||s_2|| depends only on alpha, beta, k (spherical symmetry)."""
    d = TestDesign(k, 2.0, alpha, beta, tuple(normalize_direction(np.ones(k))))
    sol = shift_solution(d)
    return sol.norm, sol.solver_error


def are(d: TestDesign, *, seed=0, workers=1, s2=None) -> AreResult:
    norm2, err2 = _s2_norm(d.k, d.alpha, d.beta) if s2 is None else s2
    if d.p == 2.0:
        return AreResult(1.0, norm2, norm2, d, 0.0)
    sol = shift_solution(d, seed=seed, workers=workers)
    if not sol.exists:
        return AreResult(0.0, norm2, math.nan, d, err2)
    val = norm2 ** 2 / sol.norm ** 2
    # first-order error propagation on the ratio of squared norms
    rel = 2.0 * (err2 / max(norm2, 1e-300) + sol.solver_error / max(sol.norm, 1e-300))
    return AreResult(val, norm2, sol.norm, d, val * rel)


def are_extremes(k, p, alpha, beta, *, seed=0, workers=1):
    """ARE at the diagonal direction (all-ones) and the coordinate direction
    (sqrt(k) e1); these bracket the ARE over all directions."""
    s2 = _s2_norm(k, alpha, beta)
    diag = np.ones(k)
    coord = np.zeros(k)
    coord[0] = math.sqrt(k)
    r_d = are(TestDesign(k, p, alpha, beta, tuple(diag)),
              seed=seed, workers=workers, s2=s2)
    r_c = are(TestDesign(k, p, alpha, beta, tuple(coord)),
              seed=seed, workers=workers, s2=s2)
    return r_d, r_c


def are_direction_sweep(p, alpha, beta, n_angles=11, *, k=2, seed=0, workers=1):
    """ARE over direction angles t in [0, pi/4] at k = 2; hyperoctahedral
    symmetry maps every direction into this sector."""
    if k != 2:
        raise ValueError("direction sweeps are defined for k = 2")
    if n_angles < 1:
        raise ValueError("a sweep needs at least one angle")
    s2 = _s2_norm(2, alpha, beta)
    out = []
    for t in np.linspace(0.0, math.pi / 4.0, n_angles):
        u = math.sqrt(2.0) * np.array([math.cos(t), math.sin(t)])
        r = are(TestDesign(2, p, alpha, beta, tuple(u)),
                seed=seed, workers=workers, s2=s2)
        out.append((float(t), r))
    return out


def sweep_to_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["angle", "are", "abs_error", "s2_norm", "sp_norm", "exists_flag"])
    for t, r in rows:
        exists = math.isfinite(r.sp_norm)
        w.writerow([f"{t:.12g}", f"{r.are:.12g}", f"{r.error:.12g}",
                    f"{r.s2_norm:.12g}",
                    f"{r.sp_norm:.12g}" if exists else "nan",
                    int(exists)])
    return buf.getvalue()


def are_limit_trend(k, p, u, alpha_grid, beta_grid, *, seed=0, workers=1):
    """ARE along a grid of shrinking alpha and growing beta, rendering the
    small-size, high-power limit behaviour."""
    alphas = list(alpha_grid)
    betas = list(beta_grid)
    if len(alphas) != len(betas):
        raise ValueError("alpha and beta grids must have equal length")
    if any(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be decreasing")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be increasing")
    u = tuple(normalize_direction(u))
    out = []
    for a, b in zip(alphas, betas):
        out.append(are(TestDesign(k, p, a, b, u), seed=seed, workers=workers))
    return out


def duality_partner(u):
    """At k = 2 the max-mean test in direction u matches the 1-mean test in
    the direction rotated by pi/4."""
    return rotate2(np.asarray(u, dtype=float), math.pi / 4.0)
