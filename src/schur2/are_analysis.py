"""Pitman asymptotic relative efficiency of p-mean tests against the 2-mean
(likelihood ratio) test: are = ||s_2||^2 / ||s_p||^2 for the power-matching
shifts along a common direction, with 0 when s_p does not exist."""

import math
from dataclasses import dataclass

import numpy as np

from .solvers import (TestDesign, _s2_norm, normalize_direction,
                      shift_solution)


@dataclass(frozen=True)
class AreResult:
    are: float
    s2_norm: float
    sp_norm: float
    design: TestDesign
    error: float
    target_met: bool  # every measure of the s_p solve met its target

    def to_dict(self):
        return {"are": self.are, "s2_norm": self.s2_norm,
                "sp_norm": self.sp_norm, "error": self.error,
                "k": self.design.k, "p": self.design.p,
                "alpha": self.design.alpha, "beta": self.design.beta,
                "u": list(self.design.u), "target_met": self.target_met}


def are(d: TestDesign, *, seed=0, workers=1) -> AreResult:
    """ARE in the design's direction; its error propagates the solver_error
    of s_p alone, since ||s_2|| has a closed form."""
    norm2 = _s2_norm(d.k, d.alpha, d.beta)
    if d.p == 2.0:
        return AreResult(1.0, norm2, norm2, d, 0.0, True)
    sol = shift_solution(d, seed=seed, workers=workers)
    if not sol.exists:
        return AreResult(0.0, norm2, math.nan, d, 0.0, sol.target_met)
    val = norm2 ** 2 / sol.norm ** 2
    # first-order error propagation: val ~ 1 / t^2, solver_error is in t
    return AreResult(val, norm2, sol.norm, d,
                     val * 2.0 * sol.solver_error / max(sol.t, 1e-300),
                     sol.target_met)


def are_extremes(k, p, alpha, beta, *, seed=0, workers=1):
    """ARE at the diagonal direction (all-ones) and the coordinate direction
    (sqrt(k) e1); these bracket the ARE over all directions."""
    return tuple(are(TestDesign(k, p, alpha, beta, tuple(u)), seed=seed,
                     workers=workers)
                 for u in (np.ones(k), math.sqrt(k) * np.eye(k)[0]))


def are_direction_sweep(p, alpha, beta, n_angles=11, *, seed=0, workers=1):
    """ARE over direction angles t in [0, pi/4] at k = 2; hyperoctahedral
    symmetry maps every direction into this sector."""
    if n_angles < 1:
        raise ValueError("a sweep needs at least one angle")
    ts = np.linspace(0.0, math.pi / 4.0, n_angles)
    us = [math.sqrt(2.0) * np.array([math.cos(t), math.sin(t)]) for t in ts]
    return [(float(t), are(TestDesign(2, p, alpha, beta, tuple(u)), seed=seed,
                           workers=workers)) for t, u in zip(ts, us)]


def sweep_records(rows):
    """The CSV records of a direction sweep, one per angle."""
    return [{"angle": t, "are": r.are, "abs_error": r.error,
             "s2_norm": r.s2_norm, "sp_norm": r.sp_norm,
             "exists_flag": int(math.isfinite(r.sp_norm)),
             "target_met": r.target_met} for t, r in rows]


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
    return [are(TestDesign(k, p, a, b, u), seed=seed, workers=workers)
            for a, b in zip(alphas, betas)]
