import json
import math

import numpy as np
import pytest
from scipy.stats import chi2, ncx2, norm

from schur2.gauss_measure import (GaussianShiftQuery, GridFunction,
                                  MeasureEstimate, measure, rotate2, smooth)
from schur2.sets import (complement, cube, p_ball, pq_ball)


def mz(S, shift, **kw):
    return measure(GaussianShiftQuery(set=S, shift=np.asarray(shift, float),
                                      **kw))


def test_euclidean_ball_matches_noncentral_chi2():
    # the 2-mean ball of radius eps is the Euclidean ball of radius
    # sqrt(k) * eps, so the measure is an ncx2 CDF; quadrature must hit it
    # to 1e-10 across dimensions
    for k in range(1, 7):
        for eps, shift_norm in [(1.0, 0.0), (0.8, 1.3), (1.5, 2.0)]:
            theta = np.zeros(k)
            theta[0] = shift_norm
            est = mz(p_ball(k, 2.0, eps), theta, target_rel_error=1e-9)
            want = ncx2.cdf(k * eps * eps, k, shift_norm ** 2)
            assert est.value == pytest.approx(want, abs=1e-10)
            assert est.method in ("SLICE_QUAD", "POLAR2D", "PRODUCT_1D")


def test_cube_product_form():
    est = mz(cube(2, 1.0), [0.0, 0.0])
    want = (norm.cdf(1) - norm.cdf(-1)) ** 2
    assert est.method == "PRODUCT_1D"
    assert est.value == pytest.approx(want, abs=1e-13)
    est2 = mz(cube(3, 1.0), [0.3, -0.7, 2.0])
    want2 = np.prod([norm.cdf(1 - t) - norm.cdf(-1 - t)
                     for t in (0.3, -0.7, 2.0)])
    assert est2.value == pytest.approx(want2, abs=1e-13)


def test_sup_and_inf_balls_product_form():
    theta = np.array([0.4, -1.1, 0.2])
    est = mz(p_ball(3, math.inf, 1.0), theta)
    want = np.prod([norm.cdf(1 - t) - norm.cdf(-1 - t) for t in theta])
    assert est.method == "PRODUCT_1D"
    assert est.value == pytest.approx(want, abs=1e-13)
    # min of |Z_j - t_j| <= c is the complement of all coordinates outside
    est2 = mz(p_ball(3, -math.inf, 1.0), theta)
    want2 = 1 - np.prod([1 - (norm.cdf(1 - t) - norm.cdf(-1 - t))
                         for t in theta])
    assert est2.value == pytest.approx(want2, abs=1e-13)


def test_complement_is_one_minus():
    S = p_ball(3, 1.5, 1.0)
    theta = [0.5, 0.2, -0.3]
    a = mz(S, theta, target_rel_error=1e-8)
    b = mz(complement(S), theta, target_rel_error=1e-8)
    assert a.value + b.value == pytest.approx(1.0, abs=1e-9)


def test_sigma_scaling():
    # scaling both the set and sigma leaves the measure unchanged
    a = mz(p_ball(2, 3.0, 1.0), [0.5, 0.1], target_rel_error=1e-8)
    b = mz(p_ball(2, 3.0, 2.0), [1.0, 0.2], sigma=2.0, target_rel_error=1e-8)
    assert a.value == pytest.approx(b.value, abs=1e-8)


def test_method_agreement_slice_polar_mc():
    S = p_ball(2, 1.0, 1.0)
    theta = [0.8, 0.3]
    ests = [mz(S, theta, method=m, target_rel_error=t, seed=7)
            for m, t in [("SLICE_QUAD", 1e-8), ("POLAR2D", 1e-6),
                         ("MC_PLAIN", 1e-3)]]
    ref = ests[0]
    for e in ests[1:]:
        tol = 3 * (ref.abs_error + e.abs_error)
        assert abs(e.value - ref.value) <= tol


def test_convolve_level_blocks_keep_bits():
    # radii are summed in fixed blocks; each row must equal the one-shot sum
    from schur2.gauss_measure import _UNIT_U, _UNIT_W, _convolve_level
    p, theta_j, sigma = 1.5, 0.7, 1.3
    G = lambda w: norm.cdf((w + 0.3) / sigma) - norm.cdf((-w + 0.3) / sigma)
    ws = np.linspace(-0.5, 6.0, 53)
    w = ws[ws > 0]
    v = w[:, None] * _UNIT_U[None, :]
    rad = np.clip(w[:, None] ** p - v**p, 0.0, None) ** (1.0 / p)
    g = (norm.pdf((v - theta_j) / sigma)
         + norm.pdf((v + theta_j) / sigma)) / sigma
    want = np.zeros_like(ws)
    want[ws > 0] = w * (G(rad) * g * _UNIT_W[None, :]).sum(axis=1)
    assert np.array_equal(_convolve_level(G, p, theta_j, sigma, ws), want)


def test_polar_handles_unbounded_thin_arms():
    # tiny tail mass hugging the shifted coordinate axes must be captured
    S = pq_ball(2, 2.0, -0.4, 1.0)
    got = mz(S, rotate2([11.0, 0.0], math.pi / 20), method="POLAR2D",
             target_rel_error=0.05)
    # oracle: the mass is dominated by the sliver along the horizontal arm;
    # integrate the arm's half width against the bivariate normal density
    b = 11.0 * math.sin(math.pi / 20)
    cx = 11.0 * math.cos(math.pi / 20)

    from scipy.optimize import brentq
    from schur2.means import pq_mean

    def width(x):
        f = lambda y: pq_mean([x - cx, y], 2.0, -0.4) - 1.0
        return brentq(f, 1e-300, 1.0)

    xs = np.linspace(-4.5, 4.5, 2001)
    ws = np.array([width(x) for x in xs])
    dens = np.exp(-(xs ** 2 + b ** 2) / 2) / (2 * math.pi)
    oracle = 2.0 * np.trapezoid(ws * dens, xs)
    assert got.value == pytest.approx(oracle, rel=0.1)


def test_mc_determinism_across_workers():
    S = pq_ball(3, 5.0, -1.0, 1.0)
    runs = [mz(S, [0.5, 0.5, 0.5], method="MC_PLAIN", seed=42, workers=w)
            for w in (1, 2, 4)]
    assert runs[0].value == runs[1].value == runs[2].value


def test_mc_importance_rare_event():
    # far shifted Euclidean ball, oracle via the noncentral chi-square
    S = p_ball(3, 2.0, 1.0)
    theta = np.array([8.0, 1.0, 0.0])
    est = mz(S, theta, method="MC", seed=3, target_rel_error=0.05)
    want = ncx2.cdf(3.0, 3, float(theta @ theta))
    assert est.method == "MC_IMPORTANCE"
    assert est.value == pytest.approx(want, rel=0.2)


def test_estimate_record_round_trips():
    est = mz(cube(2, 1.0), [0.1, 0.2])
    d = json.loads(json.dumps(est.to_json()))
    for key in ("value", "abs_error", "rel_error", "method", "nodes",
                "seed", "wall_ms", "target_met"):
        assert key in d
    assert d["value"] == est.value


def test_rotate2():
    v = rotate2([1.0, 0.0], math.pi / 4)
    assert np.allclose(v, [math.sqrt(0.5), math.sqrt(0.5)])


def test_smooth_gaussian_bump_oracle():
    # convolving a Gaussian bump with a Gaussian kernel has a closed form:
    # E exp(-|sZ+x|^2 / 2 tau^2) = (tau^2/(tau^2+s^2)) exp(-|x|^2/2(tau^2+s^2))
    tau, s = 1.3, 0.6
    xs = np.linspace(-6.0, 6.0, 241)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = np.exp(-(gx ** 2 + gy ** 2) / (2 * tau * tau))
    f = GridFunction(values=vals, lows=(-6.0, -6.0),
                     spacing=(xs[1] - xs[0],) * 2, extension="zero")
    for x in [(0.0, 0.0), (0.7, -0.3), (1.5, 1.1)]:
        got, err = smooth(f, s, np.array(x))
        v = tau * tau / (tau * tau + s * s)
        want = v * math.exp(-(x[0] ** 2 + x[1] ** 2)
                            / (2 * (tau * tau + s * s)))
        # linear grid interpolation limits the achievable accuracy
        assert got == pytest.approx(want, abs=5e-4)


def test_grid_function_extension_modes():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    gz = GridFunction(values=vals, lows=np.array([0.0, 0.0]),
                      spacing=np.array([1.0, 1.0]), extension="zero").interpolator()
    gc = GridFunction(values=vals, lows=np.array([0.0, 0.0]),
                      spacing=np.array([1.0, 1.0]),
                      extension="constant").interpolator()
    assert gz(np.array([10.0, 10.0])) == 0.0
    assert gc(np.array([10.0, 10.0])) == 4.0
    assert gz(np.array([0.0, 1.0])) == pytest.approx(2.0)
