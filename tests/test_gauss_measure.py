import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import chi2, ncx2, norm

from schur2 import gauss_measure
from schur2.gauss_measure import (GaussianShiftQuery, MeasureEstimate, measure,
                                  rotate2)
from schur2.sets import (check_b, complement, cube, hat_b, p_ball, pq_ball)


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
    p, theta_j = 1.5, 0.7
    G = lambda w: norm.cdf(w + 0.3) - norm.cdf(-w + 0.3)
    ws = np.linspace(-0.5, 6.0, 53)
    w = ws[ws > 0]
    v = w[:, None] * _UNIT_U[None, :]
    rad = np.clip(w[:, None] ** p - v**p, 0.0, None) ** (1.0 / p)
    g = norm.pdf(v - theta_j) + norm.pdf(v + theta_j)
    want = np.zeros_like(ws)
    want[ws > 0] = w * (G(rad) * g * _UNIT_W[None, :]).sum(axis=1)
    assert np.array_equal(_convolve_level(G, p, theta_j, ws), want)


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


def test_mc_bits_pinned():
    # (value, abs_error, samples) recorded bit for bit before the plain and
    # importance loops were merged; both worker counts must reproduce them
    cases = [
        (pq_ball(3, 5.0, -1.0, 1.0), (0.5, 0.5, 0.5), "MC_PLAIN", 42, None,
         ("0x1.f96f000000000p-2", "0x1.fff5385ab2d8ep-10", 262144)),
        (p_ball(3, 2.0, 1.0), (8.0, 1.0, 0.0), "MC_IMPORTANCE", 3, 0.05,
         ("0x1.aaa149a5ac959p-36", "0x1.026731172ec12p-41", 262144)),
        # a p <= 0 ball, whose membership runs the p-mean kernel
        (p_ball(3, -1.0, 1.0), (0.3, -0.8, 1.1), "MC_PLAIN", 11, None,
         ("0x1.8bfe800000000p-1", "0x1.aca94ef356d6cp-10", 262144)),
    ]
    for S, shift, method, seed, target, want in cases:
        for workers in (1, 2):
            est = mz(S, shift, method=method, seed=seed, workers=workers,
                     target_rel_error=target)
            assert est.method == method
            got = (est.value.hex(), est.abs_error.hex(), est.samples_or_nodes)
            assert got == want


def test_deterministic_bits_pinned():
    # (method, value, abs_error, nodes) recorded bit for bit before measure
    # divided sigma out of the engines; at sigma = 1 nothing may move
    cases = [
        (cube(3, 1.0), (0.3, -0.7, 2.0), None,
         ("PRODUCT_1D", "0x1.e88c1b47e7471p-5", "0x1.0e374a4f8e0b4p-45", 6)),
        (p_ball(3, -math.inf, 1.0), (0.4, -1.1, 0.2), None,
         ("PRODUCT_1D", "0x1.dedc25e9017adp-1", "0x1.0e374a4f8e0b4p-45", 6)),
        (complement(p_ball(2, math.inf, 0.8)), (0.5, -0.2), None,
         ("PRODUCT_1D", "0x1.68b1e91a83f6dp-1", "0x1.6849b86a12b9bp-46", 4)),
        (p_ball(3, 1.5, 1.0), (0.5, 0.2, -0.3), 1e-8,
         ("SLICE_QUAD", "0x1.38590df0f88d9p-1", "0x1.ec00000000000p-46", 96)),
        (complement(p_ball(2, 3.0, 1.2)), (0.4, 0.1), None,
         ("SLICE_QUAD", "0x1.3b18a3009c952p-2", "0x1.1900000000000p-45", 96)),
        (pq_ball(2, 2.0, -0.4, 1.0), tuple(rotate2([1.0, 0.0], math.pi / 5)),
         None,
         ("POLAR2D", "0x1.0cd1cfe4b9939p-1", "0x1.02fbdc79bdb16p-17", 4097)),
        (hat_b(2, 4.5, 1.0, 0.9), (0.5, 0.2), None,
         ("POLAR2D", "0x1.bd06f4addeadap-1", "0x1.fa7af29e56e20p-26", 1025)),
        (check_b(2, 1.5, 1.0, 0.45), (0.3, 0.6), None,
         ("POLAR2D", "0x1.d200fcb34f5dap-2", "0x1.2a3fb94b21d42p-21", 8193)),
    ]
    for S, shift, target, want in cases:
        est = mz(S, shift, target_rel_error=target)
        got = (est.method, est.value.hex(), est.abs_error.hex(),
               est.samples_or_nodes)
        assert got == want


@pytest.mark.parametrize("kw", [
    dict(sigma=math.nan), dict(sigma=math.inf), dict(sigma=0.0),
    dict(shift=(math.nan, 0.0)), dict(shift=(0.0, math.inf)),
    dict(target_rel_error=math.nan), dict(target_rel_error=math.inf),
    dict(target_rel_error=-1.0), dict(target_rel_error=0.0),
    dict(workers=0), dict(workers=-3),
])
def test_query_rejects_nonfinite_input(kw):
    args = {"set": p_ball(2, 2.0, 1.0), "shift": (0.0, 0.0)} | kw
    with pytest.raises(ValueError):
        GaussianShiftQuery(**args)


def _bits(a):
    return [float(x).hex() for x in np.ravel(a)]


def test_normal_helpers_match_scipy_stats_bits():
    # the engines and solvers call the special functions under
    # scipy.stats.norm directly; every value must keep its bits
    from scipy.special import ndtr, ndtri
    x = np.concatenate([[-math.inf, math.inf, math.nan, 1e-300, -1e-300, 0.0,
                         -0.0, 5e-324, 40.0, -40.0],
                        np.linspace(-38.0, 38.0, 20_001)])
    assert _bits(gauss_measure._npdf(x)) == _bits(norm.pdf(x))
    assert _bits(ndtr(x)) == _bits(norm.cdf(x))
    assert _bits(ndtr(-x)) == _bits(norm.sf(x))
    q = np.concatenate([[0.0, 1.0, math.nan, 1e-300, 5e-324, -1e-300, 1.5,
                         1.0 - 2.0**-53], np.linspace(0.0, 1.0, 20_001)])
    # "+ 0.0": the wrapper adds loc = 0, so its zero quantile is never -0.0
    assert _bits(ndtri(q) + 0.0) == _bits(norm.ppf(q))
    assert _bits(-ndtri(q) + 0.0) == _bits(norm.isf(q))


def test_radii_cache_keeps_bits_and_its_size():
    # SLICE_QUAD keeps the theta-free radii of recent grid blocks; a warm
    # cache must give the bits of a cold one, and the cache stays bounded
    S, shift = p_ball(3, 1.5, 1.0), (0.5, 0.2, -0.3)
    gauss_measure._radii.cache_clear()
    cold = mz(S, shift, target_rel_error=1e-8)
    warm = mz(S, shift, target_rel_error=1e-8)
    assert gauss_measure._radii.cache_info().hits > 0
    assert (warm.value.hex(), warm.abs_error.hex()) == (
        cold.value.hex(), cold.abs_error.hex()) == (
        "0x1.38590df0f88d9p-1", "0x1.ec00000000000p-46")
    for eps in (0.7, 1.3, 2.0):  # new grids evict old blocks
        mz(p_ball(2, 3.0, eps), (0.4, 0.1))
    info = gauss_measure._radii.cache_info()
    assert info.maxsize == gauss_measure._RADII_BLOCKS == 8
    assert info.currsize == info.maxsize


def test_pball_means_cache_keeps_bits_and_its_size():
    # plain draws keep a p-ball's p-means per chunk; a warm cache must give
    # the bits of a cold one, recorded before the memo, at any worker count,
    # and the cache stays bounded
    for shift, bits in [((0.0, 0.0, 0.0), ("0x1.dcdd000000000p-1",
                                           "0x1.02e2a8c53fbc8p-10")),
                        ((0.5, -1.0, 0.3), ("0x1.b41a000000000p-1",
                                            "0x1.6bdd6dfc17ccap-10"))]:
        for workers in (1, 2):
            gauss_measure._pball_means.cache_clear()
            cold = mz(p_ball(3, 0.0, 1.2), shift, workers=workers)
            warm = mz(p_ball(3, 0.0, 1.2), shift, workers=workers)
            assert gauss_measure._pball_means.cache_info().hits == 8
            assert warm.method == cold.method == "MC_PLAIN"
            assert (warm.value.hex(), warm.abs_error.hex()) == (
                cold.value.hex(), cold.abs_error.hex()) == bits
    # an eps sweep at one shift reduces each chunk once
    gauss_measure._pball_means.cache_clear()
    for eps in (0.6, 0.9, 1.2, 1.5):
        mz(p_ball(3, -1.0, eps), (0.3, 0.3, 0.3), method="MC_PLAIN")
    info = gauss_measure._pball_means.cache_info()
    assert (info.misses, info.hits) == (8, 24)
    assert info.maxsize == gauss_measure._MC_ROUND == 8
    assert info.currsize == info.maxsize


@pytest.mark.parametrize("S, shift", [
    (check_b(3, 2.0, 1.0, 0.2), (4.0, 3.0, 2.0)),
    (hat_b(3, 2.0, 1.0, 0.2), (4.0, -3.0, 2.0)),
])
def test_mc_without_member_point_is_not_exact(S, shift):
    # the member-point scan misses these small far balls; the estimate must
    # fall back to plain draws instead of reporting an exact 0 +- 0
    if S.variant == "checkb":
        centers = [s * S.a * e for e in np.eye(S.k) for s in (1.0, -1.0)]
    else:
        centers = [S.a * np.array(g)
                   for g in itertools.product((1.0, -1.0), repeat=S.k)]
    # Z - shift is in the ball around c iff Z is in the Euclidean ball of
    # radius sqrt(k) eps around c + shift: largest ball <= truth <= sum
    th = np.asarray(shift)
    probs = [ncx2.cdf(S.k * S.eps**2, S.k, float((c + th) @ (c + th)))
             for c in centers]
    est = mz(S, shift, seed=5, mc_max_samples=1 << 18)
    assert (est.value, est.abs_error) != (0.0, 0.0)
    assert not est.target_met or all(abs(est.value - b) <= 3.0 * est.abs_error
                                     for b in (max(probs), sum(probs)))


@pytest.mark.parametrize("S, shift, method", [
    (pq_ball(2, 2.0, -0.4, 1.0), (0.5, 0.2), "SLICE_QUAD"),
    (hat_b(2, 4.5, 1.0, 0.9), (0.5, 0.2), "SLICE_QUAD"),
    (p_ball(2, 1.0, 1.0), (0.5, 0.2), "PRODUCT_1D"),
    (p_ball(3, 0.0, 1.0), (0.5, 0.2, 0.1), "POLAR2D"),
    (p_ball(2, 1.0, 1.0), (0.5, 0.2), "BOGUS"),
])
def test_forced_method_must_be_capable(S, shift, method):
    # a forced engine that cannot measure the set must not return a value
    with pytest.raises(ValueError, match=method):
        mz(S, shift, method=method)


def test_forced_capable_method_runs():
    est = mz(pq_ball(2, 2.0, -0.4, 1.0), (0.5, 0.2), method="POLAR2D")
    assert est.method == "POLAR2D"
    assert est.value == pytest.approx(0.6354, abs=1e-4)


def test_polar_reports_missed_target(monkeypatch):
    # a panel cap that stops the Simpson doubling early must show as a miss
    S = pq_ball(2, 2.0, -0.4, 1.0)
    shift = rotate2([1.0, 0.0], math.pi / 5)
    monkeypatch.setattr(gauss_measure, "_POLAR_MAX_PANELS", 1024)
    capped = mz(S, shift, method="POLAR2D", target_rel_error=1e-12)
    assert capped.samples_or_nodes == 1025
    assert capped.target_met is False
    met = mz(S, shift, method="POLAR2D", target_rel_error=1e-2)
    assert met.target_met is True


def test_polar_bits_pinned():
    # (method, value, abs_error, nodes) recorded bit for bit before POLAR2D
    # built its points coordinate-major and bisected once per refinement
    # level; the far q < 0 shift runs the axis hints and the far tail
    far = tuple(11.0 * np.array([math.cos(math.pi / 20),
                                 math.sin(math.pi / 20)]))
    cases = [
        (pq_ball(2, 1.0, 0.0, 1.0), (4.5, 0.0),
         ("POLAR2D", "0x1.858733283fb72p-10", "0x1.0347cdab6cf23p-34", 1025)),
        (pq_ball(2, 0.7, 0.7, 1.0), (3.0, 0.0),
         ("POLAR2D", "0x1.2c5fe10ad8346p-5", "0x1.3592431da3385p-22", 4097)),
        (pq_ball(2, 2.0, -0.4, 1.0), far,
         ("POLAR2D", "0x1.73e6ec8c5de0ep-20", "0x1.5e0fb12e8e5c8p-60", 1025)),
        (complement(check_b(2, 1.5, 1.0, 0.45)), (0.3, 0.6),
         ("POLAR2D", "0x1.16ff81a658512p-1", "0x1.2a3fb94bc4cdap-21", 8193)),
    ]
    for S, shift, want in cases:
        est = mz(S, shift)
        got = (est.method, est.value.hex(), est.abs_error.hex(),
               est.samples_or_nodes)
        assert got == want
