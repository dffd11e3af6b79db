import itertools
import json
import math
import os
import signal
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2, ncx2, norm

from schur2 import gauss_measure, solvers
from schur2.cli import FIG1_PANELS
from schur2.gauss_measure import (MC_ROUND_DRAWS, GaussianShiftQuery,
                                  MeasureEstimate, measure, rotate2)
from schur2.sets import (bounded_root, check_b, classify_set, complement,
                         contains_rows, cube, hat_b, p_ball, pq_ball)


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
            assert est.method in ("SEP", "PRODUCT_1D")


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


def _mp_product(S, theta):
    """PRODUCT_1D's sets at 40 digits: products of slab masses, each taken
    at |theta_j|, where 40 digits hold it."""
    comp = S.variant == "complement"
    T = S.inner if comp else S
    a = mpmath.mpf(T.eps)
    with mpmath.workdps(40):
        m = [mpmath.ncdf(a - t) - mpmath.ncdf(-a - t)
             for t in map(mpmath.mpf, np.abs(theta))]
        if T.p == -math.inf:  # some |Y_j| <= a
            v = 1 - mpmath.fprod(1 - x for x in m)
        else:
            v = mpmath.fprod(m)
        return 1 - v if comp else v


@pytest.mark.parametrize("S, shift", [
    (cube(2, 1.0), (0.0, 0.0)),
    (cube(2, 1.0), (10.0, 0.0)),  # 7.70e-20: ndtr(11) - ndtr(9) is 0
    (cube(2, 1.0), (9.0, 0.5)),  # 3.89e-16: the large side gives 4.16e-16
    (cube(3, 1.0), (0.3, -0.7, 2.0)),
    (cube(3, 2.5), (-6.0, 1.0, 4.0)),
    (p_ball(3, math.inf, 1.0), (0.4, -1.1, 0.2)),
    (p_ball(2, math.inf, 0.5), (-8.0, 7.5)),
    (p_ball(3, -math.inf, 1.0), (0.4, -1.1, 0.2)),
    (p_ball(3, -math.inf, 1.0), (9.0, -10.0, 8.0)),  # a union of rare slabs
    (complement(cube(2, 1.0)), (0.0, 0.0)),
    (complement(cube(2, 6.0)), (0.5, -1.0)),  # 2e-8: 1 - product cancels
    (complement(p_ball(2, math.inf, 0.8)), (0.5, -0.2)),
    (complement(p_ball(3, -math.inf, 1.0)), (9.0, -8.0, 10.0)),
    (complement(p_ball(2, -math.inf, 1.0)), (0.2, 0.1)),
    # narrow slabs: their inside mass is a difference of near ndtr values
    (cube(2, 1e-3), (0.0, 0.0)),  # 1.1e-13 off, under a 2.0e-14 bar once
    (cube(1, 1e-3), (5.0,)),
    (p_ball(3, -math.inf, 1e-3), (0.1, 0.2, 0.3)),
    (p_ball(2, math.inf, 0.02), (0.5, -0.3)),
    (complement(cube(2, 0.02)), (1.0, 0.2)),
])
def test_product_1d_matches_mpmath(S, shift):
    # each slab on its small side, products through sums of logs: within
    # k 1e-14 relative of a 40-digit oracle (k 1e-12 for slabs narrower than
    # 0.1, which lose digits to the difference), and inside the stated bar
    est = mz(S, shift)
    want = _mp_product(S, shift)
    T = S.inner if S.variant == "complement" else S
    rel = 1e-14 if T.eps >= 0.1 else 1e-12
    assert est.method == "PRODUCT_1D" and est.target_met
    assert abs(est.value - want) <= S.k * rel * want
    assert abs(est.value - want) <= est.abs_error


def test_product_1d_bar_grows_with_the_shift():
    # ndtr loses relative accuracy far in its tail; the bar grows with it
    for shift in [(20.0, 0.0), (25.0, -20.0), (36.0, 0.3)]:
        est = mz(cube(2, 1.0), shift)
        want = _mp_product(cube(2, 1.0), shift)
        assert 0.0 < est.value and abs(est.value - want) <= est.abs_error


@pytest.mark.parametrize("S", [
    p_ball(1, 0.0, 1.0), p_ball(1, -1.0, 1.0), p_ball(1, 2.0, 1.0),
    p_ball(1, math.inf, 1.0), pq_ball(1, 2.0, -0.4, 1.0),
    pq_ball(1, 0.7, 0.7, 1.0), complement(p_ball(1, 0.5, 1.0)),
])
def test_every_ball_at_k1_is_a_slab(S):
    # at k = 1 every p- and (p, q)-mean of x is |x|: the slab |x| <= eps
    for shift in [(0.3,), (-7.0,)]:
        est = mz(S, shift)
        want = _mp_product(cube(1, 1.0) if S.variant != "complement"
                           else complement(cube(1, 1.0)), shift)
        assert est.method == "PRODUCT_1D" and est.samples_or_nodes == 2
        assert abs(est.value - want) <= est.abs_error


def test_complement_is_one_minus():
    S = p_ball(3, 1.5, 1.0)
    theta = [0.5, 0.2, -0.3]
    a = mz(S, theta, target_rel_error=1e-8)
    b = mz(complement(S), theta, target_rel_error=1e-8)
    assert a.value + b.value == pytest.approx(1.0, abs=1e-9)


def test_small_k6_complement_doubles_until_its_own_value_agrees():
    # the inner node doubling compares the values it returns, 1 - G plus the
    # tail, not G: stopping once G's gap was below a tenth of the target
    # read 1.4290051196352849e-05 +- 4.8e-10 here, unmet at 1e-7, though the
    # 128-to-256 gap is 1.1e-16
    shift = (-0.013, -0.206, -0.285, -0.162, -0.118, -0.122)
    est = mz(complement(p_ball(6, 0.5, 2.0)), shift, target_rel_error=1e-7)
    assert est.method == "SEP" and est.target_met
    assert abs(est.value - 1.4290051196352849e-05) <= 4.8e-10


def test_sigma_scaling():
    # scaling both the set and sigma leaves the measure unchanged
    a = mz(p_ball(2, 3.0, 1.0), [0.5, 0.1], target_rel_error=1e-8)
    b = mz(p_ball(2, 3.0, 2.0), [1.0, 0.2], sigma=2.0, target_rel_error=1e-8)
    assert a.value == pytest.approx(b.value, abs=1e-8)


def test_method_agreement_slice_polar_mc():
    S = p_ball(2, 1.0, 1.0)
    theta = [0.8, 0.3]
    ests = [mz(S, theta, method=m, target_rel_error=t, seed=7)
            for m, t in [("SEP", 1e-8), ("POLAR2D", 1e-6),
                         ("MC_PLAIN", 1e-3)]]
    ref = ests[0]
    for e in ests[1:]:
        tol = 3 * (ref.abs_error + e.abs_error)
        assert abs(e.value - ref.value) <= tol


def _mp_g(v, t):
    """Density of |Y| at v for Y ~ N(t, 1)."""
    return mpmath.npdf(v - t) + mpmath.npdf(v + t)


def _mp_F(r, t):
    """P(|Y| <= r) for Y ~ N(t, 1)."""
    return mpmath.ncdf(r + t) - mpmath.ncdf(t - r)


def _mp_pball(p, eps, theta):
    """P(sum |Z_j - theta_j|^p <= k eps^p) for k = 2 or 3 by (nested)
    mpmath integrals over the last coordinates' radii."""
    p = mpmath.mpf(p)
    rad = lambda s, v: (s**p - v**p) ** (1 / p)

    def cdf(s, th):  # P((sum_j |Y_j|^p)^(1/p) <= s) over the coordinates th
        if len(th) == 1:
            return _mp_F(s, th[0])
        if s <= 0:
            return mpmath.mpf(0)
        pts = [0] + [mpmath.mpf(x) for x in np.arange(4.0, float(s), 4.0)]
        return mpmath.quad(lambda v: cdf(rad(s, v), th[:-1])
                           * _mp_g(v, th[-1]), pts + [s])

    return float(cdf(len(theta) ** (1 / p) * eps, tuple(theta)))


@pytest.mark.parametrize("k, p, eps, shift", [
    *[(2, p, 1.0, th) for p in (0.5, 1.0, 1.5, 3.0, 4.0)
      for th in ((0.8, 0.3), (3.0, -2.5))],
    (2, 0.1, 1.0, (0.5, 2.0)),  # extremes of p
    (2, 20.0, 1.0, (2.5, -0.4)),
    (2, 1.5, 1.0, (5.0, 4.0)),  # a shift beyond the ball
    (2, 2.0, 12.0, (10.0, 5.0)),  # wide balls: rows cut across the density
    (2, 0.7, 9.0, (20.0, -4.0)),
    (3, 2.0, 1.0, (0.5, 0.2, -0.3)),
    (3, 2.0, 0.8, (1.5, -1.0, 2.0)),
    (3, 1.0, 1.0, (0.5, 0.2, -0.3)),
])
def test_slice_quad_bar_covers_oracle(k, p, eps, shift):
    # the stated error bar must cover an independent oracle: ncx2 at p = 2
    # and k = 3, else an mpmath integral (nested at k = 3)
    est = mz(p_ball(k, p, eps), shift, target_rel_error=1e-9)
    if k == 3 and p == 2.0:
        want = ncx2.cdf(k * eps * eps, k, float(np.dot(shift, shift)))
    else:
        with mpmath.workdps(20):
            want = _mp_pball(p, eps, shift)
    # at (5, 4) the value is 1.71e-7; under an absolute bar floor of 1e-15
    # the 1e-9 target was missed, and with none it is met
    assert est.method == "SEP" and est.target_met
    assert abs(est.value - want) <= est.abs_error


@pytest.mark.parametrize("shift, eps", [
    ((12.0, 0.0, 0.0), 1.5), ((0.0, 0.0, 3.0), 1.0), ((5.0, 0.0, 0.0, 0.0), 1.2),
    ((0.0, 0.0, 0.0, 2.0, 0.0), 0.9), ((0.5, -1.2, 0.8), 1.1),
    ((0.3, -0.6, 1.1, 0.4, -0.9), 1.0),
    # dense far shifts: level 0 taken on its big side, ndtr(w + t) -
    # ndtr(t - w), read (6, 6, 6) 2.8e-12 relative off under a 2.5e-31 bar
    ((6.0, 6.0, 6.0), 1.0), ((7.0, 7.0, 7.0), 1.5), ((5.0, 5.0, 5.0, 5.0), 1.0)])
def test_euclidean_balls_at_sparse_and_far_shifts(shift, eps):
    # k = 3..5 p-balls against ncx2. At k >= 3 the levels run on sorted
    # |theta|, so zero coordinates feed the inner levels and the far one the
    # outer row: at (12, 0, 0) the value is 5.6e-22, where level 0 over the
    # shift 12 read 0.0. Its bar has no absolute floor, so every one is met
    # (5.567264767190531e-22 +- 1e-15 under a 1e-15 floor)
    k = len(shift)
    est = mz(p_ball(k, 2.0, eps), shift)
    want = ncx2.cdf(k * eps * eps, k, float(np.dot(shift, shift)))
    assert est.method == "SEP" and est.target_met
    assert abs(est.value - want) <= est.abs_error
    assert abs(est.value - want) <= 1e-13 * want


def test_far_k2_ball_meets_a_small_target():
    # 6.5e-13 far out on the diagonal. Level 0 on its big side, ndtr(w + t)
    # - ndtr(t - w), read 6.478092938087067e-13 +- 1e-15, 1.9e-10 relative
    # off and unmet under an absolute floor; on its small side it keeps
    # every digit
    est = mz(p_ball(2, 1.0, 1.0), (6.0, 6.0))
    with mpmath.workdps(30):
        want = _mp_pball(1.0, 1.0, (6.0, 6.0))
    assert est.method == "SEP" and est.target_met
    assert abs(est.value - want) <= est.abs_error


# (value, abs_error) of the p-balls of test_deterministic_bits_pinned: on
# SEP's row, then as recorded on the radial convolution's own last row
_PBALL_PINS = [
    (("0x1.38590df0f89f9p-1", "0x1.c8e8bbc8f4346p-48"),
     ("0x1.38590df0f89f8p-1", "0x1.203af9ee75616p-50")),
    (("0x1.3b18a3009c6c8p-2", "0x1.5f96435a7a4b6p-48"),
     ("0x1.3b18a3009c6c8p-2", "0x1.203af9ee75616p-50"))]


def test_slice_quad_pins_cover_their_oracles():
    # the recorded p-ball bits of test_deterministic_bits_pinned, new and old
    with mpmath.workdps(20):
        wants = (_mp_pball(1.5, 1.0, (0.5, 0.2, -0.3)),
                 1.0 - _mp_pball(3.0, 1.2, (0.4, 0.1)))
    for pins, want in zip(_PBALL_PINS, wants, strict=True):
        for value, abs_error in pins:
            assert (abs(float.fromhex(value) - want)
                    <= float.fromhex(abs_error))


def test_slice_quad_resolves_a_wide_ball(monkeypatch):
    # the shifted density sits 30 from both axes inside a ball of p-radius
    # 80: panels 20 wide missed 2.4e-5 of the mass and still met the target.
    # The outer row is cut across the density; its bar covers the truth,
    # 1 - O(1e-40)
    S, shift = p_ball(2, 1.0, 40.0), (30.0, 30.0)
    est = mz(S, shift)
    assert est.method == "SEP" and est.target_met
    assert abs(est.value - 1.0) <= est.abs_error
    # so is an inner-level row: level 1 at p = 2 is ncx2's CDF; uncut, its
    # row at radius 80 misses the mass by more than 2e-5
    G0 = lambda w: gauss_measure._level0(30.0, w)
    want = ncx2.cdf(80.0 ** 2, 2, 1800.0)
    row = lambda: gauss_measure._convolve_level(G0, 2.0, 30.0, [80.0])[0]
    assert abs(row() - want) <= 1e-14
    monkeypatch.setattr(gauss_measure, "_PANEL_V", math.inf)
    assert abs(row() - want) > 2e-5


def test_slice_quad_mesh_stays_bounded_for_huge_radii(monkeypatch):
    # p-radii of 3.5e9 and 1.7e8: each inner-level row has at most 6 more
    # panels than the shared mesh, whatever the radius
    sizes, mesh = [], gauss_measure._mesh

    def counted(p, bp):
        sizes.append(bp.size - 1)
        return mesh(p, bp)

    monkeypatch.setattr(gauss_measure, "_mesh", counted)
    gauss_measure._profile.cache_clear()
    gauss_measure._level.cache_clear()
    # measure sends p = 0.05 at k = 3 to Monte Carlo (k^(1/p) > 1e6), so the
    # radial CDF runs directly
    w = 3.0 ** 20
    gauss_measure.pball_radius_cdf(3, 0.05, (0.3, 0.1, -0.2), w)(w)
    est = mz(p_ball(3, 2.0, 1e8), (0.3, -0.2, 0.1))
    assert est.target_met and abs(est.value - 1.0) <= est.abs_error
    base = gauss_measure._BP.size - 1
    assert base < max(sizes) <= base + 6
    gauss_measure._profile.cache_clear()
    gauss_measure._level.cache_clear()


def test_slice_quad_nodes_are_the_rows_it_evaluates(monkeypatch):
    # a p-ball counts the nodes of its outer row, once per inner node count:
    # one row at k = 2, with no inner level. At k = 3 from a cold cache,
    # level 1 runs its 33 Lobatto radii at n = 32 and only the 32 new odd
    # ones at 64 (98 inner rows when each n had its own points). At k = 4
    # level 2 is rebuilt at each n. A k = 1 ball is a slab, measured by
    # PRODUCT_1D without a row
    rows, conv = [], gauss_measure._convolve_level
    outer, row = [], gauss_measure._outer

    def counted(G_prev, p, theta_j, ws):
        rows.append(np.array(ws, dtype=float, ndmin=1))
        return conv(G_prev, p, theta_j, ws)

    monkeypatch.setattr(gauss_measure, "_convolve_level", counted)
    monkeypatch.setattr(gauss_measure, "_outer", lambda *a: (
        lambda r: outer.append(r[2]) or r)(row(*a)))
    for k, want, runs in [(2, [], 1), (3, [32, 33], 2),
                          (4, [32, 33, 33, 65], 2)]:
        rows.clear()
        outer.clear()
        gauss_measure._level.cache_clear()
        est = mz(p_ball(k, 1.5, 1.0), np.linspace(0.5, -0.3, k))
        assert est.method == "SEP"
        assert sorted(r.size for r in rows) == want
        assert len(outer) == runs and est.samples_or_nodes == sum(outer)
    # the doubling at k = 4 sent level 1 the odd radii of level 2's 65
    new, = (r for r in rows if r.size == 32)
    rebuilt, = (r for r in rows if r.size == 65)
    assert new.tobytes() == rebuilt[1::2].tobytes()
    gauss_measure._level.cache_clear()
    rows.clear()
    outer.clear()
    est = mz(p_ball(1, 1.5, 1.0), (0.5,))
    assert (est.method, est.samples_or_nodes, rows, outer) == (
        "PRODUCT_1D", 2, [], [])
    want = norm.cdf(0.5) - norm.cdf(-1.5)
    assert abs(est.value - want) <= est.abs_error


def test_lobatto_levels_nest_bit_for_bit():
    # the radii of a level at n are its even radii at 2n, bit for bit, so
    # level 1 keeps its rows across a doubling; they equal the rows of one
    # fresh call at every radius, and the DCT-I interpolant takes each row
    # back at its radius
    from schur2.gauss_measure import _NODES, _convolve_level, _inner, _level
    _level.cache_clear()
    p, theta = 1.5, (0.2, 0.7)
    for w_max in (1.0, 3.0 ** (1 / 1.5) * 1.3, 7.1):
        levels = [_level(p, theta, w_max, n) for n in _NODES]
        for (w, rows, _), (w2, rows2, _) in zip(levels, levels[1:]):
            assert w2[::2].tobytes() == w.tobytes()
            assert rows2[::2].tobytes() == rows.tobytes()
        G0 = lambda w: _inner(p, theta[:1], w_max, None, w)
        w, rows, coef = levels[-1]
        assert rows.tobytes() == _convolve_level(G0, p, theta[1], w).tobytes()
        y = 1.0 - w * (2.0 / w_max)
        back = np.polynomial.chebyshev.chebval(y, coef)
        assert np.max(np.abs(back - rows)) <= 1e-15
    _level.cache_clear()


def test_convolve_level_blocks_keep_bits():
    # radii are summed in fixed blocks; each row on the shared mesh must
    # equal the one-shot sum, also when rows cut across the density (w > 16
    # here) share the call. Radii are >= 0 (_level's Lobatto radii), and the
    # row at 0 is 0
    from schur2.gauss_measure import _convolve_level, _profile
    p, theta_j = 1.5, 0.7
    G = lambda w: norm.cdf(w + 0.3) - norm.cdf(-w + 0.3)
    ws = np.concatenate((np.linspace(0.0, 6.0, 53), [20.0, 45.0, 3.0]))
    u, uw, prof = _profile(p)
    # the radius (w^p - v^p)^(1/p) at v = w u is w (1 - u^p)^(1/p)
    with mpmath.workdps(40):
        exact = [float((1 - mpmath.mpf(x) ** p) ** (1 / p)) for x in u]
    assert np.allclose(prof, exact, rtol=1e-14, atol=0.0)
    got = _convolve_level(G, p, theta_j, ws)
    w = ws[(ws > 0) & (ws < 16)]
    rad = w[:, None] * prof[None, :]
    v = w[:, None] * u[None, :]
    g = norm.pdf(v - theta_j) + norm.pdf(v + theta_j)
    assert got[0] == 0.0
    assert np.array_equal(got[(ws > 0) & (ws < 16)],
                          w * (G(rad) * g * uw[None, :]).sum(axis=1))
    one = [_convolve_level(G, p, theta_j, [x])[0] for x in ws]
    assert np.array_equal(got, one)


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


# one set of each Monte Carlo family at k = 3, with its shift and method
MC_FAMILIES = [
    (pq_ball(3, 5.0, -1.0, 1.0), (0.5, 0.5, 0.5), "MC_PLAIN"),
    (pq_ball(3, 2.0, -0.4, 1.0), (1.5, 0.9, 0.3), None),
    (hat_b(3, 4.5, 1.0, 0.79), (1.5, 0.9, 0.3), None),
    (check_b(3, 1.5, 1.0, 0.45), (1.5, 0.9, 0.3), None),
    (p_ball(3, 0.0, 1.0), (1.5, 0.9, 0.3), None),
    (p_ball(3, -1.0, 1.0), (1.5, 0.9, 0.3), None),
    (pq_ball(3, 5.0, 1.0, 1.0), tuple(10.0 * np.array([1.0, 1.0, 0.5]) / 1.5),
     "MC_IMPORTANCE"),
]


def test_mc_determinism_across_workers():
    # chunk streams, not threads, fix the draws: every worker count reads
    # the same bits, which a draw buffer shared between threads, or one
    # left over from another chunk, would break
    def run(S, shift, method, w):
        gauss_measure._pball_means.cache_clear()  # p-balls: draw afresh
        e = mz(S, shift, method=method, seed=42, workers=w,
               target_rel_error=1e-6, mc_max_samples=2 * MC_ROUND_DRAWS)
        return e.value.hex(), e.abs_error.hex(), e.samples_or_nodes, e.method

    for S, shift, method in MC_FAMILIES:
        runs = [run(S, shift, method, w) for w in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2], S
        assert runs[0][2] == 2 * MC_ROUND_DRAWS
        assert runs[0][3] == (method or "MC_PLAIN"), S


def test_mc_plain_hits_match_fresh_draws():
    # plain Monte Carlo counts the members of N(0, I) - theta over its chunks,
    # drawn here into fresh arrays: the draw buffer changes no bit
    S, theta = pq_ball(3, 2.0, -0.4, 1.0), np.array([1.5, 0.9, 0.3])
    e = mz(S, theta, method="MC_PLAIN", seed=7, workers=2,
           target_rel_error=1e-6, mc_max_samples=2 * MC_ROUND_DRAWS)
    hits = sum(int(np.count_nonzero(contains_rows(
        S, gauss_measure.chunk_rng(7, c).standard_normal((1 << 15, 3)) - theta)))
        for c in range(2 * MC_ROUND_DRAWS >> 15))
    assert e.value == hits / (2 * MC_ROUND_DRAWS)


@pytest.mark.parametrize("S, shift, method", [MC_FAMILIES[i] for i in (1, 3)]
                         + [(MC_FAMILIES[2][0], (6.0, 3.6, 1.2),
                             "MC_IMPORTANCE")])
def test_mc_round_allocates_few_chunk_arrays(S, shift, method):
    # numpy reports its data buffers to tracemalloc: a warm workers=1 round of
    # 8 chunks of 32,768 x 3 draws peaks at a few chunk-sized arrays (each
    # thread's draw buffer is made before), where one fresh array per draw,
    # shift and kernel temporary took 5 to 6.7 of them
    q = GaussianShiftQuery(set=S, shift=shift, method=method,
                           mc_max_samples=MC_ROUND_DRAWS)
    measure(q)
    tracemalloc.start()
    try:
        measure(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * (1 << 15) * 3 * 8


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_mc_measure_in_a_forked_child():
    # a forked child inherits the parent's pool cache but none of its
    # threads; its workers=2 measure must return the parent's bits
    S, shift = p_ball(3, 0.0, 1.0), (0.5, 0.2, 0.1)
    bits = mz(S, shift, workers=2).value.hex()
    with warnings.catch_warnings():  # Python >= 3.12 warns on a threaded fork
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            gauss_measure._pball_means.cache_clear()
            code = int(mz(S, shift, workers=2).value.hex() != bits)
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            done = os.waitpid(pid, 0)
            break
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


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


def test_plain_draws_skip_the_member_point_search(monkeypatch):
    # the first member a ray scan meets is common under N(0, I), and the
    # descent only brings it nearer, so plain draws follow with no probe
    # past the origin check; the bits are those of the full search
    calls, contains = [], gauss_measure.sets_mod.contains
    monkeypatch.setattr(gauss_measure.sets_mod, "contains",
                        lambda S, x: calls.append(x) or contains(S, x))
    est = mz(p_ball(3, 0.0, 1.0), (2.4, 1.5, 0.5))
    assert len(calls) <= 1
    assert est.method == "MC_PLAIN"
    assert (est.value.hex(), est.abs_error.hex()) == (
        "0x1.5067000000000p-2", "0x1.e0f248de2c96fp-10")


def test_deterministic_bits_pinned():
    # (method, value, abs_error, nodes) recorded bit for bit before measure
    # divided sigma out of the engines; at sigma = 1 nothing may move. The
    # p-ball rows were recorded once they ran on SEP's outer row, and each
    # must lie within its bar of the value recorded on the radial
    # convolution's own last row (_PBALL_PINS, whose pairs
    # test_slice_quad_pins_cover_their_oracles checks).
    # The PRODUCT_1D rows were recorded once slab masses went through sums
    # of logs, and their bars once each slab's bar came from SEP's ndtr
    # rounding model (_rounding); test_product_1d_matches_mpmath checks them.
    # The POLAR2D rows were recorded once it took periodic Simpson from two
    # trapezoid means and probed only the two axis crossings of each ray;
    # its nodes count distinct rays. SEP measures them automatically now, so
    # they force POLAR2D
    cases = [
        (cube(3, 1.0), (0.3, -0.7, 2.0), None,
         ("PRODUCT_1D", "0x1.e88c1b47e746ep-5", "0x1.23026b9fd0686p-49", 6)),
        (p_ball(3, -math.inf, 1.0), (0.4, -1.1, 0.2), None,
         ("PRODUCT_1D", "0x1.dedc25e9017adp-1", "0x1.9636c33398282p-47", 6)),
        (complement(p_ball(2, math.inf, 0.8)), (0.5, -0.2), None,
         ("PRODUCT_1D", "0x1.68b1e91a83f6dp-1", "0x1.b67d03b754cb2p-47", 4)),
        (p_ball(3, 1.5, 1.0), (0.5, 0.2, -0.3), 1e-8,
         ("SEP", *_PBALL_PINS[0][0], 3456)),
        (complement(p_ball(2, 3.0, 1.2)), (0.4, 0.1), None,
         ("SEP", *_PBALL_PINS[1][0], 1728)),
        (pq_ball(2, 2.0, -0.4, 1.0), tuple(rotate2([1.0, 0.0], math.pi / 5)),
         None,
         ("POLAR2D", "0x1.0cd1cfe4b9939p-1", "0x1.02fbdc79c0000p-17", 4096)),
        (hat_b(2, 4.5, 1.0, 0.9), (0.5, 0.2), None,
         ("POLAR2D", "0x1.bd06f4addeadbp-1", "0x1.fa7af28000000p-26", 1024)),
        (check_b(2, 1.5, 1.0, 0.45), (0.3, 0.6), None,
         ("POLAR2D", "0x1.d200fcb34f5dbp-2", "0x1.2a3fb94c00000p-21", 8192)),
    ]
    for S, shift, target, want in cases:
        est = mz(S, shift, target_rel_error=target,
                 method="POLAR2D" if want[0] == "POLAR2D" else None)
        got = (est.method, est.value.hex(), est.abs_error.hex(),
               est.samples_or_nodes)
        assert got == want
    for (value, abs_error), (before, _) in _PBALL_PINS:
        assert (abs(float.fromhex(value) - float.fromhex(before))
                <= float.fromhex(abs_error))


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


def test_chi2_helpers_match_scipy_stats_bits():
    # the solvers, the ARE closed form and the importance-draw gate call the
    # special functions under scipy.stats.chi2 and ncx2 directly, so that
    # importing the package never loads scipy.stats; every value must keep
    # its bits, and a scipy release that moves one must fail here
    from scipy.special import chdtrc, chdtri, chndtrinc, gammaincinv
    from scipy.special._ufuncs import _ncx2_sf
    from schur2.solvers import _s2_norm, critical_value, tail_probability
    k = np.arange(1, 17)[:, None]
    a = np.concatenate([np.logspace(-300.0, 0.0, 1201)[:-1],
                        np.linspace(0.0, 1.0, 2001)[1:-1], [1.0 - 2.0**-53]])
    x = np.concatenate([[0.0, 5e-324, 1e-300, math.inf, math.nan],
                        np.logspace(-8.0, 3.5, 2001)])
    assert _bits(chdtrc(k, x)) == _bits(chi2.sf(x, k))
    assert _bits(chdtri(k, a)) == _bits(chi2.isf(a, k))
    assert _bits(2.0 * gammaincinv(k / 2, 1.0 - a)) == _bits(
        chi2.ppf(1.0 - a, k))
    # ncx2.sf takes chi2 at nc = 0, and off its open support (0, inf),
    # where the bare ufunc reads -0.0 or NaN; below x ~ 1e-8 at nc >= 900
    # both raise scipy's OverflowError
    assert _bits(chdtrc(k, x)) == _bits(ncx2.sf(x, k, 0.0))
    xs = np.logspace(-4.0, 3.5, 1501)
    for nc in (1e-12, 0.3, 4.0, 50.0, 900.0, 1e5):
        assert _bits(_ncx2_sf(xs, k, nc)) == _bits(ncx2.sf(xs, k, nc))
    # the call sites, with c = 0 and x = k c^2 = 0, inf or NaN among them,
    # and a NaN shift, which ncx2.sf reads as NaN at every x; like ncx2.sf,
    # the p = 2 tail warns of no overflow inside the special function
    cs = (0.0, 1e-200, 1e-2, 0.4, 1.0, 1.7, 3.0, 8.0, 40.0, 1e200, math.nan)
    betas = (0.06, 0.5, 0.9)
    alphas = (1e-300, 1e-30, 1e-8, 0.01, 0.05, 0.5, 0.99, 1.0 - 2.0**-53)
    for kk in range(1, 17):
        for nc in (0.0, 1e-12, 0.3, 4.0, 50.0, 900.0, 1e5, math.nan):
            shift = np.full(kk, math.sqrt(nc / kk))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [tail_probability(kk, 2.0, c, shift)[0] for c in cs]
            want = [ncx2.sf(kk * c * c, kk, float(shift @ shift)) for c in cs]
            assert _bits(got) == _bits(want)
        if kk > 1:  # k = 1 takes -ndtri(alpha / 2)
            assert _bits([critical_value(kk, 2.0, al) for al in alphas]) == (
                _bits([math.sqrt(chi2.isf(al, kk) / kk) for al in alphas]))
        assert _bits([_s2_norm(kk, 0.05, b) for b in betas]) == _bits(
            [math.sqrt(chndtrinc(chi2.isf(0.05, kk), kk, 1.0 - b))
             for b in betas])


def test_profile_cache_keeps_bits_and_its_size():
    # the inner levels keep one theta-free radii profile per p; a warm
    # cache must give the bits of a cold one, a shift search at one p reuses
    # the same profile, and the cache stays bounded
    S, shift = p_ball(3, 1.5, 1.0), (0.5, 0.2, -0.3)
    gauss_measure._profile.cache_clear()
    gauss_measure._level.cache_clear()
    cold = mz(S, shift, target_rel_error=1e-8)
    warm = mz(S, shift, target_rel_error=1e-8)
    assert (warm.value.hex(), warm.abs_error.hex()) == (
        cold.value.hex(), cold.abs_error.hex()) == _PBALL_PINS[0][0]
    for t in (0.5, 1.0, 2.0):
        mz(S, (t, 0.4 * t, -0.2 * t))
    assert gauss_measure._profile.cache_info().misses == 1
    for p in (1.1, 1.2, 1.3, 1.4, 1.6, 1.7, 1.8, 1.9):
        mz(p_ball(3, p, 1.0), (0.4, 0.1, 0.2))
    info = gauss_measure._profile.cache_info()
    assert info.maxsize == 8
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
    (p_ball(3, 0.0, 1.0), (0.5, 0.2, 0.1), "SEP"),
    (cube(2, 1.0), (0.5, 0.2), "SEP"),
    (pq_ball(2, math.inf, 1.0, 1.0), (0.5, 0.2), "SEP"),
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
    assert capped.samples_or_nodes == 1024
    assert capped.target_met is False
    met = mz(S, shift, method="POLAR2D", target_rel_error=1e-2)
    assert met.target_met is True


def _mp_disjoint_check_b(p, a, eps, theta):
    """Check-B at k = 2 when its four l^p balls of radius (2 eps^p)^(1/p)
    around (+-a, 0) and (0, +-a) are disjoint: a sum of four 1-D mpmath
    integrals of chords."""
    with mpmath.workdps(20):
        p, want = mpmath.mpf(p), 0
        r = (2 * mpmath.mpf(eps) ** p) ** (1 / p)
        for cx, cy in ((a, 0), (-a, 0), (0, a), (0, -a)):
            def chord(u, x=cx + theta[0], y=cy + theta[1]):
                h = (r ** p - abs(u) ** p) ** (1 / p)
                return mpmath.npdf(x + u) * (mpmath.ncdf(y + h)
                                             - mpmath.ncdf(y - h))
            want += mpmath.quad(chord, [-r, 0, r])
        return want


def test_polar_bar_covers_check_b_oracle():
    # with 54 offset probes a ray, POLAR2D read 0.16372631 +- 1.8e-7, 2.2x
    # off; SEP measures this set automatically now, so POLAR2D is forced
    theta = 2.0 * np.array([math.cos(math.pi / 5), math.sin(math.pi / 5)])
    want = _mp_disjoint_check_b(1.5, 1.0, 0.45, theta)
    est = mz(check_b(2, 1.5, 1.0, 0.45), theta, method="POLAR2D")
    assert est.method == "POLAR2D" and est.target_met
    assert abs(est.value - float(want)) <= est.abs_error


def test_polar_bits_pinned():
    # (method, value, abs_error, nodes) recorded bit for bit once POLAR2D
    # took periodic Simpson from two trapezoid means and probed only the two
    # axis crossings of each ray; each lies within its bar of the value
    # before. The far q < 0 shift runs the axis hints and the far tail.
    # SEP measures these sets automatically now, so POLAR2D is forced
    far = tuple(11.0 * np.array([math.cos(math.pi / 20),
                                 math.sin(math.pi / 20)]))
    cases = [
        (pq_ball(2, 1.0, 0.0, 1.0), (4.5, 0.0),
         ("POLAR2D", "0x1.858733283fb71p-10", "0x1.0347cdc000000p-34", 1024)),
        (pq_ball(2, 0.7, 0.7, 1.0), (3.0, 0.0),
         ("POLAR2D", "0x1.2c5fe10ad7ad2p-5", "0x1.3592442c40000p-22", 4096)),
        (pq_ball(2, 2.0, -0.4, 1.0), far,
         ("POLAR2D", "0x1.73e6ec8c5de10p-20", "0x1.5e40000000000p-60", 1024)),
        (complement(check_b(2, 1.5, 1.0, 0.45)), (0.3, 0.6),
         ("POLAR2D", "0x1.16ff81a658513p-1", "0x1.2a3fb94c00000p-21", 8192)),
    ]
    for S, shift, want in cases:
        est = mz(S, shift, method="POLAR2D")
        got = (est.method, est.value.hex(), est.abs_error.hex(),
               est.samples_or_nodes)
        assert got == want


def _mp_pq_polar(p, q, eps, theta):
    """P(Z - theta in the (p, q)-ball) at k = 2 in polar coordinates: M_(p,q)
    is 1-homogeneous, so the ball is rho <= eps / M(cos phi, sin phi) and
    each ray's Gaussian mass is a closed form; an integration order SEP
    does not use."""
    with mpmath.workdps(20):
        p, q, eps = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(eps)
        t1, t2 = map(mpmath.mpf, theta)

        def M(a):  # the (p, q)-mean of the magnitudes a
            if p == q == 0:
                return mpmath.sqrt(a[0] * a[1])
            if p == q:
                w = [x ** p for x in a]
                return mpmath.exp(sum(wi * mpmath.log(x)
                                      for wi, x in zip(w, a)) / sum(w))
            s = lambda e: 2 if e == 0 else sum(x ** e for x in a)
            return (s(p) / s(q)) ** (1 / (p - q))

        def ray(phi):
            c, s = mpmath.cos(phi), mpmath.sin(phi)
            m, u = M([abs(c), abs(s)]), c * t1 + s * t2
            far = mpmath.exp(-(eps / m - u) ** 2 / 2) if m > 0 else 0
            R = eps / m if m > 0 else mpmath.inf
            return (mpmath.exp(-(t1 ** 2 + t2 ** 2 - u ** 2) / 2)
                    * (mpmath.exp(-u ** 2 / 2) - far + u * mpmath.sqrt(
                        2 * mpmath.pi) * (mpmath.ncdf(R - u)
                                          - mpmath.ncdf(-u)))
                    / (2 * mpmath.pi))
        return mpmath.quad(ray, [i * mpmath.pi / 4 for i in range(9)])


def _mp_hat_b(p, a, eps, theta):
    """hat-B at k = 2 as a 1-D mpmath integral over |Y_1| of the N(theta_2,
    1) mass of ||x| - a| <= (2 eps^p - ||y| - a|^p)^(1/p)."""
    with mpmath.workdps(20):
        p, a, eps = map(mpmath.mpf, (p, a, eps))
        t1, t2 = map(mpmath.mpf, theta)
        r, e = 2 ** (1 / p) * eps, 2 * eps ** p - a ** p

        def f(y):
            D = 2 * eps ** p - abs(y - a) ** p
            d = D ** (1 / p) if D > 0 else 0
            lo, hi = max(a - d, 0), a + d
            return ((mpmath.npdf(y - t1) + mpmath.npdf(y + t1))
                    * (mpmath.ncdf(hi - t2) - mpmath.ncdf(lo - t2)
                       + mpmath.ncdf(-lo - t2) - mpmath.ncdf(-hi - t2)))
        pts = {0, a, a - r, a + r} | ({a - e ** (1 / p), a + e ** (1 / p)}
                                      if e > 0 else set())
        return mpmath.quad(f, sorted(x for x in pts if 0 <= x <= a + r))


_R1, _R2 = math.pi / 16, math.pi / 5
_HAT = hat_b(2, 4.5, 1.0, 2.0 ** (-1.0 / 4.5) + 0.01)  # the figure-1 hat-B


def _at(r, t):
    return (r * math.cos(t), r * math.sin(t))


_SEP_ORACLES = [
    # the 1 - 4.5 bars POLAR2D missed by: near pq(0.7, 0.7), mid hat-B, far
    # check-B; both polar and Cartesian mpmath orders give 0.19328412451909
    (pq_ball(2, 0.7, 0.7, 1.0), _at(2.0, _R2),
     lambda th: _mp_pq_polar(0.7, 0.7, 1.0, th)),
    (_HAT, _at(3.0, _R2), lambda th: _mp_hat_b(4.5, 1.0, _HAT.eps, th)),
    (check_b(2, 1.5, 1.0, 0.45), _at(2.0, _R2),
     lambda th: _mp_disjoint_check_b(1.5, 1.0, 0.45, th)),
    (check_b(2, 1.5, 1.0, 0.45), _at(8.0, _R2),
     lambda th: _mp_disjoint_check_b(1.5, 1.0, 0.45, th)),
    # the l^1 ball of radius 2 is a square turned by pi/4: a product of two
    # slabs in the turned coordinates
    (pq_ball(2, 1.0, 0.0, 1.0), _at(12.0, _R1), lambda th: mpmath.fprod(
        mpmath.ncdf(mpmath.sqrt(2) - m) - mpmath.ncdf(-mpmath.sqrt(2) - m)
        for m in ((th[0] + th[1]) / mpmath.sqrt(2),
                  (th[0] - th[1]) / mpmath.sqrt(2)))),
    # a maximum of h: slices [0, x_lo] u [x_hi, inf)
    (pq_ball(2, -1.0, -3.0, 1.0), (0.8, 0.5),
     lambda th: _mp_pq_polar(-1.0, -3.0, 1.0, th)),
    (pq_ball(2, -0.5, -0.5, 1.0), (1.2, -0.3),
     lambda th: _mp_pq_polar(-0.5, -0.5, 1.0, th)),
    (p_ball(2, 0.0, 1.0), (1.0, 0.6), lambda th: _mp_pq_polar(0, 0, 1.0, th)),
    (p_ball(2, -3.0, 1.2), (-1.0, -1.0),
     lambda th: _mp_pq_polar(0.0, -3.0, 1.2, th)),
    (p_ball(2, 1e-4, 1.0), (-3.9, -0.9),
     lambda th: _mp_pq_polar(1e-4, 0.0, 1.0, th)),
    # slice ends sweep across the density of Y_2 within 0.3 of |Y_1|
    (pq_ball(2, 0.3, -2.0, 0.5), (1.5, 0.4),
     lambda th: _mp_pq_polar(0.3, -2.0, 0.5, th)),
    (hat_b(2, 1.0, 0.5, 1.0), (1.3, -3.8),
     lambda th: _mp_hat_b(1.0, 0.5, 1.0, th)),
    # overlapping balls: the slice [0, min(y, d(y))] has kinks where d = y.
    # 0.629656414569122 is the mpmath integral over x_1 of the union of the
    # four balls' slices in |x_2|, cut where they meet or vanish
    (check_b(2, 2.0, 0.5, 1.0), (1.1, 0.3), lambda th: 0.629656414569122),
    # p > q > 0, a figure-1 panel: H turns at a minimum, and each slice
    # [x_lo, x_hi] closes where its ends meet at that turning point
    (pq_ball(2, 5.0, 1.0, 1.0), _at(1.0, _R2),
     lambda th: _mp_pq_polar(5.0, 1.0, 1.0, th)),
    (pq_ball(2, 5.0, 1.0, 1.0), _at(4.5, _R1),
     lambda th: _mp_pq_polar(5.0, 1.0, 1.0, th)),
]


@pytest.mark.parametrize("S, shift, oracle", _SEP_ORACLES)
def test_sep_covers_oracles(S, shift, oracle):
    # SEP measures every k = 2 set off PRODUCT_1D; the set
    # and its complement must each meet the default target with a bar that
    # covers an oracle computed another way
    want = oracle(shift)
    for T, w in ((S, want), (complement(S), 1 - want)):
        est = mz(T, shift)
        assert est.method == "SEP" and est.target_met
        assert abs(est.value - float(w)) <= est.abs_error


# (value, abs_error, nodes) of SEP on each figure-1 panel at 3 (cos pi/5,
# sin pi/5), then on its complement, recorded when SEP graded its panels
# toward every cut. At this shift each panel has a cut where its integrand
# is analytic; at radii up to 2 the bounded panels have none, and their
# meshes are the same either way
_SEP_GRADED_AT_EVERY_CUT = [
    (("0x1.50d3d8f84f032p-3", "0x1.523a4aa691131p-48", 23280),
     ("0x1.abcb09c1ec3f3p-1", "0x1.675ab432814fbp-46", 23280)),
    (("0x1.69d97b17b4fd4p-5", "0x1.7cb406cd950e3p-49", 21168),
     ("0x1.e962684e84b04p-1", "0x1.807327acf2a5dp-46", 21168)),
    (("0x1.1af8d3dd2ec0bp-5", "0x1.657466598f58ep-49", 21168),
     ("0x1.ee5072c22d140p-1", "0x1.a35850f4f4fe2p-46", 21168)),
    (("0x1.28cea1c7c5262p-5", "0x1.1e635748937c6p-50", 9408),
     ("0x1.ed7315e383adap-1", "0x1.cb07ce33ead50p-47", 9408)),
    (("0x1.8cbe4f29b3542p-5", "0x1.ace1cf61d7f64p-50", 7056),
     ("0x1.e7341b0d64cadp-1", "0x1.efe62f9485f58p-47", 7056)),
    (("0x1.70c83035455f1p-6", "0x1.672030a2e2f44p-51", 9408),
     ("0x1.f479be7e55d51p-1", "0x1.ba83f8231b8e0p-47", 9408)),
    (("0x1.567c058c40310p-6", "0x1.49dffea1aa769p-51", 9408),
     ("0x1.f54c1fd39dfe7p-1", "0x1.b977bc468aaccp-47", 9408)),
    (("0x1.84af50779c90bp-3", "0x1.379e2f10e4965p-48", 11760),
     ("0x1.9ed42be218dbdp-1", "0x1.8083ea9a4fe2ep-47", 11760)),
    (("0x1.013be02d4e9d8p-5", "0x1.49ff684d1372ap-50", 28176),
     ("0x1.efec41fd2b163p-1", "0x1.a604ba9554208p-47", 28176)),
]


def test_sep_grades_only_toward_kinks():
    # off the kinks the integrand is analytic, so plain breakpoints there
    # give the same integral from fewer nodes, with a bar no wider
    for S, rows in zip(FIG1_PANELS, _SEP_GRADED_AT_EVERY_CUT, strict=True):
        for T, (v, e, n) in zip((S, complement(S)), rows):
            v, e, est = float.fromhex(v), float.fromhex(e), mz(T, _at(3, _R2))
            assert est.method == "SEP" and est.samples_or_nodes < n
            assert abs(est.value - v) <= e + est.abs_error
            assert est.abs_error <= 1.1 * e


# QUADPACK's qk15 (Piessens et al. 1983): the 15-point Kronrod abscissae
# from the end to the centre, their weights, and the weights of the 7-point
# Gauss rule at every second abscissa
_QK15_XGK = (0.991455371120812639206854697526329,
             0.949107912342758524526189684047851,
             0.864864423359769072789712788640926,
             0.741531185599394439863864773280788,
             0.586087235467691130294144845693013,
             0.405845151377397166906606412076961,
             0.207784955007898467600689403773245, 0.0)
_QK15_WGK = (0.022935322010529224963732008058970,
             0.063092092629978553290700663189204,
             0.104790010322250183839876322541518,
             0.140653259715525918745189590510238,
             0.169004726639267902826583426598550,
             0.190350578064785409913256402421014,
             0.204432940075298892414161999234649,
             0.209482141084727828012999174891714)
_QK15_WG = (0.129484966168869693270611432679082,
            0.279705391489276667901467771423780,
            0.381830050505118944950369775488975,
            0.417959183673469387755102040816327)


def test_gauss_kronrod_reproduces_quadpack_qk15():
    x, wk, wg = gauss_measure._gauss_kronrod(7)
    assert np.abs(x[:8] + np.array(_QK15_XGK)).max() <= 1e-15
    assert np.abs(x + x[::-1]).max() <= 1e-15  # symmetric about 0
    assert np.abs(wk[:8] - np.array(_QK15_WGK)).max() <= 1e-15
    assert np.abs(wg[1:8:2] - np.array(_QK15_WG)).max() <= 1e-15
    assert not wg[::2].any()  # the Gauss rule skips the new nodes


def test_sep_rule_is_exact_to_its_degree():
    # K27 integrates P_d exactly for d <= 40 (int P_d = 2 at d = 0, else 0),
    # and its embedded G13 is numpy's 13-point Gauss-Legendre rule
    x, wk, wg = gauss_measure._gauss_kronrod(13)
    P = np.polynomial.legendre.legvander(x, 40)
    exact = np.r_[2.0, np.zeros(40)]
    assert np.abs(wk @ P - exact).max() <= 1e-14
    xg, wg13 = np.polynomial.legendre.leggauss(13)
    assert np.array_equal(x[1::2], xg) and np.array_equal(wg[1::2], wg13)
    assert np.abs(wg @ P[:, :26] - exact[:26]).max() <= 1e-14


# the 21 polar2d benchmark queries (figure-1 sets, near to far shifts)
_QNEG, _Q0, _PEQ, _PQ, _HATB, _CHECKB = (FIG1_PANELS[i]
                                        for i in (1, 4, 3, 6, 7, 8))
_POLAR2D_QUERIES = [(S, _at(r, t)) for S, r, t in [
    (_QNEG, 1.0, _R2), (_QNEG, 1.0, math.pi / 20), (_QNEG, 3.0, _R1),
    (_QNEG, 8.0, _R2), (_QNEG, 11.0, _R2), (_QNEG, 11.0, math.pi / 20),
    (_Q0, 2.0, _R2), (_Q0, 4.5, _R2), (_Q0, 12.0, _R1),
    (_PEQ, 2.0, _R2), (_PEQ, 3.0, _R2), (_PEQ, 8.0, _R1),
    (_PQ, 1.0, _R2), (_PQ, 4.5, _R1), (_PQ, 12.0, _R2),
    (_HATB, 2.0, _R1), (_HATB, 3.0, _R2), (_HATB, 12.0, _R1),
    (_CHECKB, 2.0, _R2), (_CHECKB, 4.5, _R2), (_CHECKB, 8.0, _R2)]]


def test_sep_node_budget_on_the_polar2d_queries(monkeypatch):
    # the polar2d queries and their complements: SEP counts every node it
    # evaluates, 27 per panel; two Gauss rules evaluated 683,904 and counted
    # half of them, and K27 on panels halved 49 times toward each end took
    # 384,696
    seen, npdf = [], gauss_measure._npdf
    monkeypatch.setattr(gauss_measure, "_npdf",
                        lambda v: seen.append(np.size(v)) or npdf(v))
    nodes = 0
    for S, shift in _POLAR2D_QUERIES:
        for T in (S, complement(S)):
            est = mz(T, shift)
            assert est.method == "SEP" and est.target_met
            nodes += est.samples_or_nodes
    assert sum(seen) == 2 * nodes  # Y_1's density at y -+ theta_1, per node
    assert nodes <= 260_000


# _BP as it was, halving 49 times toward each end of [0, 1]
_BP_49 = np.unique(np.r_[0.0, 1.0, (e := 0.5 ** np.arange(1.0, 50.0)), 1.0 - e])


def test_bp_grading_matches_49_halvings(monkeypatch):
    # _BP halves 32 times toward each end of an interval; below 2^-32 the
    # tip panels hold less than rounding. Against 49 halvings every answer
    # stays met, every value agrees to 1e-14 relative and no bar widens by
    # more than 10 % or past 1e-13 of its value: SEP on the polar2d queries,
    # the figure-1 panels, its oracle cases and extreme exponents at two
    # shifts, with complements; p-balls at target 1e-10; and c at alpha
    # .05 from the k = 2 polar tail and the k >= 3 radial CDF, at p >= 0.5,
    # where a solve takes under 0.1 s
    extremes = [hat_b(2, 50.0, 1.0, 2.0 ** (-1.0 / 50.0) + 0.01),
                check_b(2, 50.0, 1.0, 0.45), p_ball(2, 0.1, 1.0),
                pq_ball(2, 40.0, 1.0, 1.0), pq_ball(2, 0.05, 0.05, 1.0)]
    sep = [(T, shift) for S, shift in [
        *_POLAR2D_QUERIES, *((S, _at(3.0, _R2)) for S in FIG1_PANELS),
        *((S, shift) for S, shift, _ in _SEP_ORACLES),
        *((S, _at(r, t)) for S in extremes for r, t in ((1.0, _R2),
                                                        (4.5, _R1)))]
        for T in (S, complement(S))]
    grid = [(k, p) for k in (2, 3, 4) for p in (0.1, 0.3, 0.5, 1.0, 4.0, 20.0)
            if bounded_root(k, p)]

    def clear():  # the levels too: they were built on the other _BP
        gauss_measure._profile.cache_clear()
        gauss_measure._level.cache_clear()
        solvers._exact_critical_value.cache_clear()

    def run():
        clear()
        got = [(e.value, e.abs_error, e.target_met) for e in (
            mz(T, shift, method="SEP") for T, shift in sep)]
        for k, p in grid:
            _, v, e, _ = gauss_measure._sep(
                p_ball(k, p, 1.0), np.array([0.6, -0.3, 0.2, 0.1][:k]),
                1e-10, None)
            got.append((v, e, gauss_measure._target_met(v, e, 1e-10)))
        cs = [solvers._exact_critical_value(k, p, 0.05) for k, p in grid
              if p >= 0.5]
        return got, cs

    try:
        got, cs = run()
        with monkeypatch.context() as m:
            m.setattr(gauss_measure, "_BP", _BP_49)
            was, cs_was = run()
    finally:
        clear()
    for (v, e, met), (v0, e0, met0) in zip(got, was, strict=True):
        assert met and met0
        assert abs(v - v0) <= 1e-14 * v0
        assert e <= max(1.1 * e0, 1e-13 * v)
    for c, c0 in zip(cs, cs_was, strict=True):
        assert abs(c - c0) <= 1e-14 * c0


def test_sep_slice_roots_take_few_newton_steps(monkeypatch):
    # where H turns, the slices next to the reach end on a near-double root;
    # started on H's quadratic model about the turning point, Newton needs
    # few steps there (27 or 28 from a start at 0)
    steps, solve = [], gauss_measure._solve

    def counted(H, dH, c, lo, hi, *start):
        calls = []
        x = solve(lambda v: calls.append(v) or H(v), dH, c, lo, hi, *start)
        steps.append(len(calls) - 2)  # H at the bracket ends is no step
        return x

    monkeypatch.setattr(gauss_measure, "_solve", counted)
    for S, shift in ((pq_ball(2, 5.0, 1.0, 1.0), _at(1.0, _R2)),
                     (pq_ball(2, 0.7, 0.7, 1.0), _at(2.0, _R2))):
        for T in (S, complement(S)):
            steps.clear()
            assert mz(T, shift).method == "SEP"
            assert steps and max(steps) <= 10


def test_sep_bits_agree_on_every_symmetry_image():
    # every family is invariant under the 8 signed permutations of the
    # plane, and SEP sorts |theta|, so each image gives the same bits
    for S, shift in [(pq_ball(2, 2.0, -0.4, 1.0), _at(11.0, math.pi / 20)),
                     (pq_ball(2, 5.0, 1.0, 1.0), _at(4.5, _R1)),
                     (_HAT, _at(2.0, _R1)),
                     (complement(check_b(2, 1.5, 1.0, 0.45)), _at(4.5, _R2)),
                     (p_ball(2, 0.0, 1.0), (0.3, -1.7))]:
        x, y = shift
        got = {(e.value.hex(), e.abs_error.hex(), e.samples_or_nodes)
               for e in (mz(S, (sx * a, sy * b))
                         for a, b in ((x, y), (y, x))
                         for sx in (1, -1) for sy in (1, -1))}
        assert len(got) == 1


# pq-balls with an infinite exponent: the larger exponent +inf makes the
# cube {max_j |x_j| <= eps}, else the smaller one -inf the slab union
# {min_j |x_j| <= eps}, which is p_ball(k, -inf, eps)
_INFINITE_EXPONENTS = [(math.inf, q) for q in (-math.inf, -0.4, 1.0, 3.0,
                                               math.inf)] + [
    (p, -math.inf) for p in (5.0, 0.0, -1.0, -math.inf)]


def _equal_sets(k):
    """(spelling, p-ball) pairs of one set: cubes and infinite-exponent
    pq-balls are p = +-inf balls, hat-B and check-B at a = 0 p-balls."""
    pairs = [(cube(k, 1.3), p_ball(k, math.inf, 1.3))]
    pairs += [(pq_ball(k, p, q, 1.3), p_ball(
        k, math.inf if max(p, q) == math.inf else -math.inf, 1.3))
        for p, q in _INFINITE_EXPONENTS]
    return pairs + [(make(k, p, 0.0, 1.3), p_ball(k, p, 1.3))
                    for make in (hat_b, check_b) for p in (1.0, 1.5, 2.0, 3.0)]


def test_infinite_exponent_balls_return_their_twins_bits():
    # every spelling of a set returns its p-ball's engine and bits, and its
    # class, at k = 1, 2, 3 and 6
    for shift in ((0.7,), (0.7, -0.3), (0.4, -1.1, 0.2),
                  (0.4, -1.1, 0.2, 0.3, -0.5, 0.1)):
        for S, twin in _equal_sets(len(shift)):
            for T, W in ((S, twin), (complement(S), complement(twin))):
                got, want = mz(T, shift), mz(W, shift)
                assert got.method == want.method
                assert got.method in ("PRODUCT_1D", "SEP") and got.target_met
                assert ((got.value.hex(), got.abs_error.hex(),
                         got.samples_or_nodes) ==
                        (want.value.hex(), want.abs_error.hex(),
                         want.samples_or_nodes))
                assert classify_set(T) == classify_set(W)
    # POLAR2D read this one as 0.37911882 +- 1.5e-6; the cube's is exact
    est = mz(pq_ball(2, math.inf, 1.0, 1.0), (0.7, -0.3))
    assert (est.value.hex(), est.abs_error.hex()) == (
        "0x1.8437392df6a29p-2", "0x1.3a49473644170p-47")


def _mp_slab_pair(lo, hi, t):
    """P(lo <= |Y| <= hi) for Y ~ N(t, 1), at 40 digits."""
    with mpmath.workdps(40):
        lo, hi, t = map(mpmath.mpf, (lo, hi, t))
        return (mpmath.ncdf(hi - t) - mpmath.ncdf(lo - t)
                + mpmath.ncdf(-lo - t) - mpmath.ncdf(-hi - t))


def test_k1_hat_and_check_b_return_one_slab_pairs_bits():
    # at k = 1 hat-B and check-B are both the slab pair ||x| - a| <= eps,
    # the slab |x| <= a + eps when a < eps: every spelling returns the same
    # PRODUCT_1D bits, within its bar of the closed form
    for p, a, shift in itertools.product((1.0, 1.5, 2.0, 3.0), (0.3, 1.0),
                                         (0.0, 0.3, 2.5)):
        spellings = [hat_b(1, p, a, 0.5), check_b(1, p, a, 0.5)]
        spellings += [p_ball(1, p, a + 0.5)] if a < 0.5 else []
        want = _mp_slab_pair(max(a - 0.5, 0.0), a + 0.5, shift)
        for comp in (False, True):
            got = [mz(complement(S) if comp else S, (shift,))
                   for S in spellings]
            assert len({(e.method, e.value.hex(), e.abs_error.hex(),
                         e.samples_or_nodes) for e in got}) == 1
            assert got[0].method == "PRODUCT_1D" and got[0].target_met
            assert abs(got[0].value - (1 - want if comp else want)) <= (
                got[0].abs_error)
    # Monte Carlo read them as 0.48105 +- 2.0e-3 and 0.55613 +- 1.9e-3
    for S, want in ((hat_b(1, 2.0, 1.0, 0.5), 0.48159569980965966),
                    (hat_b(1, 1.5, 0.3, 0.5), 0.5557964003276304)):
        est = mz(S, (0.3,))
        assert abs(est.value - want) <= est.abs_error


def test_no_automatic_k1_measure_runs_monte_carlo():
    # every k = 1 set is a slab or a slab pair, so PRODUCT_1D takes each one
    # and its complement, within its bar of the closed form
    sets = ([cube(1, 1.0), hat_b(1, 4.5, 1.0, 0.9), hat_b(1, 1.5, 0.2, 0.9),
             check_b(1, 1.5, 1.0, 0.45), check_b(1, 3.0, 2.0, 0.5)]
            + [p_ball(1, p, 1.0) for p in (-math.inf, -1.0, 0.0, 0.05, 1.0,
                                           2.0, 3.0, math.inf)]
            + [pq_ball(1, p, q, 1.0) for p, q in [(2.0, -0.4), (5.0, 1.0),
                                                  (0.7, 0.7)]
               + _INFINITE_EXPONENTS])
    for S in sets:
        a = S.a or 0.0
        want = _mp_slab_pair(max(a - S.eps, 0.0), a + S.eps, 0.5)
        for T, w in ((S, want), (complement(S), 1 - want)):
            assert gauss_measure.engine(T)[0] == ("PRODUCT_1D",)
            est = mz(T, (-0.5,))
            assert est.method == "PRODUCT_1D" and est.target_met
            assert abs(est.value - w) <= est.abs_error


def test_no_automatic_k2_measure_runs_polar2d():
    # POLAR2D sits past Monte Carlo's row, which can measure anything, and
    # PRODUCT_1D or SEP takes every k = 2 family, so it runs only when forced
    sets = ([cube(2, 1.0), hat_b(2, 4.5, 1.0, 0.9), check_b(2, 1.5, 1.0, 0.45)]
            + [p_ball(2, p, 1.0) for p in (-math.inf, -1.0, 0.0, 0.05, 1.0,
                                           2.0, 3.0, math.inf)]
            + [pq_ball(2, p, q, 1.0) for p, q in [(2.0, -0.4), (5.0, 1.0),
                                                  (0.7, 0.7)]
               + _INFINITE_EXPONENTS])
    for S in sets:
        for T in (S, complement(S)):
            assert gauss_measure.engine(T)[0] != ("POLAR2D",)
            assert mz(T, (0.5, 0.2)).method in ("PRODUCT_1D", "SEP")
    forced = gauss_measure.engine(pq_ball(2, 2.0, -0.4, 1.0), "POLAR2D")
    assert forced[0] == ("POLAR2D",)
