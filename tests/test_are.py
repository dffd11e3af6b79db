import math

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2

from schur2.are_analysis import (are, are_direction_sweep, are_extremes,
                                 are_limit_trend, sweep_records)
from schur2 import solvers
from schur2.gauss_measure import rotate2
from schur2.solvers import TestDesign, _s2_norm, normalize_direction


def design(k, p, u, alpha=0.05, beta=0.95):
    return TestDesign(k, p, alpha, beta, tuple(normalize_direction(u)))


def test_p2_is_exactly_one():
    r = are(design(2, 2.0, [0.3, 0.7]))
    assert r.are == 1.0
    assert r.s2_norm == r.sp_norm


def test_reference_value_p1_diagonal():
    r = are(design(2, 1.0, [1.0, 1.0]))
    assert r.are == pytest.approx(1.0317, abs=0.003)


def test_sup_mean_coordinate_matches_p1_diagonal():
    # k=2 duality: the sup-mean test in a coordinate direction behaves as the
    # 1-mean test in the 45-degree rotated direction
    r_inf = are(design(2, math.inf, [math.sqrt(2), 0.0]))
    r_1 = are(design(2, 1.0, [1.0, 1.0]))
    assert r_inf.are == pytest.approx(r_1.are, abs=3 * (r_inf.error + r_1.error) + 1e-6)


def test_duality_on_random_directions():
    rng = np.random.default_rng(0)
    u = normalize_direction(rng.standard_normal(2))
    r_inf = are(design(2, math.inf, u))
    r_1 = are(design(2, 1.0, rotate2(u, math.pi / 4.0)))
    assert r_inf.are == pytest.approx(r_1.are,
                                      abs=3 * (r_inf.error + r_1.error) + 1e-6)


def test_gk_invariance_of_are():
    u = normalize_direction([0.9, -0.5])
    v = normalize_direction([0.5, 0.9])  # group image of u
    a = are(design(2, 3.0, u))
    b = are(design(2, 3.0, v))
    assert a.are == pytest.approx(b.are, abs=3 * (a.error + b.error) + 1e-6)


def test_extremes_bracket_sweep():
    r_d, r_c = are_extremes(2, 3.0, 0.05, 0.9)
    rows = are_direction_sweep(3.0, 0.05, 0.9, n_angles=5)
    lo = min(r_d.are, r_c.are)
    hi = max(r_d.are, r_c.are)
    for t, r in rows:
        slack = 3 * (r.error + r_d.error + r_c.error) + 1e-6
        assert lo - slack <= r.are <= hi + slack


def test_sweep_solves_critical_value_once():
    solvers._exact_critical_value.cache_clear()
    rows = are_direction_sweep(3.0, 0.05, 0.9, n_angles=5)
    assert len(rows) == 5
    assert solvers._exact_critical_value.cache_info().misses == 1


def test_sweep_monotone_direction_for_p_above_2():
    # convex case: efficiency should fall toward the diagonal angle
    rows = are_direction_sweep(2.1, 0.05, 0.95, n_angles=5)
    vals = [r.are for _, r in rows]
    errs = [r.error for _, r in rows]
    for i in range(len(vals) - 1):
        assert vals[i + 1] <= vals[i] + 3 * (errs[i] + errs[i + 1]) + 1e-6


def test_sweep_csv_columns():
    rows = sweep_records(are_direction_sweep(2.0, 0.05, 0.9, n_angles=3))
    assert list(rows[0]) == ["angle", "are", "abs_error", "s2_norm",
                             "sp_norm", "exists_flag", "target_met"]
    assert len(rows) == 3
    assert rows[0]["are"] == 1.0


def test_limit_trend_validates_grids():
    with pytest.raises(ValueError):
        are_limit_trend(2, 1.0, [1.0, 1.0], [0.1, 0.1], [0.9, 0.99])
    with pytest.raises(ValueError):
        are_limit_trend(2, 1.0, [1.0, 1.0], [0.1, 0.01], [0.99, 0.9])


def test_limit_trend_p2_constant():
    out = are_limit_trend(2, 2.0, [1.0, 1.0], [1e-2, 1e-3], [0.99, 0.999])
    assert all(r.are == 1.0 for r in out)


def test_nonexistent_shift_gives_zero():
    u = np.zeros(3)
    u[0] = math.sqrt(3.0)
    r = are(TestDesign(3, -math.inf, 0.05, 0.999, tuple(u)))
    assert r.are == 0.0
    assert math.isnan(r.sp_norm)


def test_are_bits_pinned():
    # (are, error, sp_norm) recorded bit for bit once exact shift searches
    # started at the p = 2 shift ||s_2|| / ||u|| and the k >= 3 critical
    # values bracketed each refinement next to the last root; error came in
    # t units then. Each ARE must lie within three times the summed error
    # bars of the one recorded before (old are, error), when the searches
    # started at t = 1 and solver_error mixed power with t units. The k = 3
    # rows were re-pinned when _BP dropped from 49 halvings to 32, and again
    # when the inner levels moved from first-kind Chebyshev points, new at
    # each node count, to nested Lobatto radii; each ARE must lie within its
    # own bar of its 49-halving value and of its first-kind value. The
    # k = 2 p = 0.5 row was re-pinned when p-balls moved onto SEP's outer
    # row; each ARE must lie within its own bar of the value the radial
    # convolution's own last row gave (own_row)
    at_49 = {(3, 1.5): "0x1.f6954ccdfb65ap-1", (3, 4.0): "0x1.f28b616a900f2p-1"}
    own_row = {(2, 0.5): "0x1.85af10eec008cp-1",
               (2, 3.0): "0x1.fbe8924d1d876p-1",
               (3, 1.5): "0x1.f6954ccdfb662p-1",
               (3, 4.0): "0x1.f28b616a900f2p-1"}
    first_kind = {(3, 1.5): "0x1.f6954ccdfb654p-1",
                  (3, 4.0): "0x1.f28b616a900fdp-1"}
    cases = [
        (2, 0.5, [1.0, 0.4], ("0x1.85af10eec0092p-1", "0x1.b844884a97dbfp-25",
                              "0x1.04f564f897fd7p+2"),
         ("0x1.85af10a7ea594p-1", "0x1.3750f7716f0dep-25")),
        (2, 3.0, [1.0, 0.4], ("0x1.fbe8924d1d876p-1", "0x1.2962dcfcd1106p-24",
                              "0x1.c92819bcc2a27p+1"),
         ("0x1.fbe8926a8cb55p-1", "0x1.a4914cbaad4dcp-25")),
        (3, 1.5, [1.0, 0.5, -0.2], ("0x1.f6954ccdfb662p-1",
                                    "0x1.32e4284c18208p-24",
                                    "0x1.e659880ea1e61p+1"),
         ("0x1.f6954cd05c350p-1", "0x1.625e132bf5756p-25")),
        (3, 4.0, [1.0, 0.5, -0.2], ("0x1.f28b616a900f2p-1",
                                    "0x1.300a929c48b96p-24",
                                    "0x1.e850d42b5b117p+1"),
         ("0x1.f28b616cfb648p-1", "0x1.5f139f7ec3f2ep-25")),
    ]
    for k, p, u, want, before in cases:
        r = are(design(k, p, u, alpha=0.05, beta=0.9))
        assert (r.are.hex(), r.error.hex(), r.sp_norm.hex()) == want
        old_are, old_err = map(float.fromhex, before)
        assert abs(r.are - old_are) <= 3.0 * (r.error + old_err)
        for pins in (at_49, first_kind, own_row):
            if (k, p) in pins:
                assert abs(r.are - float.fromhex(pins[k, p])) <= r.error


def _mp_s2_norm(k, alpha, beta):
    """||s_2|| at 40 digits: c_2 from the chi-square quantile, then the
    noncentrality whose Poisson mixture of chi-square CDFs is 1 - beta."""
    with mpmath.workdps(40):
        half = mpmath.mpf(k) / 2

        def cdf(x, lam):  # P(ncx2(k, lam) <= x)
            total, j, term = mpmath.mpf(0), 0, 1
            while j < 20 or term > mpmath.mpf(10) ** -45:
                term = (mpmath.exp(-lam / 2) * (lam / 2) ** j
                        / mpmath.factorial(j)
                        * mpmath.gammainc(half + j, 0, x / 2,
                                          regularized=True))
                total, j = total + term, j + 1
            return total

        x = mpmath.findroot(lambda x: mpmath.gammainc(
            half, x / 2, mpmath.inf, regularized=True) - alpha,
            chi2.isf(alpha, k))
        lam = mpmath.findroot(lambda lam: cdf(x, lam) - (1 - mpmath.mpf(beta)),
                              (mpmath.mpf(0), 4 * x + 40), solver="illinois")
        return mpmath.sqrt(lam)


@pytest.mark.parametrize("k, alpha, beta", [(2, 0.05, 0.9), (3, 0.01, 0.95),
                                            (5, 0.001, 0.99)])
def test_s2_norm_matches_oracles(k, alpha, beta):
    # the closed form against a 40-digit ncx2 oracle, and against the shift
    # solved through the p = 2 power within that solve's own error
    r = are(design(k, 2.0, np.ones(k), alpha=alpha, beta=beta))
    want = _mp_s2_norm(k, alpha, beta)
    assert abs(r.s2_norm - want) <= 1e-13 * want
    sol = solvers.shift_solution(design(k, 2.0, np.ones(k), alpha=alpha,
                                        beta=beta))
    assert abs(sol.norm - r.s2_norm) <= sol.solver_error


@pytest.mark.parametrize("k, alpha", [(2, 1e-20), (3, 1e-30)])
def test_s2_norm_takes_the_small_side(k, alpha):
    # chi2.ppf(1 - alpha) is inf below alpha ~ 1.1e-16; chi2.isf(alpha) is
    # not
    want = _mp_s2_norm(k, alpha, 0.5)
    assert abs(_s2_norm(k, alpha, 0.5) - want) <= 1e-12 * want
