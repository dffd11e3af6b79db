import csv
import io
import math

import numpy as np
import pytest

from schur2.are_analysis import (are, are_direction_sweep, are_extremes,
                                 are_limit_trend, duality_partner,
                                 sweep_to_csv)
from schur2 import solvers
from schur2.solvers import TestDesign, normalize_direction


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
    r_1 = are(design(2, 1.0, duality_partner(u)))
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


def test_sweep_solves_critical_value_once(monkeypatch):
    solves = []
    orig = solvers._radial_critical_value

    def counting(k, p, alpha):
        solves.append((k, p, alpha))
        return orig(k, p, alpha)

    monkeypatch.setattr(solvers, "_radial_critical_value", counting)
    solvers._exact_critical_value.cache_clear()
    rows = are_direction_sweep(3.0, 0.05, 0.9, n_angles=5)
    assert len(rows) == 5
    assert solves == [(2, 3.0, 0.05)]


def test_sweep_monotone_direction_for_p_above_2():
    # convex case: efficiency should fall toward the diagonal angle
    rows = are_direction_sweep(2.1, 0.05, 0.95, n_angles=5)
    vals = [r.are for _, r in rows]
    errs = [r.error for _, r in rows]
    for i in range(len(vals) - 1):
        assert vals[i + 1] <= vals[i] + 3 * (errs[i] + errs[i + 1]) + 1e-6


def test_sweep_csv_columns():
    rows = are_direction_sweep(2.0, 0.05, 0.9, n_angles=3)
    text = sweep_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert list(parsed[0]) == ["angle", "are", "abs_error", "s2_norm",
                               "sp_norm", "exists_flag"]
    assert len(parsed) == 3
    assert float(parsed[0]["are"]) == 1.0


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
