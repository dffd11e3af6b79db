import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chi2, norm

from schur2 import solvers
from schur2.solvers import (ShiftSolution, TestDesign, critical_value,
                            normalize_direction, shift_solution,
                            tail_probability)


def test_design_validates():
    u = tuple(normalize_direction([1.0, 1.0]))
    TestDesign(2, 1.0, 0.05, 0.95, u)
    with pytest.raises(ValueError):
        TestDesign(2, 1.0, 0.95, 0.05, u)  # alpha >= beta
    with pytest.raises(ValueError):
        TestDesign(2, 1.0, 0.05, 0.95, (1.0, 0.5))  # not unit quadratic mean


def test_chi2_closed_form():
    for k in range(1, 7):
        for a in (0.1, 0.05, 0.01):
            c = critical_value(k, 2.0, a)
            assert c == pytest.approx(math.sqrt(chi2.ppf(1 - a, k) / k),
                                      abs=1e-12)
    # at k=2 the chi-square survival is exp(-c^2), so c = sqrt(ln(1/alpha))
    assert critical_value(2, 2.0, 0.05) == pytest.approx(math.sqrt(math.log(20)),
                                                         abs=1e-12)


def test_k1_all_p_coincide():
    for p in (-math.inf, -1.0, 0.0, 1.0, 2.0, math.inf):
        assert critical_value(1, p, 0.05) == pytest.approx(
            norm.ppf(0.975), abs=1e-12)


def test_sup_mean_closed_form_against_root_oracle():
    # oracle: 1-D root of (2 Phi(c) - 1)^k = 1 - alpha
    for k, a in [(2, 0.05), (3, 0.01)]:
        want = brentq(lambda c: (2 * norm.cdf(c) - 1) ** k - (1 - a), 0.1, 10)
        assert critical_value(k, math.inf, a) == pytest.approx(want, abs=1e-10)


def test_inf_mean_closed_form_against_mc():
    c = critical_value(3, -math.inf, 0.05)
    rng = np.random.default_rng(0)
    z = np.abs(rng.standard_normal((2_000_000, 3))).min(axis=1)
    assert np.mean(z > c) == pytest.approx(0.05, abs=5e-4)


def test_quadrature_critical_value_consistency():
    # the returned c must reproduce alpha through the measure engine
    for k, p in [(2, 1.0), (3, 3.0), (2, 0.0)]:
        c = critical_value(k, p, 0.05)
        tail, err = tail_probability(k, p, c, np.zeros(k),
                                     target_rel_error=1e-7)
        assert tail == pytest.approx(0.05, abs=max(1e-6, 3 * err))


def test_shift_solution_p2_noncentral_oracle():
    d = TestDesign(2, 2.0, 0.05, 0.95, tuple(normalize_direction([1.0, 1.0])))
    sol = shift_solution(d)
    from scipy.stats import ncx2
    c = critical_value(2, 2.0, 0.05)
    want = brentq(lambda t: ncx2.sf(2 * c * c, 2, 2 * t * t) - 0.95, 0.1, 20)
    assert sol.exists
    assert sol.t == pytest.approx(want, abs=1e-6)
    assert sol.achieved_power == pytest.approx(0.95, abs=1e-6)


def test_shift_solution_direction_invariance_p2():
    rng = np.random.default_rng(1)
    ts = []
    for _ in range(2):
        u = normalize_direction(rng.standard_normal(3))
        d = TestDesign(3, 2.0, 0.05, 0.9, tuple(u))
        ts.append(shift_solution(d).t)
    assert ts[0] == pytest.approx(ts[1], abs=1e-6)


def test_shift_solution_k1_anchor():
    # for small alpha the 1-D shift is close to z_(1-alpha/2) + z_beta
    d = TestDesign(1, 2.0, 0.001, 0.9, (1.0,))
    sol = shift_solution(d)
    approx = norm.ppf(1 - 0.0005) + norm.ppf(0.9)
    assert sol.norm == pytest.approx(approx, abs=0.01)


def test_power_monotone_on_grid():
    c = critical_value(2, 1.0, 0.05)
    u = normalize_direction([1.0, 0.3])
    vals = [tail_probability(2, 1.0, c, t * u, target_rel_error=1e-7)[0]
            for t in np.linspace(0.0, 4.0, 10)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_nonexistence_for_negative_p():
    # min-type statistics cannot reach high power in a coordinate direction:
    # shifting one coordinate leaves the minimum over the others in place
    u = np.zeros(3)
    u[0] = math.sqrt(3.0)
    d = TestDesign(3, -math.inf, 0.05, 0.999, tuple(u))
    sol = shift_solution(d)
    assert not sol.exists


def test_bracket_width_contract():
    d = TestDesign(2, 1.0, 0.05, 0.9, tuple(normalize_direction([2.0, 1.0])))
    sol = shift_solution(d)
    assert sol.exists
    assert sol.solver_error <= 1e-5
    assert abs(sol.achieved_power - 0.9) <= 1e-5


@pytest.fixture
def measure_calls(monkeypatch):
    """Counts solvers.measure calls; clears the memoised critical values."""
    calls = []
    orig = solvers.measure

    def counting(q):
        calls.append(q)
        return orig(q)

    monkeypatch.setattr(solvers, "measure", counting)
    solvers._exact_critical_value.cache_clear()
    return calls


RADIAL_CASES = [(2, 1.0, 0.05), (3, 3.0, 0.05), (3, 0.5, 0.01), (6, 1.5, 0.01)]


def test_radial_critical_value_makes_no_measure_calls(measure_calls):
    for k, p, a in RADIAL_CASES:
        critical_value(k, p, a)
    assert measure_calls == []


@pytest.mark.parametrize("k,p,a", RADIAL_CASES)
def test_radial_critical_value_matches_tail_root(k, p, a):
    def excess(c):
        return tail_probability(k, p, c, np.zeros(k),
                                target_rel_error=1e-7)[0] - a
    want = brentq(excess, 0.5, 4.0, xtol=1e-13, rtol=1e-13)
    assert abs(critical_value(k, p, a) - want) <= 1e-9


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
def test_quadrature_shift_solution_call_budget(measure_calls, k, p):
    u = normalize_direction(np.linspace(1.0, 0.4, k))
    sol = shift_solution(TestDesign(k, p, 0.05, 0.9, tuple(u)))
    assert sol.exists
    assert len(measure_calls) <= 10
    assert abs(sol.achieved_power - 0.9) <= 1e-6


def test_mc_critical_value_bits_unchanged():
    # recorded bits of the Monte Carlo bisection: any change to its trial
    # points, bracket rule or step count moves them
    assert critical_value(3, 0.0, 0.05) == float.fromhex("0x1.4654469e27263p+0")
