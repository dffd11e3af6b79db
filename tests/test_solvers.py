import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import loggamma
from scipy.stats import chi2, norm

from schur2 import gauss_measure, solvers
from schur2.are_analysis import are
from schur2.gauss_measure import GaussianShiftQuery, measure
from schur2.sets import complement, p_ball
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
    with pytest.raises(ValueError):
        TestDesign(0, 1.0, 0.05, 0.95, ())  # no coordinates


@pytest.mark.parametrize("u", [(math.nan, 1.0), (math.inf, 1.0)])
def test_normalize_direction_rejects_non_finite(u):
    # scaled by a NaN or inf quadratic mean, u would become NaN
    with pytest.raises(ValueError, match="finite"):
        normalize_direction(u)


@pytest.mark.parametrize("u", [(math.nan, math.nan), (math.nan, 1.0),
                               (math.inf, 1.0)])
def test_design_rejects_non_finite_direction(u):
    # NaN fails every comparison, so |M_2 - 1| > 1e-12 cannot catch it
    with pytest.raises(ValueError, match="finite"):
        TestDesign(2, 1.0, 0.05, 0.95, u)


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
    for k, p in [(2, 1.0), (3, 3.0), (2, 0.0), (2, -1.0)]:
        c = critical_value(k, p, 0.05)
        tail, err, _ = tail_probability(k, p, c, np.zeros(k),
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
    for k, p, a in RADIAL_CASES + [(2, 0.0, 0.05), (2, -1.0, 0.01)]:
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
    assert len(measure_calls) <= 6
    assert abs(sol.achieved_power - 0.9) <= 1e-6


# (are, error) per (k, p) over alpha in (.05, .01), beta in (.9, .95) and
# the directions ones(k), linspace(1, 0.2, k), recorded when exact shift
# searches started at t = 1 and took 7.06 measure calls per solve on average
_ARE_GRID_BEFORE = {
    (2, 0.5): [(1.0024545246008654, 4.955e-08), (0.6065694536720198, 2.809e-08),
               (1.0029123358350374, 4.824e-08), (0.5873688038425232, 2.649e-08),
               (1.0283844590806088, 4.885e-08), (0.5403279243773381, 2.386e-08),
               (1.0269794718151228, 4.776e-08), (0.5204329101901481, 2.253e-08)],
    (2, 1.5): [(1.0222861836718047, 5.067e-08), (0.9708142258985621, 4.777e-08),
               (1.0221856757468017, 4.929e-08), (0.9712118369763487, 4.652e-08),
               (1.0306307483630779, 4.897e-08), (0.9588328694859721, 4.515e-08),
               (1.0296861215921436, 4.790e-08), (0.9600256984563267, 4.429e-08)],
    (2, 3.0): [(0.9590516857274772, 4.711e-08), (1.0136256135442598, 5.018e-08),
               (0.9598978278946264, 4.590e-08), (1.0135315203092852, 4.882e-08),
               (0.9425427078475813, 4.428e-08), (1.0185855408640625, 4.833e-08),
               (0.9446941380348204, 4.350e-08), (1.017866139690914, 4.729e-08)],
    (3, 0.5): [(0.9897832272436521, 4.165e-08), (0.7663744544480956, 3.103e-08),
               (0.9916940708548811, 4.054e-08), (0.7549350312537307, 2.971e-08),
               (1.0185755893563493, 4.112e-08), (0.7312341968771303, 2.824e-08),
               (1.0178824288876853, 4.017e-08), (0.7199391651961602, 2.720e-08)],
    (3, 1.5): [(1.0291376357530049, 4.358e-08), (0.9905490723373207, 4.169e-08),
               (1.029240055695302, 4.231e-08), (0.9906416809320765, 4.050e-08),
               (1.0392886934754433, 4.208e-08), (0.9868526327356681, 3.966e-08),
               (1.0384717956633516, 4.109e-08), (0.9870104155025416, 3.879e-08)],
    (3, 3.0): [(0.938560896383711, 3.917e-08), (0.9815681315170715, 4.125e-08),
               (0.9396876994644527, 3.812e-08), (0.9820569665447927, 4.009e-08),
               (0.9163194112884161, 3.645e-08), (0.974454445425819, 3.909e-08),
               (0.9190802494475383, 3.578e-08), (0.9752376569603947, 3.827e-08)],
}


def test_exact_shift_searches_start_at_the_p2_shift(measure_calls):
    # the p-mean shift lies near ||s_2|| / ||u||, so h there and the free
    # h(0) bracket the root, and Brent needs about three more measures
    solves = 0
    for (k, p), before in _ARE_GRID_BEFORE.items():
        cases = [(a, b, u) for a in (0.05, 0.01) for b in (0.9, 0.95)
                 for u in (np.ones(k), np.linspace(1.0, 0.2, k))]
        for (a, b, u), (old, old_err) in zip(cases, before):
            r = are(TestDesign(k, p, a, b, tuple(normalize_direction(u))))
            assert r.target_met
            assert abs(r.are - old) <= 3.0 * (r.error + old_err)
            solves += 1
    assert len(measure_calls) / solves <= 5.6


def test_critical_value_refinements_bracket_next_to_the_last_root(
        monkeypatch):
    # each node count after the first brackets its root within 1e-6 of the
    # last one; 16 critical values took 537 last-row evaluations on [0, m]
    evals, cdf = [], solvers.pball_radius_cdf

    def counted(*args, **kw):
        G = cdf(*args, **kw)
        return lambda w, *a: evals.append(np.size(w)) or G(w, *a)

    monkeypatch.setattr(solvers, "pball_radius_cdf", counted)
    solvers._exact_critical_value.cache_clear()
    before = {  # recorded when every refinement searched [0, m]
        (0.5, 0.05): "0x1.569619ad92c8ep+0", (0.5, 0.01): "0x1.a9a71e2596de2p+0",
        (1.0, 0.05): "0x1.6cd8575172e2bp+0", (1.0, 0.01): "0x1.bd60ef33393dap+0",
        (1.5, 0.05): "0x1.8594f48ef1c2cp+0", (1.5, 0.01): "0x1.d6a658ea35f86p+0",
        (1.9, 0.05): "0x1.98a8610db0aa7p+0", (1.9, 0.01): "0x1.ec6c5ed4596e6p+0",
        (2.1, 0.05): "0x1.a1945b27f9c87p+0", (2.1, 0.01): "0x1.f72b2943e1ff9p+0",
        (2.5, 0.05): "0x1.b1f663dfde129p+0", (2.5, 0.01): "0x1.05cc45c3e30c5p+1",
        (3.0, 0.05): "0x1.c3b8c5338aa76p+0", (3.0, 0.01): "0x1.1138f229749f1p+1",
        (4.0, 0.05): "0x1.df8b54c93b996p+0", (4.0, 0.01): "0x1.2379f207631d5p+1",
    }
    for (p, a), bits in before.items():
        assert abs(critical_value(3, p, a) - float.fromhex(bits)) <= 1e-10
    assert sum(evals) <= 400


def test_critical_value_refinement_falls_back_to_the_whole_domain(
        monkeypatch):
    # at k = 6, p = 0.7 the root moves 2.5e-6 from 32 to 64 nodes, so the
    # pair next to it has one sign and that refinement searches [0, m]
    lows, brent = [], solvers.brentq
    monkeypatch.setattr(solvers, "brentq", lambda f, a, b, **kw: (
        lows.append(a) or brent(f, a, b, **kw)))
    solvers._exact_critical_value.cache_clear()
    c = critical_value(6, 0.7, 0.05)
    assert lows[:2] == [0.0, 0.0] and lows[2] > 0.0
    assert abs(c - float.fromhex("0x1.29c8cdb458602p+0")) <= 1e-10


@pytest.mark.parametrize("k, p, u", [(2, 1.0, [1.0, 0.4]),
                                     (3, 1.5, [1.0, 0.5, -0.2])])
def test_solver_error_in_t_units_covers_a_tight_resolve(monkeypatch, k, p, u):
    # on exact paths the power errors reach t through the secant of the two
    # powers that bracket the root; a re-solve at target 1e-12 lies within
    d = TestDesign(k, p, 0.05, 0.9, tuple(normalize_direction(u)))
    sol = shift_solution(d)
    monkeypatch.setattr(solvers, "_QUAD_TARGET", 1e-12)
    monkeypatch.setattr(solvers, "BRACKET_RTOL", 1e-14)
    tight = shift_solution(d)
    assert tight.target_met and tight.solver_error < 1e-3 * sol.solver_error
    assert abs(sol.t - tight.t) <= sol.solver_error


def test_mc_critical_value_bits_unchanged():
    # recorded bits of the Monte Carlo bisection: any change to its trial
    # points, bracket rule or step count moves them
    assert critical_value(3, 0.0, 0.05) == float.fromhex("0x1.4654469e27263p+0")


@pytest.mark.parametrize("p, alpha, bits", [
    (-1.0, 0.05, "0x1.306ad61bf9d56p+0"),
    (0.0, 0.01, "0x1.9c1f3a7b85916p+0"),
    (-1.0, 0.01, "0x1.893777c486692p+0"),
])
def test_mc_critical_value_bits_pinned(p, alpha, bits):
    # recorded before the chunk p-means were memoised, at workers=2
    gauss_measure._pball_means.cache_clear()
    assert critical_value(3, p, alpha, workers=2).hex() == bits


def test_mc_critical_value_measures_each_point_once(monkeypatch):
    # the bracket search starts at the chi2 value c = 1.61397314137619 and
    # took its tail twice; 42 distinct tails remain, with the same bits
    cs, tail = [], solvers.tail_probability

    def counted(k, p, c, *args, **kw):
        cs.append(c)
        return tail(k, p, c, *args, **kw)

    monkeypatch.setattr(solvers, "tail_probability", counted)
    c = critical_value(3, 0.0, 0.05, workers=2)
    assert c == float.fromhex("0x1.4654469e27263p+0")
    assert len(cs) == len(set(cs)) == 42


@pytest.mark.parametrize("k", range(1, 9))
def test_mc_path_is_the_engine_tables_choice(k):
    # measure's table alone decides; it keeps the rule it replaced: Monte
    # Carlo for finite p at k >= 3 unless p > 0 and k^(1/p) <= 1e6
    edge = math.log(k) / math.log(1e6)
    for p in (-math.inf, -3.0, -1.0, 0.0, 1e-4, 0.05, 0.1, 0.2, 0.5, 1.0,
              2.0, 3.0, math.inf, edge, np.nextafter(edge, math.inf)):
        rule = k >= 3 and math.isfinite(p) and not p > edge
        assert (gauss_measure.engine(p_ball(k, p, 1.0))[0][0] == "MC") == rule
        assert solvers._mc_path(k, p) == rule


def test_mc_critical_value_draws_each_chunk_once(monkeypatch):
    # all 42 tails of the c bisection read chunks 0-7 of seed 0
    draws, rng = [], gauss_measure.chunk_rng

    def counted(seed, chunk):
        draws.append((seed, chunk))
        return rng(seed, chunk)

    monkeypatch.setattr(gauss_measure, "chunk_rng", counted)
    gauss_measure._pball_means.cache_clear()
    assert critical_value(3, 0.0, 0.05) == float.fromhex("0x1.4654469e27263p+0")
    assert sorted(draws) == [(0, i) for i in range(8)]


@pytest.mark.parametrize("p, alpha, bits", [
    (0.0, 0.05, ("0x1.2596908000000p+1", "0x1.ccccc00000000p-1",
                 "0x1.b27277f583484p-11")),
    (-1.0, 0.01, ("0x1.5cc8270000000p+1", "0x1.cccd000000000p-1",
                  "0x1.b2718699557d9p-11")),
])
def test_mc_shift_solution_bits_pinned(p, alpha, bits):
    # recorded while every bracket trial still ran to its own target; a
    # trial whose sign one round settles must leave (t, power, error) alone
    d = TestDesign(3, p, alpha, 0.9, (1.0, 1.0, 1.0))
    sol = shift_solution(d, workers=2)
    assert sol.exists
    assert (sol.t.hex(), sol.achieved_power.hex(),
            sol.solver_error.hex()) == bits


@pytest.mark.parametrize("solve", [
    lambda: critical_value(2, 2.0, 0.05, workers=0),
    lambda: critical_value(3, 0.0, 0.05, workers=0),
    lambda: shift_solution(TestDesign(2, 2.0, 0.05, 0.95, (1.0, 1.0)),
                           workers=0, c=1.7),
])
def test_solvers_reject_zero_workers(solve):
    with pytest.raises(ValueError, match="workers"):
        solve()


def _gil_pelaez_tail_p0(c):
    """P(<Z>_0 > c) at k = 2 by Gil-Pelaez (1951): the 0-mean exceeds c when
    log|Z_1| + log|Z_2| > 2 log c, and E|Z|^(it) = 2^(it/2)
    Gamma((1 + it)/2) / sqrt(pi) is the characteristic function of log|Z|."""
    x = 2.0 * math.log(c)

    def f(t):
        log_cf = 0.5j * t * math.log(2.0) + loggamma(0.5 + 0.5j * t)
        return np.exp(2.0 * (log_cf - 0.5 * math.log(math.pi))
                      - 1j * t * x).imag / t

    # |cf|^2 decays like exp(-pi t / 2), below 1e-30 past t = 50
    return 0.5 + sum(quad(f, lo, hi, epsabs=1e-17, limit=200)[0]
                     for lo, hi in ((0.0, 5.0), (5.0, 50.0))) / math.pi


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_critical_value_k2_p0_matches_gil_pelaez(alpha):
    want = brentq(lambda c: _gil_pelaez_tail_p0(c) - alpha, 1.0, 3.0,
                  xtol=1e-15, rtol=1e-15)
    assert abs(critical_value(2, 0.0, alpha) - want) <= 1e-12


def _mp_tail(c, shift):
    """P(<Z + shift>_p > c) at 40 digits for the sets PRODUCT_1D measures:
    k = 1, where every mean is |x|, and p = +inf, a cube of half-width c."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        inside = mpmath.fprod(mpmath.ncdf(c - t) - mpmath.ncdf(-c - t)
                              for t in map(mpmath.mpf, shift))
        return 1 - inside


@pytest.mark.parametrize("k, p, c, shift", [
    (3, math.inf, 9.0, (0.0, 0.0, 0.0)),  # 6.77e-19: 1 - product gave 0
    (1, 1.0, 8.0, (0.5,)),  # 3.19e-14
    (2, math.inf, 3.0, (1.0, -0.5)),
])
def test_tails_on_their_small_side(k, p, c, shift):
    value, err, met = tail_probability(k, p, c, shift)
    want = _mp_tail(c, shift)
    assert abs(value - want) <= 1e-12 * want
    assert abs(value - want) <= err
    assert met is True


def _mp_pball_tail(p, c, shift):
    """P(<Z + shift>_p > c) at k = 2 and 40 digits: over x_1, the mass of
    |x_2| beyond the slice (2 c^p - |x_1|^p)^(1/p), plus P(|x_1| > 2^(1/p) c).
    """
    with mpmath.workdps(40):
        p, c = mpmath.mpf(p), mpmath.mpf(c)
        s1, s2 = map(mpmath.mpf, shift)
        R = 2 ** (1 / p) * c
        Q = lambda z: mpmath.ncdf(-z)

        def f(x):
            b = (2 * c ** p - abs(x) ** p) ** (1 / p)
            return mpmath.npdf(x - s1) * (Q(b - s2) + Q(b + s2))

        return (mpmath.quad(f, [-R, -c, 0, c, R])
                + Q(R - s1) + Q(R + s1))


@pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("shift", [(0.0, 0.0), (3.0, 0.0)])
def test_k2_tails_at_alpha_1e30_come_on_their_small_side(p, shift):
    # 1 - G read 0.0 +- 1e-15 here; SEP's row integrates the complement
    # itself, the outside of each slice plus the mass past the ball
    c = critical_value(2, p, 1e-30)
    value, err, met = tail_probability(2, p, c, shift)
    want = _mp_pball_tail(p, c, shift)
    assert met is True and abs(value - want) <= 1e-8 * want
    assert abs(value - want) <= err + 1e-12 * want
    # as does a larger complement
    est = measure(GaussianShiftQuery(set=complement(p_ball(2, p, 1.0)),
                                     shift=(1.5, 0.3)))
    assert est.method == "SEP" and est.target_met


def _mp_ncx2_sf_near_zero(x, k, nc):
    """P(ncx2(k, nc) > x) at 40 digits, for (nc / 2)(x / 2) < k / 2 + 1:
    there the terms of the Poisson mixture of chi-square CDFs fall
    geometrically from j = 0."""
    assert nc * x < 2.0 * k + 4.0
    with mpmath.workdps(40):
        lam, half = mpmath.mpf(nc) / 2, mpmath.mpf(k) / 2
        cdf = mpmath.fsum(
            mpmath.exp(j * mpmath.log(lam) - lam - mpmath.loggamma(j + 1))
            * mpmath.gammainc(half + j, 0, mpmath.mpf(x) / 2, regularized=True)
            for j in range(60))
        return 1 - cdf


@pytest.mark.parametrize("k, nc", [(2, 1800.0), (2, 800.0), (16, 1e5)])
def test_p2_tail_where_ncx2_sf_overflows(k, nc):
    # boost's tgamma overflows in _ncx2_sf at x ~ 0 and a large nc; the
    # tail is then one minus the ncx2 CDF
    c, shift = 1e-5, np.full(k, math.sqrt(nc / k))
    x = k * c * c
    value, err, met = tail_probability(k, 2.0, c, shift)
    want = _mp_ncx2_sf_near_zero(x, k, float(shift @ shift))
    assert abs(value - want) <= 1e-15
    assert (err, met) == (0.0, True)


def test_solves_report_every_inner_verdict(monkeypatch):
    # target_met is the AND of the measures a solve made; ncx2 counts as met
    d = TestDesign(2, 1.0, 0.05, 0.95, tuple(normalize_direction([1.0, 1.0])))
    assert tail_probability(2, 2.0, 1.5, (0.3, 0.1))[2] is True
    assert shift_solution(d).target_met is True
    assert are(d).target_met is True
    orig = solvers.measure
    monkeypatch.setattr(solvers, "measure", lambda q: dataclasses.replace(
        orig(q), target_met=False))
    assert tail_probability(2, 1.0, 1.5, (0.3, 0.1))[2] is False
    assert shift_solution(d).target_met is False
    assert are(d).target_met is False
    p2 = dataclasses.replace(d, p=2.0)
    assert shift_solution(p2).target_met is are(p2).target_met is True


def test_tiny_positive_p_lies_between_its_neighbours():
    # k^(1/p) overflowed (OverflowError); past k^(1/p) = 1e6, SLICE_QUAD and
    # the radial c read 1.0 and 7e-15 at k = 3, p = 0.01. Such p goes where
    # p <= 0 goes, and the p-mean rises with p, so the measure falls and c
    # rises from p = 0 to the tiny p to p = 0.01
    for k, p, method in [(2, 1e-4, "SEP"), (3, 1e-3, "MC_PLAIN")]:
        shift = (0.3, 0.5, 0.0)[:k]
        lo, mid, hi = (measure(GaussianShiftQuery(set=p_ball(k, x, 1.0),
                                                  shift=shift))
                       for x in (0.01, p, 0.0))
        assert mid.method == method and mid.target_met
        assert (lo.value - 3.0 * (lo.abs_error + mid.abs_error) <= mid.value
                <= hi.value + 3.0 * (hi.abs_error + mid.abs_error))
    c = [critical_value(3, x, 0.05) for x in (0.0, 1e-3, 0.01)]
    assert c[0] <= c[1] <= c[2] < 1.3
    far = measure(GaussianShiftQuery(set=p_ball(6, 0.1, 1.0), shift=[0.0] * 6))
    assert far.method == "MC_PLAIN" and 0.92 < far.value < 0.95
    with pytest.raises(ValueError, match="cannot measure"):
        measure(GaussianShiftQuery(set=p_ball(3, 0.05, 1.0), shift=(0.0,) * 3,
                                   method="SLICE_QUAD"))


def _small_side_tail(p, c):
    """P(<Z>_p > c) at k = 3 on its small side, by nested quad: the mass
    past the p-radius r of |Z_1|, else of |Z_2| given Z_1, else of |Z_3|."""
    R = 3.0 * c ** p
    out = lambda x: math.erfc(x / math.sqrt(2.0))  # P(|Z| > x)
    g = lambda z: math.exp(-z * z / 2.0) * math.sqrt(2.0 / math.pi)
    rule = dict(epsabs=0.0, epsrel=1e-11, limit=200)

    def past(R1):  # P(|Z_2|^p + |Z_3|^p > R1)
        b = R1 ** (1.0 / p)
        return quad(lambda z: g(z) * out((R1 - z ** p) ** (1.0 / p)), 0.0, b,
                    **rule)[0] + out(b)
    r = R ** (1.0 / p)
    return quad(lambda z: g(z) * past(R - z ** p), 0.0, r, **rule)[0] + out(r)


def test_small_side_tail_oracle_takes_chi2_isf():
    # at p = 2 the oracle's root is the chi-square quantile to 1.5e-15
    for alpha in (1e-7, 0.05):
        want = math.sqrt(chi2.isf(alpha, 3) / 3.0)
        c = brentq(lambda c: math.log(_small_side_tail(2.0, c) / alpha),
                   0.8 * want, 1.25 * want, xtol=1e-15)
        assert abs(c - want) <= 1.5e-15 * want


@pytest.mark.parametrize("p, alpha, oracle, rtol", [
    (1.0, 1e-7, 3.2177215048338876, 1e-9),
    (4.0, 1e-6, 3.8888325595096265, 1e-9),
    (2.5, 1e-7, 3.6481181481775136, 1e-9),
    (1.5, 1e-7, 3.2924965705755325, 1e-9),
    # no two node counts agree to 1e-10 here; c is the last root, 1.8e-8
    # off (first-kind points refused this alpha as below what c resolves)
    (2.5, 1e-10, 4.338071994273977, 2.5e-8)])
def test_small_alpha_critical_values_meet_a_quad_oracle(p, alpha, oracle,
                                                        rtol):
    # the oracle roots solve _small_side_tail = alpha; the tail brackets
    # alpha across c (1 -+ rtol), and c lies within rtol of the root
    c = critical_value(3, p, alpha)
    assert abs(c - oracle) <= rtol * oracle
    assert (_small_side_tail(p, c * (1.0 - rtol)) > alpha
            > _small_side_tail(p, c * (1.0 + rtol)))


def test_axis_shift_solution_builds_its_inner_level_once_per_node_count(
        monkeypatch):
    # at k = 3 the levels run on sorted |t u|, so an axis direction feeds
    # its two zero coordinates to level 1: every t of the solve shares it,
    # 33 rows at n = 32 and the 32 new ones at 64, whichever axis it is
    rows, conv = [], gauss_measure._convolve_level

    def counted(G_prev, p, theta_j, ws):
        rows.append(np.size(ws))
        return conv(G_prev, p, theta_j, ws)

    monkeypatch.setattr(gauss_measure, "_convolve_level", counted)
    c, ts = critical_value(3, 1.5, 0.05), set()
    for u in ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0)):
        gauss_measure._level.cache_clear()
        rows.clear()
        sol = shift_solution(TestDesign(3, 1.5, 0.05, 0.9,
                                        tuple(normalize_direction(u))), c=c)
        assert sol.exists and sol.target_met
        assert [n for n in rows if n > 1] == [33, 32]
        assert gauss_measure._level.cache_info().misses == 2
        ts.add(sol.t)
    assert len(ts) == 1  # the same bits on either axis
    gauss_measure._level.cache_clear()


@pytest.mark.parametrize("call, match", [
    (lambda: critical_value(3, 1.0, 1e-12), "below what"),
    (lambda: critical_value(3, 0.5, 1e-9), "below what"),
    (lambda: critical_value(3, 2.5, 1e-12), "below what"),
    (lambda: critical_value(2, math.nan, 0.05), "p must not be NaN"),
    (lambda: TestDesign(2, math.nan, 0.05, 0.95, (1.0, 1.0)), "p must not"),
])
def test_usage_errors_say_what_is_wrong(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _mp_closed_form_c(k, p, alpha):
    """c from P(<Z>_p > c) = alpha at 50 digits, where the tail is a
    closed form: a slab at k = 1, chi-square at p = 2, and products of slabs
    at p = +-inf."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        out = lambda c: mpmath.erfc(c / mpmath.sqrt(2))  # P(|Z_j| > c)
        tail = {1: out,
                2: lambda c: mpmath.gammainc(k / 2, k * c * c / 2, mpmath.inf,
                                             regularized=True),
                math.inf: lambda c: 1 - (1 - out(c)) ** k,
                -math.inf: lambda c: out(c) ** k}[1 if k == 1 else p]
        # the log of the tail is near linear in c^2: solve for c^2
        s = mpmath.findroot(lambda s: mpmath.log(tail(mpmath.sqrt(s)))
                            - mpmath.log(a), 2 * mpmath.log(1 / a))
        return float(mpmath.sqrt(s))


@pytest.mark.parametrize("alpha", [1e-20, 1e-30])
@pytest.mark.parametrize("k, p", [(1, 1.0), (2, 2.0), (3, 2.0),
                                  (2, math.inf), (3, math.inf),
                                  (2, -math.inf), (3, -math.inf)])
def test_closed_form_critical_values_on_their_small_side(k, p, alpha):
    # 1 - alpha rounds to 1 below alpha ~ 1e-16, where the big-side forms
    # read inf or lose every digit
    want = _mp_closed_form_c(k, p, alpha)
    assert abs(critical_value(k, p, alpha) - want) <= 1e-12 * want


def _brent_corpus(seed=20240):
    """Seeded roots of smooth, flat, steep and exactly vanishing functions,
    each bracketed on a random, sometimes reversed, interval."""
    rng = np.random.default_rng(seed)
    shapes = [
        lambda r, s: lambda x: math.tanh(s * (x - r)),
        lambda r, s: lambda x: (x - r) ** 3 + s * (x - r),
        lambda r, s: lambda x: math.expm1(s * (x - r)),
        lambda r, s: lambda x: math.atan(x - r) ** 3,  # flat at the root
        lambda r, s: lambda x: (x - r) * abs(x - r) ** 0.1,
        lambda r, s: lambda x: math.erf(s * (x - r)) - 0.5 * math.erf(s),
        lambda r, s: lambda x: float(norm.ppf(norm.cdf(x) * 0.5 + 0.25)) - r,
        lambda r, s: lambda x: x - round(r),  # hits 0.0 exactly
        lambda r, s: lambda x: -(round(r) - x),  # hits -0.0 exactly
        lambda r, s: lambda x: -0.0 if abs(x - r) < 1e-3 else x - r,
    ]
    for _ in range(150):
        for shape in shapes:
            r, s = rng.uniform(-0.6, 0.6), rng.uniform(0.1, 5.0)
            a, b = r - rng.uniform(0.01, 10.0), r + rng.uniform(0.01, 10.0)
            yield shape(r, s), *((a, b) if rng.random() < 0.5 else (b, a))


def _recorded(solve, f, a, b, **tol):
    """The root's bits or the exception raised, and every point f saw."""
    seen = []

    def g(x):
        seen.append(float(x).hex())
        return f(x)
    try:
        return float(solve(g, a, b, **tol)).hex(), seen
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, seen


@pytest.mark.parametrize("tol", [
    dict(xtol=0.25 * solvers.BRACKET_RTOL, rtol=0.25 * solvers.BRACKET_RTOL),
    dict(xtol=1e-14),  # both critical-value solves
    dict(xtol=2e-12),  # scipy's default
])
def test_brentq_matches_scipy_bit_for_bit(tol):
    # the port must visit the same points and return the same root as
    # scipy.optimize.brentq, so that no solve moves a bit
    for f, a, b in _brent_corpus():
        assert _recorded(solvers.brentq, f, a, b, **tol) == _recorded(
            brentq, f, a, b, **tol)


def test_brentq_error_contract():
    # a bracket without a sign change or a NaN value is a usage error (exit
    # 1 on the command line), at either end or mid-search; 100 steps
    # without convergence are not
    for f in (lambda x: x, lambda x: math.nan,
              lambda x: math.nan if 1.1 < x < 1.9 else x - 1.5):
        with pytest.raises(ValueError):
            solvers.brentq(f, 1.0, 2.0, xtol=1e-14)
    assert solvers.brentq(lambda x: -(x - 1.0), 1.0, 2.0, xtol=1e-14) == 1.0

    def step(x):  # |f| never shrinks, so every step bisects
        return -1.0 if x < 5e-324 else 1.0
    with pytest.raises(RuntimeError):
        solvers.brentq(step, -1e308, 1e308, xtol=1e-300)
    assert _recorded(solvers.brentq, step, -1e308, 1e308, xtol=1e-300) == (
        _recorded(brentq, step, -1e308, 1e308, xtol=1e-300))
