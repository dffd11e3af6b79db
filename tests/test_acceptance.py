"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with -s to see the lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from schur2.are_analysis import are, are_limit_trend
from schur2.cli import main as cli_main
from schur2.gauss_measure import GaussianShiftQuery, measure, rotate2
from schur2.majorization import muirhead_chain
from schur2.means import Schur2Value
from schur2.sets import (classify_set, complement, contains_rows, cube,
                         check_b, hat_b, p_ball, pq_ball)
from schur2.solvers import (TestDesign, critical_value, normalize_direction,
                            shift_solution, tail_probability)
from schur2.verify import (CounterexampleConfig, EmpiricalDesign,
                           check_rotation_monotonicity,
                           check_schur2_monotonicity, empirical_power,
                           run_counterexample)

FIG_SET = pq_ball(2, 2.0, -0.4, 1.0)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_01_near_measures():
    ok = True
    for angle, want in [(math.pi / 5, 0.5250), (math.pi / 20, 0.5268)]:
        t0 = time.time()
        est = measure(GaussianShiftQuery(
            set=FIG_SET, shift=rotate2([1.0, 0.0], angle),
            method="POLAR2D", target_rel_error=1e-4))
        elapsed = time.time() - t0
        ok &= abs(est.value - want) <= 5e-4 and elapsed < 10.0
    report("criterion 1: near shifted-set measures (POLAR2D, < 10 s)", ok)


def test_criterion_02_far_measures():
    ok = True
    for angle, want in [(math.pi / 5, 1.5e-14), (math.pi / 20, 1.4e-6)]:
        t0 = time.time()
        est = measure(GaussianShiftQuery(
            set=FIG_SET, shift=rotate2([11.0, 0.0], angle),
            method="POLAR2D", target_rel_error=0.05))
        elapsed = time.time() - t0
        ok &= want / 1.5 <= est.value <= want * 1.5 and elapsed < 60.0
    report("criterion 2: far rare-event measures (factor 1.5, < 60 s)", ok)


def test_criterion_03_are_goldens():
    diag = tuple(normalize_direction([1.0, 1.0]))
    coord = (math.sqrt(2.0), 0.0)
    r1 = are(TestDesign(2, 1.0, 0.05, 0.95, diag))
    ri = are(TestDesign(2, math.inf, 0.05, 0.95, coord))
    r21 = are(TestDesign(2, 2.1, 0.05, 0.95, coord))
    r19 = are(TestDesign(2, 1.9, 0.05, 0.95, diag))
    ok = (abs(r1.are - 1.0317) <= 0.003
          and abs(ri.are - r1.are) <= r1.error + ri.error + 1e-6
          and abs(r21.are - 1.00429) <= 0.003
          and abs(r19.are - 1.00459) <= 0.003)
    report("criterion 3: relative-efficiency reference values", ok)


def test_criterion_04_chi2_oracle():
    ok = all(
        abs(critical_value(k, 2.0, a) - math.sqrt(chi2.ppf(1 - a, k) / k))
        <= 1e-8
        for k in range(1, 7) for a in (0.1, 0.05, 0.01))
    report("criterion 4: chi-square critical-value oracle", ok)


FAMILIES_K2 = [cube(2, 1.0), p_ball(2, 1.0, 1.0), p_ball(2, 3.0, 1.0),
               complement(cube(2, 1.0)), complement(p_ball(2, 1.0, 1.0)),
               complement(p_ball(2, 3.0, 1.0))]


def test_criterion_05_monotonicity_suites():
    ok = True
    grid = np.linspace(0.0, math.pi / 4.0, 9)
    for S in FAMILIES_K2:
        for r in (1.0, 2.0, 4.0):
            rep = check_rotation_monotonicity(S, r, grid)
            ok &= rep["passed"]
    families_k3 = [cube(3, 1.0), p_ball(3, 1.0, 1.0), p_ball(3, 3.0, 1.0),
                   complement(cube(3, 1.0)), complement(p_ball(3, 1.0, 1.0)),
                   complement(p_ball(3, 3.0, 1.0))]
    sq_hi = np.array([4.0, 0.0, 0.0])
    sq_lo = np.full(3, sq_hi.sum() / 3.0)
    chain = muirhead_chain(sq_hi, sq_lo)
    pairs = [(np.sqrt(b), np.sqrt(a)) for a, b in zip(chain, chain[1:])]
    for S in families_k3:
        rep = check_schur2_monotonicity(S, pairs)
        ok &= rep["violations"] == 0
    report("criterion 5: rotation and majorization monotonicity suites", ok)


def test_criterion_06_counterexample():
    rep = run_counterexample(CounterexampleConfig(2, 0.15))
    exact = 4.0 / (math.pi * rep["R"] ** 2)
    ok = (abs(rep["R"] - 3.41) <= 0.01 and abs(rep["r"] - 2.26) <= 0.01
          and rep["p_x1"] < rep["p_x0"] and rep["gap_exceeds_5_error"]
          and rep["p_x0"] == exact)
    report("criterion 6: uniform-ball counterexample", ok)


def test_criterion_07_are_limit_trend():
    t0 = time.time()
    alphas = [1e-2, 1e-3, 1e-4]
    betas = [1 - a for a in alphas]
    coord = [math.sqrt(2.0), 0.0]
    diag_partner = rotate2(normalize_direction([1.0, 1.0]), math.pi / 4.0)
    ok = True
    # sup-mean at the coordinate direction, and the 1-mean at the diagonal
    # via its rotation image (both stay on closed-form product paths)
    for u in (coord, diag_partner):
        vals = [r.are for r in
                are_limit_trend(2, math.inf, u, alphas, betas)]
        errs = 1e-5
        i_max = int(np.argmax(vals))
        tail_monotone = all(vals[i + 1] <= vals[i] + 2 * errs
                            for i in range(i_max, len(vals) - 1))
        ok &= vals[-1] <= 1.05 and tail_monotone
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report("criterion 7: efficiency trend toward small size / high power", ok)


def test_criterion_08_power_monotone_in_shift():
    rng = np.random.default_rng(2024)
    ok = True
    for k in (2, 3):
        for p in (-math.inf, 0.0, 1.0, 2.0, 3.0, math.inf):
            c = critical_value(k, p, 0.05)
            quad = k == 2 or (math.isfinite(p) and p > 0)
            target = (1e-3 if (k == 2 and p <= 0 and math.isfinite(p))
                      else 1e-6 if quad else None)
            for _ in range(3):
                u = normalize_direction(rng.standard_normal(k))
                vals, errs = [], []
                for t in np.linspace(0.0, 3.0, 20):
                    v, e, _ = tail_probability(k, p, c, t * u, seed=11,
                                            target_rel_error=target)
                    vals.append(v)
                    errs.append(e)
                for i in range(19):
                    step = vals[i + 1] - vals[i]
                    if step <= -3.0 * (errs[i] + errs[i + 1]):
                        ok = False
    report("criterion 8: power strictly increasing along the shift ray", ok)


TWELVE_SETS = [
    pq_ball(2, 0.0, -1.0, 1.0), pq_ball(2, 2.0, -0.4, 1.0),
    pq_ball(2, 5.0, -1.0, 1.0), pq_ball(2, 0.7, 0.7, 1.0),
    pq_ball(2, 1.0, 0.0, 1.0), pq_ball(2, 2.0, 2.0, 1.0),
    pq_ball(2, 5.0, 1.0, 1.0),
    hat_b(2, 4.5, 1.0, 2.0 ** (-1.0 / 4.5) + 0.01),
    check_b(2, 1.5, 1.0, 0.45),
    cube(2, 1.0), p_ball(3, 1.0, 1.0), complement(p_ball(3, 3.0, 1.0)),
]


def test_criterion_09_classification_vs_sampling():
    rng = np.random.default_rng(7)
    ok = True
    for S in TWELVE_SETS:
        char = classify_set(S)
        n = 100_000
        sq = np.sort(rng.random((n, S.k)) * 6.0, axis=1)[:, ::-1]
        hi = sq.copy()
        d = rng.random(n) * hi[:, 1]
        hi[:, 0] += d
        hi[:, 1] -= d  # each hi row majorizes the matching sq row
        in_lo = contains_rows(S, np.sqrt(sq))
        in_hi = contains_rows(S, np.sqrt(hi))
        down_viol = bool(np.any(in_hi & ~in_lo))   # breaks convex reading
        up_viol = bool(np.any(in_lo & ~in_hi))     # breaks concave reading
        if char.value == Schur2Value.SCHUR2_CONVEX:
            ok &= not down_viol
        elif char.value == Schur2Value.SCHUR2_CONCAVE:
            ok &= not up_viol
        else:
            ok &= down_viol and up_viol
    report("criterion 9: classification agrees with membership sampling", ok)


def test_criterion_10_empirical_power():
    ok = True
    for k, p in [(2, 1.0), (2, 3.0), (3, math.inf)]:
        c = critical_value(k, p, 0.05)
        rate0, se0 = empirical_power(EmpiricalDesign(
            n=400, k=k, p=p, c=c, replications=10_000, seed=3))
        ok &= abs(rate0 - 0.05) <= 3 * se0
        u = normalize_direction(np.ones(k))
        sol = shift_solution(TestDesign(k, p, 0.05, 0.9, tuple(u)), c=c)
        theta = sol.t * u / math.sqrt(400.0)
        rate1, se1 = empirical_power(EmpiricalDesign(
            n=400, k=k, p=p, c=c, theta=tuple(theta),
            replications=10_000, seed=4))
        ok &= abs(rate1 - 0.9) <= 3 * se1
    report("criterion 10: finite-sample size and power calibration", ok)


def test_criterion_11_mc_determinism(tmp_path, capsys):
    outs = []
    for w in ("1", "4"):
        dest = tmp_path / f"mc_{w}.json"
        code = cli_main(["measure", "--set", "pqball:p=5,q=-1,eps=1",
                         "--k", "3", "--shift", "0.4,0.4,0.4",
                         "--method", "MC_PLAIN", "--seed", "123",
                         "--workers", w, "--output", str(dest)])
        assert code == 0
        rec = json.loads(dest.read_text())
        rec.pop("wall_ms")
        outs.append(json.dumps(rec, sort_keys=True))
    report("criterion 11: Monte Carlo output independent of worker count",
           outs[0] == outs[1])
