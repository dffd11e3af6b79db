import json
import math
import time

import numpy as np
import pytest

from schur2 import verify
from schur2.cli import main
from schur2.gauss_measure import MeasureEstimate
from schur2.majorization import MajorizationVerdict, schur2_compare
from schur2.sets import complement, cube, p_ball, pq_ball
from schur2.solvers import critical_value
from schur2.verify import (CounterexampleConfig, EmpiricalDesign,
                           chamber_pairs, check_rotation_monotonicity,
                           check_schur2_monotonicity, empirical_power,
                           run_counterexample)


def arc_pairs(r, k=2):
    # shifts on a radius-r arc: nearer the axis majorizes nearer the diagonal
    def at(t):
        return np.array([r * math.cos(t), r * math.sin(t)])
    return [(at(math.pi / 4), at(math.pi / 8)), (at(math.pi / 8), at(0.0))]


def test_spherical_set_gives_equal_measures():
    rep = check_schur2_monotonicity(p_ball(2, 2.0, 1.0), arc_pairs(1.5))
    assert rep["passed"]
    for pair in rep["pairs"]:
        assert abs(pair["measure_low"] - pair["measure_high"]) <= 1e-6


def test_complement_ball_direction():
    # measure of the complement of a convex ball grows toward the axis
    rep = check_schur2_monotonicity(complement(p_ball(2, 3.0, 1.0)),
                                    arc_pairs(2.0))
    assert rep["passed"] and rep["strict_gap_found"]
    for pair in rep["pairs"]:
        assert pair["measure_high"] >= pair["measure_low"]


def test_figure_arm_set_direction():
    # reference behaviour: at radius 11 the shift nearer the axis carries
    # more mass for the unbounded concave set
    S = pq_ball(2, 2.0, -0.4, 1.0)
    a = 11 * np.array([math.cos(math.pi / 20), math.sin(math.pi / 20)])
    b = 11 * np.array([math.cos(math.pi / 5), math.sin(math.pi / 5)])
    rep = check_schur2_monotonicity(S, [(b, a)], target_rel_error=0.05)
    assert rep["passed"]
    (pair,) = rep["pairs"]
    assert pair["measure_high"] > pair["measure_low"]


def test_incomparable_pairs_are_skipped():
    incomparable = (np.array([1.0, 1.0, 0.0]), np.array([1.2, 0.5, 0.5]))
    comparable = (np.ones(3), np.array([math.sqrt(2.0), 1.0, 0.0]))
    rep = check_schur2_monotonicity(cube(3, 1.0), [incomparable, comparable])
    assert "skipped" in rep["pairs"][0] and "ok" in rep["pairs"][1]
    # a check that compared no pair has earned no verdict
    for pairs in ([incomparable], []):
        with pytest.raises(ValueError, match="no comparable shift pair"):
            check_schur2_monotonicity(cube(3, 1.0), pairs)


def test_rotation_monotonicity_directions():
    grid = np.linspace(0.0, math.pi / 4.0, 5)
    up = check_rotation_monotonicity(cube(2, 1.0), 2.0, grid)
    down = check_rotation_monotonicity(p_ball(2, 1.0, 1.0), 2.0, grid)
    assert up["passed"] and down["passed"]
    assert up["measures"][-1] > up["measures"][0]
    assert down["measures"][-1] < down["measures"][0]


def _fake_measure(monkeypatch, value):
    """Replace measure in verify by value(shift) with a 1e-6 bar; returns the
    list of shifts it was asked for."""
    asked = []

    def fake(q):
        asked.append(q.shift)
        return MeasureEstimate(value(np.asarray(q.shift)), 1e-6, 0.0, "FAKE", 0)

    monkeypatch.setattr(verify, "measure", fake)
    return asked


def test_arc_check_needs_a_strict_gap_unless_spherical(monkeypatch):
    # equal measures along the arc show nothing for a cube, and are what the
    # Euclidean ball must show; each grid shift is measured once
    asked = _fake_measure(monkeypatch, lambda th: 0.5)
    grid = np.linspace(0.0, math.pi / 4.0, 5)
    flat = check_rotation_monotonicity(cube(2, 1.0), 2.0, grid)
    assert not flat["passed"] and not flat["strict_gap_found"]
    assert flat["violations"] == 0 and flat["measures"] == [0.5] * 5
    assert len(asked) == len(set(asked)) == 5
    ball = check_rotation_monotonicity(p_ball(2, 2.0, 1.0), 2.0, grid)
    assert ball["passed"] and ball["spherical"]


def test_spherical_set_with_unequal_measures_fails(monkeypatch):
    # a spherical set's measures must agree within 3 sigma, whichever way
    # they differ; sigma here is 2e-6 per pair
    _fake_measure(monkeypatch, lambda th: 0.5 + 1e-3 * np.max(th * th)
                  / np.sum(th * th))
    rep = check_schur2_monotonicity(p_ball(2, 2.0, 1.0), arc_pairs(1.5))
    assert not rep["passed"] and rep["violations"] == 2
    assert all(not pair["ok"] for pair in rep["pairs"])


def test_far_cube_arc_shows_its_strict_gap():
    # at radius 10 the cube's measures are 7.7e-20 up to 4e-19; with relative
    # bars the gaps between grid neighbours are far above 5 sigma
    grid = np.linspace(0.0, math.pi / 4.0, 5)
    rep = check_rotation_monotonicity(cube(2, 1.0), 10.0, grid)
    assert rep["passed"] and rep["strict_gap_found"]
    assert 0.0 < rep["measures"][0] < rep["measures"][-1]
    assert [pair["ok"] for pair in rep["pairs"]] == [True] * 4


def test_rotation_requires_k2():
    with pytest.raises(ValueError):
        check_rotation_monotonicity(cube(3, 1.0), 1.0, [0.0, 0.5])


def _points(pairs):
    return {tuple(th) for pair in pairs for th in pair}


@pytest.mark.parametrize("k, n, count", [(2, 9, 5), (3, 24, 61), (4, 12, 34),
                                         (6, 12, 58)])
def test_chamber_lattice_points_and_pairs(k, n, count):
    # the descending k-tuples of naturals summing to n, on the sphere of
    # radius r; each two points form one pair, the lexicographically larger
    # high, and the low point never strictly majorizes the high one
    r = 1.7
    pairs = chamber_pairs(k, r, n)
    assert len(_points(pairs)) == count
    assert len(pairs) == count * (count - 1) // 2
    for th in _points(pairs):
        assert len(th) == k and list(th) == sorted(th, reverse=True)
        assert abs(sum(x * x for x in th) - r * r) <= 1e-12
        u = [n * x * x / (r * r) for x in th]
        assert max(abs(v - round(v)) for v in u) <= 1e-9
    for low, high in pairs:
        assert high > low
        assert (schur2_compare(low, high)
                is not MajorizationVerdict.STRICT_MAJORIZES)


def test_chamber_check_at_k50_is_quick(capsys):
    # the recursion visits descending prefixes only: 30 points at n = 9,
    # where filtering the C(59, 9) tuples of combinations_with_replacement
    # would not finish
    t0 = time.perf_counter()
    code = main(["verify", "schur2", "--k", "50", "--points", "9"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["passed"] is True
    assert len(_points((p["theta_low"], p["theta_high"])
                       for p in rep["pairs"])) == 30
    assert elapsed < 1.0


def test_chamber_report_does_not_depend_on_the_seed(capsys):
    # no pair is drawn at random, and SEP measures a p-ball exactly
    reps = []
    for seed in ("0", "1"):
        code = main(["verify", "schur2", "--set", "pball:p=3,eps=1",
                     "--k", "3", "--seed", seed])
        assert code == 0
        reps.append(json.loads(capsys.readouterr().out))
    assert [rep.pop("seed") for rep in reps] == [0, 1]
    assert reps[0] == reps[1]


@pytest.mark.parametrize("S, n, sign", [
    (p_ball(3, 1.0, 1.5), 24, -1),
    (p_ball(3, 3.0, 1.5), 24, 1),
    (complement(p_ball(3, 0.5, 1.2)), 24, 1),
    (p_ball(3, 2.0, 1.5), 24, 0),
    (p_ball(4, 1.0, 1.5), 12, -1)])
def test_theorem_on_every_chamber_pair(S, n, sign):
    # every comparable pair of the chamber lattice at r = 2: the measure at
    # the balanced shift minus the one at the spread shift has the sign of
    # the set's class beyond 3 bars, and is within 3 bars for the Euclidean
    # ball. In Python: the CLI prints 12 digits, coarser than these bars
    rep = check_schur2_monotonicity(S, chamber_pairs(S.k, 2.0, n))
    compared = [pair for pair in rep["pairs"] if "ok" in pair]
    assert rep["passed"] and len(compared) == {24: 1546, 12: 483}[n]
    for pair in compared:
        gap, bar = pair["measure_low"] - pair["measure_high"], pair["abs_error"]
        assert sign * gap > 3.0 * bar if sign else abs(gap) <= 3.0 * bar


def test_counterexample_config_invariants():
    cfg = CounterexampleConfig(2, 0.15)
    assert cfg.R == pytest.approx((0.15 ** 2 + 1) / 0.3)
    assert cfg.R == pytest.approx(1 + cfg.r + 0.15)
    with pytest.raises(ValueError):
        CounterexampleConfig(2, 0.5)  # epsilon >= sqrt(2) - 1
    with pytest.raises(ValueError):
        CounterexampleConfig(1, 0.1)


def test_counterexample_k2():
    rep = run_counterexample(CounterexampleConfig(2, 0.15))
    assert rep["passed"]
    assert rep["R"] == pytest.approx(3.41, abs=0.01)
    assert rep["r"] == pytest.approx(2.26, abs=0.01)
    assert rep["p_x0"] == pytest.approx(4 / (math.pi * rep["R"] ** 2),
                                        abs=1e-14)
    assert rep["p_x1"] < rep["p_x0"]
    assert rep["containment_residual"] == 0.0
    json.dumps(rep)  # must serialize


def test_counterexample_k3_sampled():
    rep = run_counterexample(CounterexampleConfig(3, 0.3), seed=1)
    assert rep["passed"]
    assert rep["p_x1"] < rep["p_x0"]


def test_counterexample_deterministic():
    a = run_counterexample(CounterexampleConfig(3, 0.3), seed=5)
    b = run_counterexample(CounterexampleConfig(3, 0.3), seed=5)
    assert a == b


@pytest.mark.parametrize("k, eps", [(4, 0.3), (6, 0.5)])
def test_counterexample_sampled_on_the_cube(k, eps):
    # draws on the cube at x1 resolve the share of it outside the ball;
    # draws on the ball read p_x1 = 0.004478 +- 3.2e-4 at k = 4 (failed)
    # and p_x1 > p_x0 at k = 6
    rep = run_counterexample(CounterexampleConfig(k, eps), seed=3)
    assert rep["passed"]
    assert rep["p_x0"] - rep["p_x1"] > 10.0 * rep["p_error"]
    assert rep == run_counterexample(CounterexampleConfig(k, eps), seed=3)


def test_empirical_size_gaussian():
    c = critical_value(2, 2.0, 0.05)
    rate, se = empirical_power(EmpiricalDesign(n=400, k=2, p=2.0, c=c,
                                               replications=4000, seed=0))
    assert abs(rate - 0.05) <= 3 * se


def test_empirical_size_uniform_population():
    c = critical_value(2, 2.0, 0.05)
    rate, se = empirical_power(EmpiricalDesign(n=400, k=2, p=2.0, c=c,
                                               population="uniform",
                                               replications=4000, seed=1))
    assert abs(rate - 0.05) <= 4 * se


def test_empirical_power_converges_with_replications():
    c = critical_value(2, 1.0, 0.05)
    base = EmpiricalDesign(n=200, k=2, p=1.0, c=c, replications=2000, seed=2)
    more = EmpiricalDesign(n=200, k=2, p=1.0, c=c, replications=8000, seed=2)
    r1, s1 = empirical_power(base)
    r2, s2 = empirical_power(more)
    assert s2 < s1
    assert abs(r1 - 0.05) <= 4 * s1 and abs(r2 - 0.05) <= 4 * s2
