import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import schur2
from schur2 import cli, gauss_measure, solvers, verify
from schur2.cli import main
from schur2.sets import contains_rows, format_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_measure_reference_value(capsys):
    code, out = run_cli(capsys, "measure", "--set", "pqball:p=2,q=-0.4,eps=1",
                        "--k", "2", "--shift", "0.809,0.588")
    rec = json.loads(out)
    assert code == 0
    assert rec["value"] == pytest.approx(0.5250, abs=5e-4)


def test_measure_chi2_oracle(capsys):
    from scipy.stats import chi2
    code, out = run_cli(capsys, "measure", "--set", "pball:p=2,eps=1",
                        "--k", "3", "--shift", "0,0,0")
    rec = json.loads(out)
    assert code == 0
    assert rec["value"] == pytest.approx(chi2.cdf(3.0, 3), abs=1e-8)


def test_measure_cube_product(capsys):
    code, out = run_cli(capsys, "measure", "--set", "cube:a=1",
                        "--k", "2", "--shift", "0,0")
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.466065, abs=1e-6)


def test_measure_dimension_mismatch_is_usage_error(capsys):
    code, _ = run_cli(capsys, "measure", "--set", "cube:a=1",
                      "--k", "2", "--shift", "0,0,0")
    assert code == 1


def test_critical_reference(capsys):
    code, out = run_cli(capsys, "critical", "--k", "2", "--p", "2",
                        "--alpha", "0.05")
    rec = json.loads(out)
    assert rec["critical_value"] == pytest.approx(1.73082, abs=1e-5)


def test_are_reference(capsys):
    code, out = run_cli(capsys, "are", "--k", "2", "--p", "1",
                        "--alpha", "0.05", "--beta", "0.95", "--u", "1,1")
    rec = json.loads(out)
    assert code == 0 and rec["target_met"] is True
    assert rec["are"] == pytest.approx(1.0317, abs=0.003)


def test_verify_counterexample(capsys):
    code, out = run_cli(capsys, "verify", "counterexample",
                        "--k", "2", "--eps", "0.15")
    rec = json.loads(out)
    assert code == 0
    assert rec["passed"]
    assert rec["R"] == pytest.approx(3.41, abs=0.01)


@pytest.mark.parametrize("k, record", [
    (2, {"R": 3.40833333333, "r": 2.25833333333, "p_x0": 0.109603896702,
         "p_x1": 0.107638466202, "p_error": 2.05014735286e-10,
         "containment_residual": 0.0}),
    (3, {"R": 6.74166666667, "r": 5.59166666667, "p_x0": 0.00623303479086,
         "p_x1": 0.00609030473117, "p_error": 7.43291731195e-11,
         "containment_residual": -7.1054273576e-15}),
])
def test_verify_counterexample_records_pinned(capsys, k, record):
    # the quadrature oracles at k = 2 and 3, the only users of
    # scipy.integrate, which they import when they run
    code, out = run_cli(capsys, "verify", "counterexample", "--k", str(k))
    assert code == 0 and json.loads(out) == {
        "k": k, "epsilon": 0.15, **record, "x1_sq_majorized_by_x0_sq": True,
        "gap_exceeds_5_error": True, "passed": True, "seed": 0}


def test_import_loads_no_heavy_scipy_module():
    # every command pays for its imports; the package needs scipy.special
    # alone, so a fresh interpreter must not load these
    heavy = ("scipy.stats", "scipy.optimize", "scipy.integrate")
    code = ("import sys, schur2.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    src = str(pathlib.Path(schur2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_sweep_csv_format(capsys):
    code, out = run_cli(capsys, "sweep", "--p", "2", "--alpha", "0.05",
                        "--beta", "0.9", "--angles", "3", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == ("angle,are,abs_error,s2_norm,sp_norm,exists_flag,"
                        "target_met")
    assert len(lines) == 4
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["are"]) for r in rows] == [1.0] * 3  # p = 2 is the LRT


def test_seed_fixes_mc_output(capsys):
    args = ("measure", "--set", "pqball:p=5,q=-1,eps=1", "--k", "3",
            "--shift", "0.5,0.5,0.5", "--method", "MC_PLAIN", "--seed", "9")
    _, out1 = run_cli(capsys, *args, "--workers", "1")
    _, out2 = run_cli(capsys, *args, "--workers", "3")
    v1 = json.loads(out1)
    v2 = json.loads(out2)
    assert v1["value"] == v2["value"]


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, _ = run_cli(capsys, "critical", "--k", "1", "--p", "inf",
                      "--alpha", "0.1", "--output", str(dest))
    rec = json.loads(dest.read_text())
    assert rec["critical_value"] == pytest.approx(1.6448536, abs=1e-6)


def test_unknown_flag_is_fatal(capsys):
    code = main(["critical", "--k", "2", "--p", "2", "--alpha", "0.05",
                 "--bogus"])
    assert code == 1


def test_figures_2_emits_four_measures(capsys):
    code, out = run_cli(capsys, "figures", "--which", "2")
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 4
    assert [r["target_met"] for r in rows] == [True] * 4
    near = {round(r["angle"], 3): r["value"] for r in rows if r["radius"] == 1.0}
    assert near[round(math.pi / 5, 3)] == pytest.approx(0.5250, abs=5e-4)
    assert near[round(math.pi / 20, 3)] == pytest.approx(0.5268, abs=5e-4)


def sep_misses(monkeypatch, shifts=None):
    """Make SEP report a bar as large as its value, a missed target, at the
    given shifts (all if None)."""
    def run(S, theta, target, q, sep=gauss_measure._sep):
        method, value, err, nodes = sep(S, theta, target, q)
        miss = shifts is None or tuple(q.shift) in shifts
        return method, value, value if miss else err, nodes
    monkeypatch.setattr(gauss_measure, "_ENGINES", tuple(
        (m, t, c, run if m == ("SEP",) else r)
        for m, t, c, r in gauss_measure._ENGINES))


def test_figures_2_unmet_target_exits_2(capsys, monkeypatch):
    # a miss at the r = 1, pi/5 shift alone reaches the exit code
    sep_misses(monkeypatch, [(math.cos(math.pi / 5), math.sin(math.pi / 5))])
    code, out = run_cli(capsys, "figures", "--which", "2")
    assert code == 2
    rows = json.loads(out)
    assert len(rows) == 4
    assert [r["target_met"] for r in rows] == [False, True, True, True]


def verdicts(out, fmt):
    if fmt == "csv":
        return [r["target_met"] == "True"
                for r in csv.DictReader(io.StringIO(out))]
    rows = json.loads(out)
    return [r["target_met"] for r in (rows if isinstance(rows, list)
                                      else [rows])]


SOLVE = ("--alpha", "0.05", "--beta", "0.95")


@pytest.mark.parametrize("argv", [
    ("shift", "--k", "2", "--p", "1", *SOLVE, "--u", "1,1"),
    ("are", "--k", "2", "--p", "1", *SOLVE, "--u", "1,1"),
    ("sweep", "--p", "1.9", *SOLVE, "--angles", "2"),
    ("sweep", "--p", "1.9", *SOLVE, "--angles", "2", "--format", "csv"),
    ("figures", "--which", "4", "--angles", "2"),
])
def test_solver_commands_exit_2_on_a_missed_inner_target(capsys, monkeypatch,
                                                          argv):
    # each record prints the AND of the verdicts of its solve's measures
    fmt = "csv" if "csv" in argv else "json"
    code, out = run_cli(capsys, *argv)
    assert code == 0 and all(verdicts(out, fmt))
    monkeypatch.setattr(solvers, "measure", lambda q: dataclasses.replace(
        gauss_measure.measure(q), target_met=False))
    code, out = run_cli(capsys, *argv)
    assert code == 2 and not any(verdicts(out, fmt))


@pytest.mark.parametrize("argv, met", [
    (("shift", "--k", "2", "--p", "-3", *SOLVE, "--u", "1,1"), [False]),
    (("are", "--k", "2", "--p", "-3", *SOLVE, "--u", "1,1"), [False]),
    # every row solves on SEP but p = 2's, whose tail is ncx2
    (("figures", "--which", "3"), [False] * 4 + [True] + [False] * 3),
])
def test_sep_miss_reaches_the_exit_code(capsys, monkeypatch, argv, met):
    sep_misses(monkeypatch)
    code, out = run_cli(capsys, *argv)
    assert code == 2 and verdicts(out, "json") == met


@pytest.mark.parametrize("argv", [
    ("figures", "--which", "3"),
    ("shift", "--k", "2", "--p", "0", *SOLVE, "--u", "1,1"),
])
def test_p0_solves_meet_their_targets(capsys, argv):
    # their p = 0 tails come from SEP, which meets the solvers' 1e-7
    code, out = run_cli(capsys, *argv)
    assert code == 0 and all(verdicts(out, "json"))


def test_mc_shift_meets_its_target(capsys):
    # one bracket trial holds power 1 - 1.2e-4: its sign is settled after one
    # round, where its own 1e-2 target would take the whole sample cap
    code, out = run_cli(capsys, "shift", "--k", "3", "--p", "0", *SOLVE,
                        "--u", "1,1,1")
    rec = json.loads(out)
    assert code == 0 and rec["target_met"] is True
    assert rec["t"] == 2.53323686123


@pytest.mark.parametrize("argv, msg", [
    (("critical", "--k", "3", "--p", "1", "--alpha", "1e-12"), "below what"),
    (("critical", "--k", "2", "--p", "nan", "--alpha", "0.05"), "p must not"),
    (("shift", "--k", "2", "--p", "nan", *SOLVE, "--u", "1,1"), "p must not"),
    (("are", "--k", "2", "--p", "2", *SOLVE, "--u", "nan,1"), "finite"),
    (("shift", "--k", "2", "--p", "2", *SOLVE, "--u", "inf,1"), "finite"),
    (("verify", "counterexample", "--k", "4", "--budget", "0"),
     "budget must be at least 1"),
])
def test_unresolvable_or_nan_inputs_are_usage_errors(capsys, argv, msg):
    # scipy's root finders raised their own messages here
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and msg in err


@pytest.mark.parametrize("check", ["rotation", "schur2"])
def test_verify_report_on_a_polar_set_is_json(capsys, check):
    # SEP sums numpy floats; every pair verdict must still print as JSON
    code, out = run_cli(capsys, "verify", check, "--set",
                        "pqball:p=1,q=0,eps=1", "--points", "2")
    rep = json.loads(out)
    assert code == 0 and rep["passed"] is True
    assert all(pair["ok"] is True for pair in rep["pairs"])


def test_verify_schur2_on_an_infinite_exponent_ball(capsys):
    # the (inf, -0.4)-ball is the cube, so it is Schur2-convex like cube:a=1
    code, out = run_cli(capsys, "verify", "schur2", "--set",
                        "pqball:p=inf,q=-0.4,eps=1", "--k", "2")
    rep = json.loads(out)
    assert code == 0 and rep["passed"] is True
    assert rep["classification"] == "SCHUR2_CONVEX"


@pytest.mark.parametrize("text, char", [
    ("hatb:p=2,a=0,eps=1", "SCHUR2_CONCAVE"),
    ("hatb:p=1.5,a=0,eps=1", "SCHUR2_CONCAVE"),
    ("checkb:p=3,a=0,eps=1", "SCHUR2_CONVEX")])
def test_verify_schur2_on_hat_and_check_b_at_a0(capsys, text, char):
    # at a = 0 hat-B and check-B are p-balls, classed and measured as such;
    # the Euclidean one is spherical, so it needs no strict gap
    code, out = run_cli(capsys, "verify", "schur2", "--set", text, "--k", "3")
    rep = json.loads(out)
    assert code == 0 and rep["passed"] is True
    assert rep["classification"] == char
    assert rep["spherical"] is (text == "hatb:p=2,a=0,eps=1")


def test_method_choices_are_the_engine_table():
    measure_cmd = next(a for a in cli.build_parser()._actions
                       if a.dest == "cmd").choices["measure"]
    method = next(a for a in measure_cmd._actions if a.dest == "method")
    assert tuple(method.choices) == tuple(
        m for row in gauss_measure._ENGINES for m in row[0])


def test_verify_rotation_exit_code_follows_the_report(capsys, monkeypatch):
    # the far cube arc shows its strict gap; with every measure equal it
    # shows none, and the printed report's passed = false exits 2
    code, out = run_cli(capsys, "verify", "rotation", "--radius", "10")
    assert code == 0 and json.loads(out)["passed"] is True
    monkeypatch.setattr(verify, "measure", lambda q: gauss_measure.
                        MeasureEstimate(0.5, 1e-6, 2e-6, "FAKE", 0))
    code, out = run_cli(capsys, "verify", "rotation", "--radius", "10")
    assert code == 2 and json.loads(out)["passed"] is False


# (edge points, sha256 of the float64 bytes) of cli._boundary_cloud for each
# of cli.FIG1_PANELS, recorded before membership moved to power sums
FIG1_PINS = [
    (1037, "8bf0e18f5a2b8a5eafd43100d8a34676fcf6ec4759efd8e1b0c8928f637ee38c"),
    (1277, "5e2f8e74c2c72d3ce4b1f74e39e1c2de6d660fd423f170aaa74edb8fce0d72f0"),
    (1345, "5b3631985b07be9b5b10014dd4f74edfd45792097ecc17736989c45c7a840a2b"),
    (923, "aabdda8a8838d1951b69652f29d4f9f59bcb3d9fdf04908f50dc71311c865bfd"),
    (919, "aa856bb3f70d138ea46e39885833d32af49c4c25b3ec609390f8f823a2d1d14a"),
    (703, "af32cec47e7265818aed51812525f748b8157b2ebbb226fd77f52026819fb2ce"),
    (679, "98208d4ca88fedeb81cad6cc1819d17501d44947002e754c399129c22f75818e"),
    (1594, "1b3abf911706d873b5382f02a773f5752657c362d19d70756400f17cf8885c33"),
    (1428, "72e8f824df2ef815f941ab6c0c8c2acaa3a30ea15c9bfe78ea8dca98165aea5d"),
]


def test_figure_1_boundary_clouds_pinned():
    for S, (n, digest) in zip(cli.FIG1_PANELS, FIG1_PINS, strict=True):
        cloud = cli._boundary_cloud(S)
        assert len(cloud) == n, S
        assert hashlib.sha256(cloud.tobytes()).hexdigest() == digest, S


def test_figures_1_emits_the_boundary_of_every_panel(capsys):
    code, out = run_cli(capsys, "figures", "--which", "1")
    rows = json.loads(out)
    assert code == 0
    xs = np.linspace(-2.5, 2.5, 384)  # the grid of cli._boundary_cloud
    for idx, (S, (n, _)) in enumerate(zip(cli.FIG1_PANELS, FIG1_PINS)):
        panel = [r for r in rows if r["panel"] == idx]
        assert len(panel) == n and {r["set"] for r in panel} == {format_set(S)}
        pts = np.array([(r["x"], r["y"]) for r in panel])
        i, j = np.rint((pts + 2.5) / (xs[1] - xs[0])).astype(int).T
        assert np.allclose(np.c_[xs[i], xs[j]], pts, rtol=0, atol=1e-11)
        inside = contains_rows(S, np.c_[xs[i], xs[j]])
        # each point differs in membership from its +x or its +y neighbour
        i1, j1 = np.minimum(i + 1, xs.size - 1), np.minimum(j + 1, xs.size - 1)
        edge = ((i1 > i) & (contains_rows(S, np.c_[xs[i1], xs[j]]) != inside)
                | (j1 > j) & (contains_rows(S, np.c_[xs[i], xs[j1]]) != inside))
        assert edge.all(), S
    assert len(rows) == sum(n for n, _ in FIG1_PINS)


def test_measure_incapable_method_is_usage_error(capsys):
    # SLICE_QUAD is no engine (SEP runs the p-balls); forcing it must fail
    code, out = run_cli(capsys, "measure", "--set", "pqball:p=2,q=-0.4,eps=1",
                        "--k", "2", "--shift", "0.5,0.2",
                        "--method", "SLICE_QUAD")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("--set", "pball:p=nan,eps=1", "--shift", "0,0"),
    ("--set", "pball:p=2,eps=1", "--shift", "0,0", "--sigma", "nan"),
    ("--set", "pball:p=2,eps=1", "--shift", "nan,0"),
    ("--set", "pball:p=2,eps=1,q=3", "--shift", "0,0"),
    ("--set", "pball:p=2,eps=1,eps=5", "--shift", "0,0"),
    ("--set", "pball:p=2,eps=1", "--shift", "0,0", "--workers", "0"),
    ("--set", "pball:p=2,eps=1", "--shift", "0,0", "--workers", "-3"),
    ("--set", "hatb:p=inf,a=1,eps=2", "--shift", "0,0"),
])
def test_measure_bad_input_is_usage_error(capsys, argv):
    # NaN parameters, NaN shifts, unknown and repeated set fields
    code, out = run_cli(capsys, "measure", "--k", "2", *argv)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("flag", ["--reps", "--n"])
def test_verify_power_without_samples_is_usage_error(capsys, flag):
    code, out = run_cli(capsys, "verify", "power", "--k", "2", "--p", "2",
                        flag, "0")
    assert code == 1
    assert out == ""


def test_verify_power_passes_workers(capsys, monkeypatch):
    seen, critical_value = [], solvers.critical_value

    def recorded(*args, **kw):
        seen.append(kw.get("workers"))
        return critical_value(*args, **kw)

    monkeypatch.setattr(solvers, "critical_value", recorded)
    run_cli(capsys, "verify", "power", "--k", "2", "--p", "2", "--n", "20",
            "--reps", "50", "--workers", "3")
    assert seen == [3]


def test_critical_zero_workers_is_usage_error(capsys):
    # a closed-form value builds no query; the command line checks the count
    code, out = run_cli(capsys, "critical", "--k", "2", "--p", "2",
                        "--alpha", "0.05", "--workers", "0")
    assert code == 1
    assert out == ""


def test_bad_workers_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SCHUR2_WORKERS", "two")
    code, out = run_cli(capsys, "critical", "--k", "2", "--p", "2",
                        "--alpha", "0.05")
    assert code == 1
    assert out == ""
    monkeypatch.setenv("SCHUR2_WORKERS", "2")
    assert cli.build_parser().parse_args(
        ["critical", "--k", "2", "--p", "2", "--alpha", "0.05"]).workers == 2


def test_critical_without_coordinates_is_usage_error(capsys):
    code, out = run_cli(capsys, "critical", "--k", "0", "--p", "2",
                        "--alpha", "0.05")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("sweep", "--p", "2", "--alpha", "0.05", "--beta", "0.9"),
    ("figures", "--which", "4"),
])
def test_zero_angles_is_usage_error(capsys, argv):
    code, out = run_cli(capsys, *argv, "--angles", "0", "--format", "csv")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("target", ["nan", "-1", "0"])
def test_measure_bad_target_is_usage_error(capsys, target):
    code, out = run_cli(capsys, "measure", "--set", "pball:p=2,eps=1",
                        "--k", "3", "--shift", "0,0,0", "--target", target)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("rotation", "--points", "0"),
    ("rotation", "--points", "1"),
    ("schur2", "--points", "0"),
    ("schur2", "--points", "1"),  # a chamber lattice of one point
    ("rotation", "--radius", "nan"),  # no pair of NaN shifts compares
    ("rotation", "--radius", "inf"),  # nor of shifts with an inf
    ("schur2", "--radius", "nan"),
    ("schur2", "--radius", "inf"),
])
@pytest.mark.filterwarnings("error")
def test_empty_verify_check_is_usage_error(capsys, argv):
    # a check that compares nothing must not report a pass, nor warn: a
    # non-finite pair is incomparable before any inf - inf is taken
    code = main(["verify", *argv])
    cap = capsys.readouterr()
    assert code == 1
    assert cap.out == "" and cap.err.startswith("error:")


def test_verify_schur2_one_coordinate_is_usage_error(capsys):
    # at k = 1 the chamber lattice is one point, so no pair compares
    code, out = run_cli(capsys, "verify", "schur2", "--k", "1")
    assert code == 1
    assert out == ""
