"""Command line front end.

Subcommands expose the measure engine, critical values, power-matching
shifts, relative-efficiency computations, the verification suite, and the
data behind the figures. Output is JSON (default) or CSV, to stdout or a
file; floats are printed with 12 significant digits. Each command returns
what it prints, and main emits it. Exit codes: 0 success, 1 usage error,
2 a printed record has target_met or passed false.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import are_analysis, solvers, verify
from .gauss_measure import METHODS, GaussianShiftQuery, measure
from .sets import (check_b, contains_rows, cube, format_set, hat_b, parse_set,
                   pq_ball)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload, args):
    if getattr(args, "format", "json") == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(_round_floats(r) for r in rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_round_floats(payload), indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _parse_vec(s):
    return np.array([float(x) for x in s.split(",")])


def _add_common(sp, fn):  # the flags every command shares, and its function
    sp.set_defaults(fn=fn)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int,  # a str default is parsed too
                    default=os.environ.get("SCHUR2_WORKERS", "1"))
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--output", default=None)


def cmd_measure(args):
    return measure(GaussianShiftQuery(
        set=parse_set(args.set, args.k), shift=_parse_vec(args.shift),
        sigma=args.sigma, seed=args.seed, workers=args.workers,
        target_rel_error=args.target, method=args.method)).to_json()


def cmd_critical(args):
    c = solvers.critical_value(args.k, args.p, args.alpha,
                               seed=args.seed, workers=args.workers)
    return {"k": args.k, "p": args.p, "alpha": args.alpha,
            "critical_value": c}


def _design(args):
    u = solvers.normalize_direction(_parse_vec(args.u))
    return solvers.TestDesign(args.k, args.p, args.alpha, args.beta, tuple(u))


def cmd_shift(args):
    return dataclasses.asdict(solvers.shift_solution(
        _design(args), seed=args.seed, workers=args.workers))


def cmd_are(args):
    return are_analysis.are(_design(args), seed=args.seed,
                            workers=args.workers).to_dict()


def cmd_sweep(args):
    rows = are_analysis.are_direction_sweep(
        args.p, args.alpha, args.beta, n_angles=args.angles,
        seed=args.seed, workers=args.workers)
    if args.format == "csv":
        return are_analysis.sweep_records(rows)
    return [dict(angle=t, **r.to_dict()) for t, r in rows]


def cmd_verify(args):
    if args.check == "counterexample":
        return verify.run_counterexample(
            verify.CounterexampleConfig(args.k, args.eps),
            seed=args.seed, budget=args.budget)
    if args.check == "rotation":
        grid = np.linspace(0.0, math.pi / 4.0, args.points)
        return verify.check_rotation_monotonicity(
            parse_set(args.set, 2), args.radius, grid, seed=args.seed,
            workers=args.workers)
    if args.check == "power":
        c = solvers.critical_value(args.k, args.p, args.alpha, seed=args.seed,
                                   workers=args.workers)
        rate, se = verify.empirical_power(verify.EmpiricalDesign(
            n=args.n, k=args.k, p=args.p, c=c, population=args.population,
            replications=args.reps, seed=args.seed))
        return {"k": args.k, "p": args.p, "alpha": args.alpha, "n": args.n,
                "population": args.population, "critical_value": c,
                "rejection_rate": rate, "stderr": se,
                "passed": bool(abs(rate - args.alpha) <= 4.0 * se)}
    if args.k < 2:
        raise ValueError("a majorization transfer needs k >= 2")
    S = parse_set(args.set, args.k)
    rng = np.random.default_rng(args.seed)
    pairs = []
    for _ in range(args.points):
        v = np.abs(rng.standard_normal(args.k)) * args.radius
        w = np.sort(v * v)[::-1].copy()
        w[0] += w[1] * 0.5  # transfer toward the top coordinate
        w[1] *= 0.5
        pairs.append((np.sqrt(np.sort(v * v)[::-1]), np.sqrt(w)))
    return verify.check_schur2_monotonicity(S, pairs, seed=args.seed,
                                            workers=args.workers)


FIG1_PANELS = [
    pq_ball(2, 0.0, -1.0, 1.0), pq_ball(2, 2.0, -0.4, 1.0),
    pq_ball(2, 5.0, -1.0, 1.0), pq_ball(2, 0.7, 0.7, 1.0),
    pq_ball(2, 1.0, 0.0, 1.0), pq_ball(2, 2.0, 2.0, 1.0),
    pq_ball(2, 5.0, 1.0, 1.0),
    hat_b(2, 4.5, 1.0, 2.0 ** (-1.0 / 4.5) + 0.01),
    check_b(2, 1.5, 1.0, 0.5 - 0.05),
]


def _boundary_cloud(S, half_width=2.5, n=384):
    xs = np.linspace(-half_width, half_width, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    mem = contains_rows(S, pts).reshape(n, n)
    edge = np.zeros_like(mem)
    edge[:-1, :] |= mem[:-1, :] != mem[1:, :]
    edge[:, :-1] |= mem[:, :-1] != mem[:, 1:]
    i, j = np.nonzero(edge)
    return np.stack([xs[i], xs[j]], axis=1)


def cmd_figures(args):
    seed, workers, rows = args.seed, args.workers, []
    if args.which == 1:
        for idx, S in enumerate(FIG1_PANELS):
            rows += [{"panel": idx, "set": format_set(S), "x": float(x),
                      "y": float(y)} for x, y in _boundary_cloud(S)]
    elif args.which == 2:
        S = pq_ball(2, 2.0, -0.4, 1.0)
        for radius in (1.0, 11.0):
            for t in (math.pi / 5.0, math.pi / 20.0):
                shift = radius * np.array([math.cos(t), math.sin(t)])
                est = measure(GaussianShiftQuery(
                    set=S, shift=shift, seed=seed, workers=workers,
                    target_rel_error=1e-4 if radius < 2 else 1e-2))
                rows.append({"radius": radius, "angle": t,
                             "value": est.value, "abs_error": est.abs_error,
                             "target_met": est.target_met})
    elif args.which == 3:
        for p in [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]:
            r_diag, r_coord = are_analysis.are_extremes(
                2, p, args.alpha, args.beta, seed=seed, workers=workers)
            psi = 2.0 * p / (2.0 * abs(p) + 3.0)  # compressed p axis
            rows.append({"p": p, "psi_p": psi, "are_diagonal": r_diag.are,
                         "are_coordinate": r_coord.are, "target_met":
                         r_diag.target_met and r_coord.target_met})
    else:
        for p in (2.1, 1.9):
            for t, r in are_analysis.are_direction_sweep(
                    p, args.alpha, args.beta, n_angles=args.angles,
                    seed=seed, workers=workers):
                rows.append({"p": p, "angle": t, "are": r.are,
                             "beats_lrt": bool(r.are > 1.0),
                             "target_met": r.target_met})
    return rows


def build_parser():
    ap = argparse.ArgumentParser(
        prog="schur2",
        description="Gaussian measures of shifted sets, p-mean test "
                    "calibration, and relative-efficiency analysis.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("measure", help="Gaussian measure of a shifted set")
    m.add_argument("--set", required=True,
                   help='set text, e.g. "pqball:p=2,q=-0.4,eps=1"')
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--shift", required=True, help="comma-separated shift")
    m.add_argument("--sigma", type=float, default=1.0)
    m.add_argument("--target", type=float, default=None,
                   help="target relative error")
    m.add_argument("--method", default=None, choices=METHODS)
    _add_common(m, cmd_measure)

    for name, fn, hlp in [
            ("critical", cmd_critical, "critical value c_(p, alpha)"),
            ("shift", cmd_shift, "power-matching shift"),
            ("are", cmd_are, "relative efficiency vs the 2-mean test")]:
        s = sub.add_parser(name, help=hlp)
        s.add_argument("--k", type=int, required=True)
        s.add_argument("--p", type=float, required=True)
        s.add_argument("--alpha", type=float, required=True)
        if name != "critical":  # a design adds the power and the direction
            s.add_argument("--beta", type=float, required=True)
            s.add_argument("--u", required=True, help="direction, comma-separated")
        _add_common(s, fn)

    sw = sub.add_parser("sweep", help="ARE over direction angles at k=2")
    sw.add_argument("--p", type=float, required=True)
    sw.add_argument("--alpha", type=float, required=True)
    sw.add_argument("--beta", type=float, required=True)
    sw.add_argument("--angles", type=int, default=11)
    _add_common(sw, cmd_sweep)

    v = sub.add_parser("verify", help="verification suite")
    v.add_argument("check", choices=["counterexample", "rotation", "schur2",
                                     "power"])
    for flag, default in [("k", 2), ("eps", 0.15), ("budget", 400_000),
                          ("set", "cube:a=1"), ("radius", 2.0), ("points", 9),
                          ("p", 2.0), ("alpha", 0.05), ("n", 400),
                          ("reps", 10_000)]:  # each parsed as its default is
        v.add_argument("--" + flag, type=type(default), default=default)
    v.add_argument("--population", choices=["gaussian", "uniform"],
                   default="gaussian")
    _add_common(v, cmd_verify)

    f = sub.add_parser("figures", help="emit the data behind the figures")
    f.add_argument("--which", type=int, required=True, choices=[1, 2, 3, 4])
    f.add_argument("--alpha", type=float, default=0.05)
    f.add_argument("--beta", type=float, default=0.95)
    f.add_argument("--angles", type=int, default=11)
    _add_common(f, cmd_figures)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.workers < 1:
            ap.error("--workers must be at least 1")
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        payload = args.fn(args)
        _emit(payload, args)
    except (ValueError, SystemExit) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    rows = payload if isinstance(payload, list) else [payload]
    return 2 if any(not (r.get("target_met", True) and r.get("passed", True))
                    for r in rows if isinstance(r, dict)) else 0


if __name__ == "__main__":
    sys.exit(main())
