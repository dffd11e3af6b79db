"""Record the benchmark's reference values at the current commit.

    python3 bench/record_refs.py [WORKLOAD ...]

For every answer in a workload's pool this writes, to bench/refs/<name>.json:
  ms           wall time of the answer;
  ref, ref_err a reference and its stated error, unless a closed form or a
               golden exists:
                 are-sweep  the answer itself, as recorded here;
                 polar2d    POLAR2D at a target 100 times tighter;
                 mc-k3      Monte Carlo at a target 4 times tighter on
                            another seed, and for critical values and
                            shift solutions the mean and standard deviation
                            over six other seeds;
  bits_w1      (mc-k3) the answer's bits at workers=1, which the run at
               workers=2 must reproduce exactly;
  pass_at_seed whether the answer passed its check when recorded.
Run it only to re-baseline: the references are meant to stay fixed.
"""

import os

for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import answers  # noqa: E402
import workloads as wl  # noqa: E402
from schur2.gauss_measure import GaussianShiftQuery, measure  # noqa: E402
from schur2.sets import parse_set  # noqa: E402
from schur2.solvers import critical_value, shift_solution  # noqa: E402

REF_SEEDS = tuple(range(101, 107))
MC_REF_SEED = 1000


def timed(f):
    t0 = time.perf_counter()
    out = f()
    return out, (time.perf_counter() - t0) * 1e3


def with_workers(a, w):
    params = dict(a.params)
    params["workers"] = w
    return replace(a, params=tuple(sorted(params.items())))


def record_are(a):
    out, ms = timed(lambda: answers.run(a))
    return out, {"ms": ms, "ref": out.value, "ref_err": out.err}


def record_polar(a):
    out, ms = timed(lambda: answers.run(a))
    tight = measure(GaussianShiftQuery(
        set=parse_set(a.get("set"), 2), shift=a.get("shift"),
        target_rel_error=a.get("target") / 100.0))
    return out, {"ms": ms, "ref": tight.value, "ref_err": tight.abs_error}


_mc_refs = {}


def record_mc_measure(a):
    out, ms = timed(lambda: answers.run(with_workers(a, 1)))
    site = (a.get("set"), a.get("shift"))
    if site not in _mc_refs:
        _mc_refs[site] = measure(GaussianShiftQuery(
            set=parse_set(a.get("set"), 3), shift=a.get("shift"),
            target_rel_error=2.5e-3, seed=MC_REF_SEED,
            mc_max_samples=1 << 24))
    ref = _mc_refs[site]
    return out, {"ms": ms, "bits_w1": list(out.bits), "ref": ref.value,
                 "ref_err": ref.abs_error}


def record_calib(crit, shift):
    k, p, alpha = crit.get("k"), crit.get("p"), crit.get("alpha")
    d = answers.design(shift)
    cs, ts = [], []
    for s in REF_SEEDS:
        c = critical_value(k, p, alpha, seed=s)
        cs.append(c)
        ts.append(shift_solution(d, seed=s, c=c).t)
    c_out, c_ms = timed(lambda: answers.run(with_workers(crit, 1)))
    s_out, s_ms = timed(lambda: answers.run(with_workers(shift, 1),
                                            c=c_out.value))
    recs = []
    for out, ms, vals in ((c_out, c_ms, cs), (s_out, s_ms, ts)):
        recs.append({"ms": ms, "bits_w1": list(out.bits),
                     "ref": statistics.fmean(vals),
                     "ref_err": statistics.stdev(vals)})
    return (c_out, recs[0]), (s_out, recs[1])


def finish(a, out, rec, table):
    ref, ref_err, kind, _ = answers.reference(a, {a.key: rec})
    rec.update(ref=float(rec["ref"]), ref_err=float(rec["ref_err"]),
               ref_kind=kind,
               pass_at_seed=bool(answers.accurate(out, ref, ref_err)))
    table[a.key] = rec
    print(f"{rec['ms']:9.1f} ms  pass={rec['pass_at_seed']!s:5}  {a.key}",
          flush=True)


def record(workload):
    table = {}
    if workload == "are-sweep":
        for a in wl.are_pool():
            finish(a, *record_are(a), table)
    elif workload == "polar2d":
        for a in wl.polar_pool():
            finish(a, *record_polar(a), table)
    else:
        for a in (a for slot in wl.mc_slots() for a in slot):
            finish(a, *record_mc_measure(a), table)
        for crit, shift in (blk for slot in wl.mc_calib_slots() for blk in slot):
            for a, (out, rec) in zip((crit, shift), record_calib(crit, shift)):
                finish(a, out, rec, table)
    dest = HERE / "refs" / f"{workload}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or wl.WORKLOADS:
        record(name)
