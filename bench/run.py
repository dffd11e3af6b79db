"""The schur2 benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload are-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The run generates the workload's answers from
the seed, drives the public Python API with them for about --seconds, checks
every answer and prints its metrics, the last line being one JSON object.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced replay. See bench/README.md.
"""

import os

# pin BLAS and OpenMP pools to one thread before numpy loads
for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPS = 7
SETUP_CODE = ("import time; t0 = time.perf_counter(); import schur2.cli; "
              "print(time.perf_counter() - t0)")


def setup_seconds():
    """Median time, over fresh interpreters, to import schur2.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def load_refs():
    refs = {}
    for path in sorted((HERE / "refs").glob("*.json")):
        refs.update(json.loads(path.read_text()))
    return refs


class Record:
    """What one pass over a run's blocks did."""

    def __init__(self):
        self.outcomes = []
        self.ms = []
        self.passed = []
        self.regressed = []  # see answers.check
        self.errors = []


class StopBlock(Exception):
    """The rest of the block is skipped: an answer in it raised."""


def run_pass(blocks, refs, tracer=None):
    """Run blocks in order, checking each answer; with a tracer, each answer
    runs inside a root span."""
    import answers
    import spans

    rec = Record()

    def on_answer(a, thunk):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = thunk()
            else:
                tracer.answer = len(rec.outcomes)
                out = tracer.call(spans.ROOT_NAMES[a.kind], thunk, (), {},
                                  spans.root_info)
        except Exception as exc:  # an answer that raises counts as failed
            rec.ms.append((time.perf_counter() - t0) * 1e3)
            rec.errors.append(f"{a.key}: {exc!r}")
            rec.outcomes.append(None)
            rec.passed.append(False)
            raise StopBlock from exc
        rec.ms.append((time.perf_counter() - t0) * 1e3)
        rec.outcomes.append(out)
        passed, regressed = answers.check(a, out, refs)
        rec.passed.append(passed)
        if regressed:
            rec.regressed.append(a.key)
        return out

    for block in blocks:
        try:
            answers.run_block(block, on_answer)
        except StopBlock:
            continue
    return rec


def tail(ms):
    """Answer time at the highest percentile with ten answers beyond it."""
    xs = sorted(ms)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def warm_up(workload, refs):
    """One answer outside the timed window, so lazy imports and first-call
    set-up inside scipy are not charged to the workload."""
    import workloads

    a = min(workloads.pool(workload), key=lambda a: refs[a.key]["ms"])
    run_pass([[a]], refs)


def end_to_end(workload, seed, seconds, refs):
    import workloads

    import schur2.cli  # noqa: F401  compile bytecode before timing set-up
    setup = setup_seconds()
    warm_up(workload, refs)
    rec = run_pass(workloads.run_blocks(workload, seed, seconds), refs)
    n = len(rec.ms)
    tail_ms, tail_pct = tail(rec.ms)
    metrics = {
        "answers_per_s": (n / (sum(rec.ms) / 1e3), "1/s"),
        "answer_ms_p50": (statistics.median(rec.ms), "ms"),
        "answer_ms_tail": (tail_ms, "ms"),
        "pass_frac": (sum(rec.passed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup, "s"),
    }
    notes = [f"answers {n}, answer_ms_tail at p{tail_pct:.1f} of {n}",
             f"fail_frac {1.0 - sum(rec.passed) / n:.6g} "
             f"({n - sum(rec.passed)} of {n} answers failed their check)"]
    return rec, metrics, notes, True


def per_layer(workload, seed, seconds, refs):
    """Runs the blocks of an end-to-end run untraced, then again traced."""
    import spans
    import workloads

    warm_up(workload, refs)
    blocks = workloads.run_blocks(workload, seed, seconds)
    plain = run_pass(blocks, refs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(blocks, refs, tracer=tracer)
    finally:
        tracer.uninstall()
    same = [p is not None and t is not None and p.bits == t.bits
            for p, t in zip(plain.outcomes, traced.outcomes)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl")
    metrics = spans.layer_metrics(tracer.spans)
    metrics.update(spans.kernel_metrics())
    metrics["trace.overhead"] = (sum(plain.ms) / sum(traced.ms), "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    notes = [f"answers {len(plain.ms)} untraced, {len(traced.ms)} traced, "
             f"{sum(same)} bit-identical"]
    traced.errors += plain.errors
    traced.regressed += plain.regressed
    return traced, metrics, notes, all(same) and len(same) == len(plain.ms)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "schur2" / "__init__.py").is_file():
        print(f"schur2 sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    refs = load_refs()
    measure = per_layer if args.trace else end_to_end
    rec, metrics, notes, same = measure(args.workload, args.seed,
                                        args.seconds, refs)
    for line in notes + rec.errors:
        print(line)
    for key in rec.regressed:
        print(f"regressed: {key}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    result = {
        "correct": same and not rec.errors and not rec.regressed,
        "attempted": len(rec.ms),
        "failed": len(rec.errors),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
