"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import answers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = run.load_refs()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def first_cycles(workload, seed, n=2):
    return list(itertools.islice(workloads.cycles(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload):
    assert first_cycles(workload, 3) == first_cycles(workload, 3)
    assert first_cycles(workload, 3) != first_cycles(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_size_does_not_depend_on_the_seed(workload):
    def size(seed):
        return sum(len(b) for b in workloads.run_blocks(workload, seed, 30))
    one_cycle = sum(len(b) for b in first_cycles(workload, 1, n=1)[0])
    assert size(1) == size(2) == one_cycle


def test_a_bit_mismatch_with_one_worker_is_a_regression():
    a = next(a for a in workloads.pool("mc-k3") if REFS[a.key]["pass_at_seed"])
    rec = REFS[a.key]
    good = answers.Outcome(rec["ref"], rec["ref_err"], True,
                           tuple(rec["bits_w1"]))
    assert answers.check(a, good, REFS) == (True, False)
    bad = answers.Outcome(rec["ref"], rec["ref_err"], True,
                          good.bits[:-1] + ("0x0p+0",))
    assert answers.check(a, bad, REFS) == (False, True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_answer_has_a_reference(workload):
    for a in workloads.pool(workload):
        answers.reference(a, REFS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycles_draw_only_from_the_pool(workload):
    keys = {a.key for a in workloads.pool(workload)}
    for cycle in first_cycles(workload, 7, n=5):
        assert {a.key for block in cycle for a in block} <= keys


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, group):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "polar2d", "--seed",
         "5", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_traced_answers_equal_untraced_answers():
    # the cheapest answers of each workload, including a Monte Carlo answer
    # on two worker threads and an are() answer on the quadrature path
    def cheapest(pool, n):
        return sorted(pool, key=lambda a: (REFS[a.key]["ms"], a.key))[:n]

    quad_are = [a for a in workloads.are_pool() if a.get("p") == 1.0]
    blocks = [[a] for a in cheapest(quad_are, 1)
              + cheapest(workloads.polar_pool(), 2)
              + cheapest(workloads.pool("mc-k3"), 2)]
    plain = run.run_pass(blocks, REFS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(blocks, REFS, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [o.bits for o in plain.outcomes] == [o.bits for o in traced.outcomes]
    assert {s.answer for s in tracer.spans} == set(range(len(blocks)))
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["sets.contains_rows.calls"][0] > 0
    assert metrics["are_analysis.are.calls"][0] == 1
