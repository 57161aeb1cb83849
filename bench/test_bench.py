"""Tier-1 smoke tests of the benchmark (``--smoke`` sizes, a few seconds)."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from bench import compare, golden, run, trace
from bench.workloads import WORKLOADS, generate

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _assert_emits(line: dict, section: str) -> None:
    """``line`` is a passing result line carrying every ``section`` metric."""
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == {m["name"]: m["unit"] for m in DECLARED[section]}
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())


def test_a_traced_smoke_run_emits_every_per_layer_metric(tmp_path):
    # One real run through the command line.  Every workload emits the
    # same metric names and traces every layer, so one workload will do.
    # Output goes to files, not pipes: the benchmark's children lead their
    # own process groups, and one left running would hold a pipe open past
    # the timeout.
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with out.open("w") as stdout, err.open("w") as stderr:
        proc = subprocess.run(
            [sys.executable, "-m", "bench", "--smoke", "--seconds", "0.1",
             "--workload", "sampled", "--trace", "1"],
            cwd=run.ROOT, stdout=stdout, stderr=stderr, timeout=120)
    assert proc.returncode == 0, err.read_text()
    _assert_emits(json.loads(out.read_text().splitlines()[-1]), "per_layer")
    assert not (run.ROOT / ".bench_tmp").exists()


def _timed_unit(service: bool) -> dict:
    """A synthetic untraced unit: a batch call, or one service run."""
    if not service:
        value = {"wall": 1.0, "results": [{"length": 900, "wall": 0.6},
                                          {"length": 300, "wall": 0.3}]}
    else:
        done = {"status": "done", "cached": False, "submitted_at": 1.0,
                "started_at": 1.2, "finished_at": 2.0}
        value = {"records": {"j1": done},
                 "results": {"j1": {"length": 900}},
                 "submissions": [
                     {"id": "j1", "created": True, "due": 1.0,
                      "returned": 1.1},
                     {"id": "j1", "created": False, "due": 1.5,
                      "returned": 1.6}]}
    return {"kind": "timed", "traced": False, "rss_mb": 40.0,
            "value": value}


@pytest.mark.parametrize("service", [False, True])
def test_every_end_to_end_metric_is_emitted_nonzero(service):
    record = run._end_to_end([{"wall": 0.5}], [_timed_unit(service)],
                             [0.1], service)
    line = run.result_line(dict(record, correct=True, attempted=2,
                                failed=0))
    _assert_emits(line, "end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_differs(workload):
    assert generate(workload, 0) == generate(workload, 0)
    assert generate(workload, 0) != generate(workload, 1)


def test_service_traffic_mix():
    inputs = generate("service", 7)
    kinds = [job["kind"] for job in inputs["jobs"]]
    assert (kinds.count("miss"), kinds.count("read"),
            kinds.count("dedupe")) == (3, 3, 4)
    first_seen = [job["name"] for job in inputs["jobs"]
                  if job["kind"] != "dedupe"]
    assert len(set(first_seen)) == len(first_seen)
    assert [e["name"] for e in inputs["preload"]] == [
        job["name"] for job in inputs["jobs"] if job["kind"] == "read"]


def _result(estimate: float) -> dict:
    return {"estimate_mean": estimate, "confidence_interval": 0.05,
            "sample_size": 2,
            "units": [{"instructions": 50, "cycles": 70, "energy": 0.0},
                      {"instructions": 50, "cycles": 80, "energy": 0.0}]}


def _batch_unit(digest: str) -> dict:
    return {"value": {"results": [{"name": "spec-a", "digest": digest}]}}


def test_digest_gate_catches_a_perturbed_estimate():
    exact = golden.digest(_result(1.5))
    perturbed = golden.digest(_result(math.nextafter(1.5, 2.0)))
    assert perturbed != exact
    assert golden.digest(dict(_result(1.5), new_field=1)) == exact

    gold = {"digests": {"sampled": {"0": {"spec-a": exact}}}}
    check = run._check("sampled", 0, False, gold,
                       [_batch_unit(exact), _batch_unit(exact)], False)
    assert check["correct"] and check["attempted"] == 2
    # Against golden, and across reps of a seed golden does not hold.
    check = run._check("sampled", 0, False, gold,
                       [_batch_unit(perturbed)], False)
    assert check["failed"] == 1 and not check["correct"]
    check = run._check("sampled", 5, False, gold,
                       [_batch_unit(exact), _batch_unit(perturbed)], False)
    assert check["failed"] == 1 and "across units" in check["problems"][0]


def _span(pid, span_id, parent, start, end, name="s"):
    return {"name": name, "pid": pid, "id": span_id, "parent": parent,
            "start": start, "end": end}


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    spans = [
        _span(1, 1, None, 0.0, 10.0),
        _span(1, 2, 1, 1.0, 4.0),   # two children overlapping in time
        _span(1, 3, 1, 3.0, 6.0),   # (threads): their union counts once
        _span(1, 4, 2, 2.0, 3.0),
        _span(1, 5, 1, 9.0, 12.0),  # clipped to its parent's end
        _span(2, 2, None, 0.0, 1.0),  # same id, other process
    ]
    selfs = trace.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)
    assert selfs[(2, 2)] == pytest.approx(1.0)
    assert trace.union_seconds([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.03]
NOISY = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]


@pytest.mark.parametrize("parent, change, better, expected", [
    (STEADY, [v * 1.2 for v in STEADY], "higher", "better"),
    (STEADY, [v * 1.2 for v in STEADY], "lower", "worse"),
    (STEADY, [v * 0.8 for v in STEADY], "higher", "worse"),
    (STEADY, [v * 1.05 for v in STEADY], "lower", "unchanged"),
    (STEADY, list(reversed(STEADY)), "higher", "unchanged"),
    (NOISY, [v * 1.05 for v in NOISY], "higher", "unresolved"),
    (NOISY, [v + 5.0 for v in NOISY], "higher", "better"),
    (NOISY, [v + 5.0 for v in NOISY], "lower", "worse"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1) == expected


def test_compare_blocks_on_digest_and_failure_differences():
    def record(seed, digest, failed=0):
        metrics = {m["name"]: [1.0, m["unit"]]
                   for m in DECLARED["end_to_end"]}
        return {"workload": "sampled", "seed": seed, "smoke": False,
                "trace": 0, "failed": failed, "metrics": metrics,
                "digests": {"spec-a": digest}}

    rows, problems = compare.compare({"sampled": [record(0, "aa")]},
                                     {"sampled": [record(0, "aa")]},
                                     DECLARED)
    assert problems == [] and {r[2] for r in rows} == {"unchanged"}
    _, problems = compare.compare({"sampled": [record(0, "aa")]},
                                  {"sampled": [record(0, "bb", failed=1)]},
                                  DECLARED)
    assert len(problems) == 2
