"""Tests of the benchmark itself: inputs, output checks, tracing, metric names.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts this checkout's src/ on the path)
from run import layers, workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def workdir():
    path = os.path.join(run.WORK, f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small_mc(workdir, seed=3):
    return workloads.McWorkload(
        workdir, seed, lambda s, r=20: workloads.mc_small_n_config(s, r),
        workers=1, dump=False)


def test_same_seed_gives_byte_identical_inputs():
    for make in (workloads.mc_small_n_config, workloads.study_config):
        assert make(7) == make(7)
        assert make(7) != make(8)
    assert workloads.fit_dataset_csv(7, 2000) == workloads.fit_dataset_csv(7, 2000)
    assert workloads.fit_dataset_csv(7, 2000) != workloads.fit_dataset_csv(8, 2000)


def test_fit_dataset_is_tied_and_valid():
    text = workloads.fit_dataset_csv(2, 5000)
    assert text.count("\n") == 5001
    assert workloads.tied_event_blocks(text) > 12


def test_check_rejects_a_flipped_power_count(workdir):
    workload = _small_mc(workdir)
    op = workload.op()
    assert op.failed == 0, op.problems
    sidecar = json.loads(workload.first["sidecar"])
    assert workload.check_first(sidecar) == []
    row = sidecar["rows"][0]
    row["power"]["strat_lr"] += 1.0 / row["replicates"]
    problems = workload.check_first(sidecar)
    assert problems == ["replay of row 0.5: power count of strat_lr differs"]


def test_check_rejects_a_perturbed_bias(workdir):
    workload = _small_mc(workdir)
    workload.op()
    sidecar = json.loads(workload.first["sidecar"])
    sidecar["rows"][0]["methods"]["mult_cox"]["avg_bias"] *= 1 + 1e-8
    assert any("mult_cox avg_bias" in p for p in workload.check_first(sidecar))


def test_check_rejects_a_perturbed_fit_beta(workdir):
    workload = workloads.FitWorkload(workdir, 4, workloads.fit_dataset_csv(4, 5000))
    op = workload.op()
    assert op.failed == 0, op.problems
    result = json.loads(workload.first["stdout"])
    workload.reference = json.loads(workload.first["stdout"])
    assert workload.check_first(json.dumps(result)) == []
    result["coefficients"]["treatment"] += 1e-4
    result["log_hr"] += 1e-4
    problems = workload.check_first(json.dumps(result))
    assert any(p.startswith("gradient") for p in problems)
    assert any("log_hr" in p for p in problems)


def test_later_operation_must_repeat_the_first(workdir):
    workload = _small_mc(workdir)
    workload.op()
    workload.first["csv"] += b"x"
    op = workload.op()
    assert op.failed == 1
    assert op.problems == ["result CSV differs from the first operation's"]


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    tracer.start_op("op0")
    tracer.wrap("root", lambda: tracer.wrap("middle", middle)())()
    own = tracer.self_ns()
    root = tracer.spans[0]
    assert [rec[0] for rec in tracer.spans] == ["root", "middle", "leaf", "leaf"]
    assert sum(own) == root[2] - root[1]
    assert all(value >= 0 for value in own)


def test_layer_sources_label_fallbacks():
    own = {"a": 1.5, "b": None, "c": None}
    companion = {"a": 9.0, "b": 2.5, "c": None}
    values, sources = layers.with_sources(own, companion)
    assert values == {"a": 1.5, "b": 2.5, "c": 0.0}
    assert sources == {"a": "own", "b": "companion", "c": "unreached"}


def test_calls_per_replicate_repeats_exactly(workdir):
    workload = _small_mc(workdir)
    first = run.calls_per_replicate(workload)
    assert first == run.calls_per_replicate(workload)
    assert first > 100


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_equal_benchmark_json(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "mc_small_n", "--seed", "2", "--seconds", "0",
                       "--trace", trace])
    assert rc == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = _benchmark_json()
    names = [m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(isinstance(m["value"], float) or isinstance(m["value"], int)
               for m in result["metrics"].values())
