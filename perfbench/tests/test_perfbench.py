"""Tests of the benchmark itself (not collected by the tier-1 run).

Run from the repository root with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostclock import CalibratedClock, reference_slice  # noqa: E402
from tracer import EventProbe, Tracer, layer_self_times, self_times  # noqa: E402

run.import_program()
from workloads import WORKLOADS  # noqa: E402

CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def one_unit(workload, state, tracer=None):
    probe = EventProbe()
    probe.install()
    try:
        units, _ = run.run_units(workload, state, probe, count=1,
                                 tracer=tracer)
    finally:
        probe.uninstall()
    assert units[0].error is None, units[0].error
    return units[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_prints_every_end_to_end_metric(name, capsys):
    code = run.main(["--workload", name, "--size", "tiny",
                     "--seconds", "0.2"])
    result = result_line(capsys)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digest_check_rejects_a_perturbed_trajectory():
    workload = WORKLOADS["queue_burst"]("tiny")
    unit = one_unit(workload, workload.setup(3))
    reference = unit.digest
    assert run.check_units([unit], reference) == []

    app, finish = unit.records[0]["finished"][0]
    unit.records[0]["finished"][0] = (app, finish + 1e-9)
    unit.digest = run.digest(unit)
    problems = run.check_units([unit], reference)
    assert len(problems) == 1 and unit.failed

    unit.records[0]["finished"][0] = (app, finish)
    unit.records[0]["counts"]["executor_spawned"] += 1
    unit.digest = run.digest(unit)
    assert run.check_units([unit], reference) and unit.failed


def test_reference_mismatch_fails_the_command(monkeypatch, capsys):
    key = run.reference_key("fleet_churn", "tiny", run.DEFAULT_SEED)
    monkeypatch.setattr(run, "load_references", lambda: {key: "0" * 64})
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main(["--workload", "fleet_churn", "--size", "tiny",
                     "--seconds", "0.2"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "FAIL fleet_churn" in captured.err


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("bench.unit", 0.0, 10.0, -1, 0),
        ("cluster.run", 1.0, 9.0, 0, 0),
        ("scheduling.schedule", 2.0, 5.0, 1, 0),
        ("scheduling.spawn", 3.0, 4.0, 2, 0),
        ("cluster.advance", 5.0, 6.0, 1, 0),
        # Overlapping children are covered once, not twice.
        ("env.step", 11.0, 20.0, -1, 1),
        ("cluster.arrivals", 12.0, 15.0, 5, 1),
        ("cluster.faults", 14.0, 16.0, 5, 1),
    ]
    assert self_times(spans) == [2.0, 4.0, 2.0, 1.0, 1.0, 5.0, 3.0, 2.0]
    layers = layer_self_times(spans)
    assert layers["other"] == 2.0
    assert layers["cluster"] == 4.0 + 1.0 + 3.0 + 2.0
    assert layers["scheduling"] == 3.0
    assert layers["env"] == 5.0


def test_traced_counts_equal_untraced_bus_counts(tmp_path):
    workload = WORKLOADS["fleet_churn"]("tiny")
    state = workload.setup(5)
    untraced = one_unit(workload, state)

    tracer = Tracer()
    before = {cls: dict(vars(cls)) for cls in _wrapped_classes()}
    tracer.install()
    try:
        workload.tracer = tracer
        traced = one_unit(workload, state, tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    assert {cls: dict(vars(cls)) for cls in _wrapped_classes()} == before

    assert [r["counts"] for r in traced.records] == \
        [r["counts"] for r in untraced.records]
    assert traced.digest == untraced.digest
    names = {span[0] for span in tracer.closed_spans()}
    assert {"cluster.run", "cluster.advance", "cluster.faults",
            "scheduling.schedule", "scheduling.spawn"} <= names
    assert tracer.counts["spark.executor_remaining_gb_calls"] > 0

    trace = json.loads(tracer.write_chrome_trace(
        tmp_path / "trace.json").read_text())
    assert len(trace["traceEvents"]) == len(tracer.spans)
    assert all(event["ph"] == "X" and event["dur"] >= 0
               for event in trace["traceEvents"])


def _wrapped_classes():
    from repro.cluster.engine import EventDrivenEngine, _EngineBase
    from repro.cluster.simulator import (ClusterSimulator, NodeFeatures,
                                         SchedulingContext)
    from repro.scheduling.colocation import MemoryAwareCoLocationScheduler
    from repro.spark.application import SparkApplication
    from repro.spark.executor import Executor

    return (ClusterSimulator, SchedulingContext, NodeFeatures, _EngineBase,
            EventDrivenEngine, MemoryAwareCoLocationScheduler,
            SparkApplication, Executor)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_calibrated_clock_leaves_out_its_slices_and_restores_sigalrm(
        monkeypatch):
    import signal
    import time

    import hostclock

    # At a fixed rate of 2 reference seconds per host second, the clock
    # must read twice the host time spent outside the slices.
    monkeypatch.setattr(hostclock, "_rate", lambda slice_s: 2.0)
    before = signal.getsignal(signal.SIGALRM)
    readings = []
    clock = CalibratedClock(period_s=0.005).start()
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.3:
            readings.append(clock.now())
            reference_slice()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        end = time.perf_counter()
        last = clock.now()
        slice_s = clock.slice_s
    finally:
        # Unblock first: an alarm still pending once the default handler
        # is back would end the process.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.slices > 10
    assert readings == sorted(readings)
    assert last == pytest.approx(2.0 * (end - begin - slice_s), abs=1e-3)
