"""The repository benchmark: one workload per invocation, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 11 --seconds 15 --trace 0
    python3 perfbench/run.py --workload queue_burst --seed 11 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the same units untraced and then again under the span wrappers of
:mod:`tracer`, checks that both produce the same digest and event counts,
reports the per-layer metrics and writes the spans as a Chrome trace to
``perfbench/out/``.  Untraced passes and set-ups are timed in reference
seconds by :class:`hostclock.CalibratedClock`, which takes the host's
speed swings out; the traced pass reports host seconds.  The last line
of standard output is always the
result object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable report.  A digest mismatch or a failed
operation makes the command exit with status 1.

Metric definitions live in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = HERE / "out"

#: Seed used when ``--seed`` is omitted; ``digests.json`` pins it and
#: :data:`HELD_OUT_SEED`, which was never used while tuning.
DEFAULT_SEED = 11
HELD_OUT_SEED = 12

#: Set-up repeats per run (this process plus fresh interpreters): the
#: reported ``setup_s`` is their median, because one cold set-up spreads
#: far more than the bound allows.
SETUP_SAMPLES = 3

#: Event kinds reported per layer as ``cluster.events.<kind>``.
EVENT_KINDS = ("executor_spawned", "executor_finished", "executor_oom",
               "executor_killed", "executor_preempted", "node_down",
               "node_up", "app_finished", "scheduler_wake")

sys.path.insert(0, str(HERE))

from hostclock import CalibratedClock  # noqa: E402
from tracer import span  # noqa: E402


def import_program(tracer=None, clock=time.perf_counter) -> float:
    """Import the program and the benchmark's workloads; return seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    start = clock()
    with span(tracer, "import.repro"):
        import repro  # noqa: F401
        import workloads  # noqa: F401
    return clock() - start


def timed_setup(workload, seed: int, import_s: float, tracer=None,
                clock=time.perf_counter):
    """Run the workload's set-up; return ``(state, setup seconds)``."""
    start = clock()
    with span(tracer, "bench.setup"):
        state = workload.setup(seed)
    return state, import_s + clock() - start


def fresh_setup_s(args) -> float:
    """One cold set-up in a fresh interpreter, as a user would pay it."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def run_units(workload, state, probe, *, seconds: float | None = None,
              count: int | None = None, tracer=None,
              clock=time.perf_counter) -> tuple[list, float]:
    """Repeat units for about ``seconds`` (or exactly ``count`` units).

    A new unit starts only while at least half a unit's wall time is
    left, so a run measures close to ``seconds`` whatever the unit length.
    Returns the units (each carrying its bus records and digest, or the
    exception it raised) and the time they took on ``clock``, which also
    times the workload's operations.
    """
    units = []
    workload.clock = clock
    start = time.perf_counter()
    begun = clock()
    while True:
        tick = time.perf_counter()
        if tracer is not None:
            tracer.run_id += 1
        try:
            with span(tracer, "bench.unit"):
                unit = workload.unit(state)
            unit.error = None
        except Exception as error:  # noqa: BLE001 - counted, then reported
            from workloads import Unit

            unit = Unit()
            unit.error = f"{type(error).__name__}: {error}"
        unit.wall_s = time.perf_counter() - tick
        unit.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0)
        unit.records = probe.take()
        unit.digest = None if unit.error else digest(unit)
        units.append(unit)
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(units) >= count:
                break
        elif elapsed + 0.5 * unit.wall_s >= seconds:
            break
    taken = clock() - begun
    workload.clock = time.perf_counter
    return units, taken


def canonical(unit) -> dict:
    """What a digest covers: per-job finish times, event counts by kind
    and the sim metrics, per simulation, in order."""
    return {
        "runs": [{"counts": dict(sorted(record["counts"].items())),
                  "finished": record["finished"]}
                 for record in unit.records],
        "sim": unit.sim,
    }


def digest(unit) -> str:
    text = json.dumps(canonical(unit), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> dict:
    return json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}


def reference_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def check_units(units: list, reference: str | None) -> list[str]:
    """Problems with a run's units: errors, divergence, reference mismatch.

    Every unit of a run repeats the same inputs, so every digest must be
    the same; with a recorded reference they must also equal it.  Each
    problem marks its unit failed.
    """
    problems = []
    expected = reference
    for index, unit in enumerate(units):
        if unit.error:
            problems.append(f"unit {index}: {unit.error}")
            unit.failed = True
            continue
        if expected is None:
            expected = unit.digest
        unit.failed = unit.digest != expected
        if unit.failed:
            source = "reference" if reference is not None else "unit 0"
            problems.append(f"unit {index}: digest {unit.digest[:16]} "
                            f"differs from {source} {expected[:16]}")
    return problems


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer no
    percentile has ten beyond it, and the maximum (percentile 100) is
    reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(units: list, run_s: float, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced run (times in reference
    seconds, see :mod:`hostclock`)."""
    ops = [op for unit in units for op in unit.op_s]
    counts = {}
    for unit in units:
        for record in unit.records:
            for kind, n in record["counts"].items():
                counts[kind] = counts.get(kind, 0) + n
    tail_s, _ = tail(ops)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / run_s, "1/s"),
        "op_tail_s": (tail_s, "s"),
        "sim_jobs_per_s": (counts.get("app_finished", 0) / run_s, "1/s"),
        "events_per_s": (sum(counts.values()) / run_s, "1/s"),
        # Peak through set-up and the first unit: later units only add
        # allocator slack, and how many fit in the window is host noise.
        "peak_rss_mb": (units[0].peak_rss_mb, "MB"),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from the traced units
# ----------------------------------------------------------------------
def per_layer(tracer, traced: list, traced_wall: float,
              untraced_wall: float) -> dict:
    from tracer import layer_self_times, self_times

    spans = tracer.closed_spans()
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def total(name: str) -> float:
        return math.fsum(spans[i][2] - spans[i][1]
                         for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def values(name: str) -> int:
        return sum(tracer.values.get(i, 0) for i in by_name.get(name, ()))

    def ms(name: str) -> list[float]:
        return [(spans[i][2] - spans[i][1]) * 1e3
                for i in by_name.get(name, ())] or [0.0]

    def ancestor(index: int, name: str) -> int:
        parent = spans[index][3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        return parent

    productive = {ancestor(i, "scheduling.schedule")
                  for i in by_name.get("scheduling.spawn", ())
                  if tracer.values.get(i)}
    productive.discard(-1)
    schedule_calls = calls("scheduling.schedule")
    spawns = values("scheduling.spawn")
    in_cells = math.fsum(spans[i][2] - spans[i][1]
                         for i in by_name.get("cluster.run", ())
                         if ancestor(i, "api.cell") >= 0)
    counts: dict[str, int] = {}
    for unit in traced:
        for record in unit.records:
            for kind, n in record["counts"].items():
                counts[kind] = counts.get(kind, 0) + n
    telemetry: dict[str, float] = {}
    for unit in traced:
        for key, value in unit.telemetry.items():
            telemetry[key] = telemetry.get(key, 0.0) + value

    metrics = {
        "import.repro_s": (total("import.repro"), "s"),
        "core.collect_training_data_s": (total("core.collect_training_data"),
                                         "s"),
        "core.moe_fit_s": (total("core.moe_fit"), "s"),
        "ml.ann_fits": (calls("ml.ann_fit"), "count"),
        "ml.ann_fit_s": (total("ml.ann_fit"), "s"),
        "scenarios.make_mixes_s": (total("scenarios.make_mixes"), "s"),
        "scenarios.build_cluster_s": (total("scenarios.build_cluster"), "s"),
        "api.cell_overhead_s": (total("api.cell") - in_cells, "s"),
        "api.fold_s": (total("api.fold"), "s"),
        "metrics.evaluate_s": (total("metrics.evaluate"), "s"),
        "cluster.run_s": (total("cluster.run"), "s"),
        "cluster.arrivals_s": (total("cluster.arrivals"), "s"),
        "cluster.arrivals_calls": (calls("cluster.arrivals"), "count"),
        "cluster.faults_s": (total("cluster.faults"), "s"),
        "cluster.faults_calls": (calls("cluster.faults"), "count"),
        "cluster.advance_self_s": (math.fsum(
            own[i] for i in by_name.get("cluster.advance", ())), "s"),
    }
    for kind in EVENT_KINDS:
        metrics[f"cluster.events.{kind}"] = (counts.get(kind, 0), "count")
    metrics.update({
        "scheduling.schedule_s": (total("scheduling.schedule"), "s"),
        "scheduling.schedule_calls": (schedule_calls, "count"),
        "scheduling.schedule_ms.p50": (
            quantile(ms("scheduling.schedule"), 0.5), "ms"),
        "scheduling.schedule_ms.p99": (
            quantile(ms("scheduling.schedule"), 0.99), "ms"),
        "scheduling.waiting_apps_s": (total("scheduling.waiting_apps"), "s"),
        "scheduling.waiting_rows": (values("scheduling.waiting_apps"),
                                    "count"),
        "scheduling.node_features_s": (total("scheduling.node_features"),
                                       "s"),
        "scheduling.node_features_calls": (
            calls("scheduling.node_features"), "count"),
        "scheduling.footprint_batch_s": (
            total("scheduling.footprint_batch"), "s"),
        "scheduling.footprint_batch_rows": (
            values("scheduling.footprint_batch"), "count"),
        "scheduling.prepare_s": (total("scheduling.prepare"), "s"),
        "scheduling.prepare_calls": (calls("scheduling.prepare"), "count"),
        "scheduling.spawn_s": (total("scheduling.spawn"), "s"),
        "scheduling.spawns": (spawns, "count"),
        "scheduling.productive_epoch_ratio": (
            len(productive) / schedule_calls if schedule_calls else 0.0,
            "ratio"),
        "scheduling.node_features_per_spawn": (
            calls("scheduling.node_features") / spawns if spawns else 0.0,
            "ratio"),
        "spark.app_remaining_gb_calls": (
            tracer.counts["spark.app_remaining_gb_calls"], "count"),
        "spark.executor_remaining_gb_calls": (
            tracer.counts["spark.executor_remaining_gb_calls"], "count"),
        "env.reset_s": (total("env.reset"), "s"),
        "env.step_s": (total("env.step"), "s"),
        "env.step_ms.p50": (quantile(ms("env.step"), 0.5), "ms"),
        "env.step_ms.p99": (quantile(ms("env.step"), 0.99), "ms"),
        "env.steps": (calls("env.step"), "count"),
        "train.collect_s": (telemetry.get("train.collect_s", 0.0), "s"),
        "train.update_s": (telemetry.get("train.update_s", 0.0), "s"),
        "train.eval_s": (telemetry.get("train.eval_s", 0.0), "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    })
    for layer, seconds in layer_self_times(spans).items():
        metrics[f"layer.{layer}.self_s"] = (seconds, "s")
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_grid", "fleet_churn", "queue_burst",
                                 "policy_train"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is the smoke-test size")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        import_s = import_program(tracer)
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.size)
        tracer.install()
        try:
            state, setup_s = timed_setup(workload, args.seed, import_s, tracer)
        finally:
            tracer.uninstall()
    else:
        with CalibratedClock() as clock:
            import_s = import_program(clock=clock.now)
            from workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.size)
            state, setup_s = timed_setup(workload, args.seed, import_s,
                                         clock=clock.now)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
    setups = [setup_s]
    if tracer is None:
        setups += [fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]

    from tracer import EventProbe

    probe = EventProbe()
    probe.install()
    try:
        if tracer is None:
            with CalibratedClock() as clock:
                units, run_s = run_units(workload, state, probe,
                                         seconds=args.seconds,
                                         clock=clock.now)
        else:
            units, run_s = run_units(workload, state, probe,
                                     seconds=args.seconds)
        traced, rerun = [], []
        if tracer is not None:
            workload.tracer = tracer
            tracer.install()
            try:
                traced, traced_wall = run_units(
                    workload, state, probe, count=len(units), tracer=tracer)
            finally:
                tracer.uninstall()
                workload.tracer = None
            # The first untraced pass also paid the program's one-off
            # warm-up, so the overhead ratio compares with a warm rerun.
            rerun, rerun_wall = run_units(workload, state, probe,
                                          count=len(units))
    finally:
        probe.uninstall()

    reference = load_references().get(
        reference_key(args.workload, args.size, args.seed))
    problems = check_units(units, reference)
    if traced:
        expected = reference or next((u.digest for u in units if u.digest),
                                     None)
        problems += [f"traced {p}" for p in check_units(traced, expected)]
        problems += [f"rerun {p}" for p in check_units(rerun, expected)]
    everything = units + traced + rerun
    attempted = workload.n_ops(state) * len(everything)
    failed = workload.n_ops(state) * sum(u.failed for u in everything)

    if tracer is not None:
        path = tracer.write_chrome_trace(
            TRACE_DIR / f"trace-{args.workload}-{args.seed}.json")
        metrics = per_layer(tracer, traced, traced_wall, rerun_wall)
        print(f"# chrome trace: {path.relative_to(ROOT)}")
    elif any(unit.op_s for unit in units):
        metrics = end_to_end(units, run_s, statistics.median(setups))
    else:
        metrics = {}  # every unit raised: nothing was measured

    good = [u for u in units if not u.failed]
    print(f"# workload {args.workload} size={args.size} seed={args.seed} "
          f"units={len(units)} time={run_s:.3f}s "
          f"host={sum(u.wall_s for u in units):.3f}s "
          f"setups={[round(s, 3) for s in setups]}")
    if good:
        sim = {k: v for k, v in good[0].sim.items()
               if isinstance(v, (int, float))}
        print(f"# sim {json.dumps(sim)} digest {good[0].digest}")
    if metrics and not args.trace:
        _, percentile = tail([op for u in units for op in u.op_s])
        print(f"# op_tail_s is p{percentile:.1f} of "
              f"{sum(len(u.op_s) for u in units)} ops")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"# FAIL {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
