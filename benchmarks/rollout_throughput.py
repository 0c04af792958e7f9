"""Episode-rollout throughput: environment steps per reference slice.

Times whole :func:`repro.env.rollout` episodes of the learned policy and
of ``pairwise`` through :class:`~repro.env.PolicyAdapter` on ``churn20``
and ``mega_ci_1k``, each in the observation mode ``rollout`` picks for
the policy, with utilization recording off as in training collection.
All of a case's repeats run under one ``perfbench/hostclock.py``
:class:`CalibratedClock`, which times a fixed reference slice every
20 ms; a churn20 episode takes 15-60 ms, so those cases repeat it enough
to span ~25 slices or more.  ``calibration_s`` is the mean slice time
and ``steps_per_s`` excludes the slices' own time;
``benchmarks/compare_baseline.py --rollout`` gates their product (steps
per reference slice) and pins ``steps`` and ``stp`` exactly.  Each case
runs :data:`RUNS` times and reports the run where steps per reference
slice is highest, as ``benchmarks/throughput.py`` does for its tiers:
host noise only ever lowers that figure.  The
churn20 learned STP is also pinned to ``BENCH_learned.json``, and a
``prerefactor_baseline`` section in the output file is carried over.

Usage::

    python benchmarks/rollout_throughput.py --output BENCH_rollout.json
    python benchmarks/rollout_throughput.py --quick
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.hostclock import CalibratedClock  # noqa: E402
from repro.env.policies import PolicyAdapter  # noqa: E402
from repro.env.rollout import rollout  # noqa: E402
from repro.env.train.scheme import LearnedPolicy  # noqa: E402

SEED = 11
ENGINE = "event"

#: case name -> (scenario, policy kind, repeats under one clock).
#: ``--quick`` trims the case set to the churn20 cases, not the repeats.
CASES = {
    "churn20_learned": ("churn20", "learned", 20),
    "churn20_pairwise": ("churn20", "pairwise", 40),
    "mega_ci_1k_learned": ("mega_ci_1k", "learned", 1),
    "mega_ci_1k_pairwise": ("mega_ci_1k", "pairwise", 3),
}
QUICK_CASES = ("churn20_learned", "churn20_pairwise")

#: Whole calibrated runs per case; the best one is reported.
RUNS = 3

#: Committed checkpoint eval pin: BENCH_learned.json stp_per_seed for
#: churn20 seed 11 (rounded to 4 decimals exactly as that report does).
LEARNED_BENCH = ROOT / "BENCH_learned.json"


def run_once(scenario: str, policy, repeats: int) -> dict:
    """``repeats`` episodes of one case under one calibrated clock."""
    start = time.perf_counter()
    with CalibratedClock() as clock:
        results = [rollout(scenario, policy, seed=SEED, engine=ENGINE,
                           record_utilization=False)
                   for _ in range(repeats)]
    host_s = time.perf_counter() - start
    wall = host_s - clock.slice_s
    steps = sum(result.steps for result in results)
    calibration_s = clock.slice_s / clock.slices
    return {"results": results, "slices": clock.slices, "wall": wall,
            "calibration_s": calibration_s,
            "normalised": steps / wall * calibration_s}


def run_case(name: str, scenario: str, kind: str, repeats: int) -> dict:
    """:data:`RUNS` calibrated runs of one case; reports the best one."""
    policy = LearnedPolicy() if kind == "learned" else PolicyAdapter(kind)
    runs = [run_once(scenario, policy, repeats) for _ in range(RUNS)]
    trajectories = {(result.steps, result.stp)
                    for run in runs for result in run["results"]}
    if len(trajectories) != 1:
        raise RuntimeError(f"case {name!r}: repeated seeded episodes "
                           f"diverge ({sorted(trajectories)})")
    (episode_steps, stp), = trajectories
    best = max(runs, key=lambda run: run["normalised"])
    report = {
        "scenario": scenario,
        "policy": kind,
        "repeats": repeats,
        "runs": RUNS,
        "slices": best["slices"],
        "steps": episode_steps,
        "stp": stp,
        "steps_per_s": round(episode_steps * repeats / best["wall"], 1),
        "calibration_s": round(best["calibration_s"], 7),
    }
    print(f"[{name}]   {report['steps_per_s']:,.0f} steps/s, "
          f"{report['steps_per_s'] * report['calibration_s']:.3f} steps "
          f"per reference slice over {best['slices']} slices (best of "
          f"{RUNS} runs)",
          flush=True, file=sys.stderr)
    return report


def committed_checkpoint_pin(report: dict) -> dict | None:
    """Pin the churn20 learned STP to the committed BENCH_learned eval."""
    case = report["cases"].get("churn20_learned")
    if case is None or not LEARNED_BENCH.exists():
        return None
    learned = json.loads(LEARNED_BENCH.read_text())
    rows = {row["scheme"]: row for row in learned.get("results", ())}
    try:
        committed = rows["learned"]["stp_per_seed"][
            learned["seeds"].index(SEED)]
    except (KeyError, ValueError, IndexError):
        return None
    return {
        "source": LEARNED_BENCH.name,
        "seed": SEED,
        "committed_stp": committed,
        "measured_stp": case["stp"],
        "matches": round(case["stp"], 4) == committed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="churn20 cases only (CI settings)")
    parser.add_argument("--output", default="BENCH_rollout.json",
                        metavar="PATH", help="report destination "
                                             "(default: BENCH_rollout.json)")
    args = parser.parse_args(argv)

    names = QUICK_CASES if args.quick else tuple(CASES)
    report: dict = {
        "benchmark": "rollout_throughput",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engine": ENGINE,
        "seed": SEED,
        "quick": args.quick,
        "cases": {name: run_case(name, *CASES[name]) for name in names},
    }
    pin = committed_checkpoint_pin(report)
    if pin is not None:
        report["committed_checkpoint"] = pin
    output = Path(args.output)
    if output.is_file():
        previous = json.loads(output.read_text())
        if "prerefactor_baseline" in previous:
            report["prerefactor_baseline"] = previous["prerefactor_baseline"]
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["cases"], indent=2))
    if pin is not None and pin["matches"] is not True:
        print(f"FAIL: churn20 learned STP {pin['measured_stp']} no longer "
              f"matches the committed checkpoint eval "
              f"{pin['committed_stp']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
