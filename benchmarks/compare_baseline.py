"""Gate a quick-benchmark report against the committed baseline.

CI runs ``benchmarks/fig6_grid.py --quick`` into ``BENCH_pr.json`` and then
calls this script to compare it with the committed ``BENCH_baseline.json``:

* the candidate configuration's wall clock may regress at most
  ``--max-regression`` (relative, default 15 %) against the baseline's;
* correctness flags recorded in the PR report (``results_identical``,
  ``engines_agree``) must hold — a fast but wrong engine is not a win.

Raw wall clocks are not comparable across runner hardware, so the gate
compares *normalized* wall clocks: each report measures the candidate
(event engine + workers) and the reference (fixed engine, one process)
on the same machine, and the gated quantity is their ratio.  A slower
runner scales both timings; a regression in the optimised path does not.
The threshold can be overridden via ``--max-regression`` or the
``REPRO_BENCH_MAX_REGRESSION`` environment variable.  Refresh the
baseline (same command CI uses) whenever a PR legitimately changes the
performance envelope::

    python benchmarks/fig6_grid.py --quick --workers 2 --n-mixes 4 --output BENCH_baseline.json
    python benchmarks/scenario_smoke.py --merge-into BENCH_baseline.json

The kernel-throughput (``--throughput``, from
``benchmarks/throughput.py``) and rollout-throughput (``--rollout``,
from ``benchmarks/rollout_throughput.py``) reports are gated by one
rule, per tier or case present in both reports: the trajectory (events
and makespan, or steps and STP — deterministic per scenario/seed) equals
the committed baseline's exactly, and the rate times ``calibration_s``,
the mean reference-slice time sampled during the same run, may regress
at most ``--max-regression`` for the kernel tiers and
:data:`ROLLOUT_MAX_REGRESSION` (30 %; the quick rollout cases time
tens-of-milliseconds episodes) for the rollout cases.  Runner hardware
cancels out of that product.

Usage::

    python benchmarks/compare_baseline.py BENCH_pr.json BENCH_baseline.json
    python benchmarks/compare_baseline.py BENCH_pr.json BENCH_baseline.json \
        --throughput BENCH_throughput_pr.json \
        --throughput-baseline BENCH_throughput.json \
        --rollout BENCH_rollout_pr.json --rollout-baseline BENCH_rollout.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read benchmark report {path!r}: {error}",
              file=sys.stderr)
        raise SystemExit(2)


#: Steps-per-reference-slice budget of the rollout gate.
ROLLOUT_MAX_REGRESSION = 0.30


def gate_per_slice(label: str, unit: str, entry: dict, reference: dict,
                   max_regression: float, failures: list[str]) -> None:
    """Gate ``<unit>_per_s * calibration_s`` against the reference's.

    The product counts ``unit`` per reference slice timed during the
    same run, a figure runner hardware cancels out of; it may fall at
    most ``max_regression`` below the reference's.
    """
    rate = f"{unit}_per_s"
    try:
        pr_norm = float(entry[rate]) * float(entry["calibration_s"])
        base_norm = float(reference[rate]) * float(reference["calibration_s"])
        regression = pr_norm / base_norm - 1.0
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        failures.append(f"{label}: a report lacks {rate}/calibration_s")
        return
    print(f"{label}: {pr_norm:,.2f} {unit} per reference slice "
          f"(baseline {base_norm:,.2f}, {regression:+.1%}; "
          f"budget -{max_regression:.0%})")
    if pr_norm < base_norm * (1.0 - max_regression):
        failures.append(
            f"{label}: normalized {unit}/sec regression {regression:+.1%} "
            f"exceeds the {max_regression:.0%} budget")


def check_throughput(pr: dict, base: dict, max_regression: float,
                     failures: list[str]) -> None:
    """Gate the kernel-throughput report against its committed baseline.

    One rule for every tier present in both reports: the trajectory
    (``events`` and ``makespan_min``) must equal the baseline's, and
    events per reference slice (:func:`gate_per_slice`) may fall at
    most ``max_regression`` below the baseline's.
    """
    for tier, entry in sorted(pr.get("tiers", {}).items()):
        reference = base.get("tiers", {}).get(tier)
        if reference is None:
            print(f"throughput tier {tier!r}: no committed reference; "
                  f"skipping the gate")
            continue
        if (entry.get("events") != reference.get("events")
                or entry.get("makespan_min") != reference.get("makespan_min")):
            failures.append(
                f"throughput tier {tier!r}: trajectory diverges from the "
                f"committed baseline (events {entry.get('events')} vs "
                f"{reference.get('events')}, makespan "
                f"{entry.get('makespan_min')} vs "
                f"{reference.get('makespan_min')}) — refresh the baseline "
                f"only if the behaviour change is intended")
            continue
        gate_per_slice(f"throughput tier {tier!r}", "events", entry,
                       reference, max_regression, failures)


def check_rollout(pr: dict, base: dict, failures: list[str]) -> None:
    """Gate the rollout-throughput report against its committed baseline.

    Per case present in both reports (``benchmarks/rollout_throughput.py``
    output) the trajectory (``steps`` and ``stp``) must equal the
    baseline's — episodes are deterministic per scenario/seed, so any
    drift is a behaviour change, not noise — and steps per reference
    slice (:func:`gate_per_slice`) may fall at most
    :data:`ROLLOUT_MAX_REGRESSION` below the baseline's.  The report's
    own ``committed_checkpoint`` pin (churn20 learned STP vs
    BENCH_learned.json) must also hold when present.
    """
    pin = pr.get("committed_checkpoint")
    if pin is not None and pin.get("matches") is not True:
        failures.append(
            f"rollout: churn20 learned STP {pin.get('measured_stp')} no "
            f"longer matches the committed checkpoint eval "
            f"{pin.get('committed_stp')} ({pin.get('source')})")
    for case, entry in sorted(pr.get("cases", {}).items()):
        reference = base.get("cases", {}).get(case)
        if reference is None:
            print(f"rollout case {case!r}: no committed reference; "
                  f"skipping the gate")
            continue
        if (entry.get("steps") != reference.get("steps")
                or entry.get("stp") != reference.get("stp")):
            failures.append(
                f"rollout case {case!r}: trajectory diverges from the "
                f"committed baseline (steps {entry.get('steps')} vs "
                f"{reference.get('steps')}, STP {entry.get('stp')} vs "
                f"{reference.get('stp')}) — refresh the baseline only if "
                f"the behaviour change is intended")
            continue
        gate_per_slice(f"rollout case {case!r}", "steps", entry, reference,
                       ROLLOUT_MAX_REGRESSION, failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", help="freshly produced report "
                                          "(BENCH_pr.json)")
    parser.add_argument("baseline", help="committed reference "
                                         "(BENCH_baseline.json)")
    parser.add_argument("--throughput", metavar="PATH",
                        help="freshly produced kernel-throughput report "
                             "(benchmarks/throughput.py output)")
    parser.add_argument("--throughput-baseline", metavar="PATH",
                        default="BENCH_throughput.json",
                        help="committed kernel-throughput reference "
                             "(default: BENCH_throughput.json)")
    parser.add_argument("--rollout", metavar="PATH",
                        help="freshly produced rollout-throughput report "
                             "(benchmarks/rollout_throughput.py output)")
    parser.add_argument("--rollout-baseline", metavar="PATH",
                        default="BENCH_rollout.json",
                        help="committed rollout-throughput reference "
                             "(default: BENCH_rollout.json)")
    parser.add_argument(
        "--max-regression", type=float,
        default=float(os.environ.get("REPRO_BENCH_MAX_REGRESSION", "0.15")),
        metavar="FRACTION",
        help="maximum allowed relative wall-clock regression of the "
             "candidate configuration (default: 0.15, i.e. 15%%)")
    args = parser.parse_args(argv)
    if args.max_regression < 0:
        parser.error("--max-regression cannot be negative")

    pr = _load(args.candidate)
    base = _load(args.baseline)

    failures: list[str] = []

    # Correctness flags of the fresh report are non-negotiable.
    if pr.get("results_identical") is not True:
        failures.append("fig6 grid: engine/worker configurations disagree "
                        "(results_identical is not true)")
    smoke = pr.get("scenario_smoke")
    if smoke is not None and smoke.get("engines_agree") is not True:
        failures.append("scenario smoke: fixed and event engines disagree")

    # Wall-clock gate on the candidate (event engine + workers) config,
    # normalized by the same-machine fixed-engine reference timing.
    try:
        pr_norm = (float(pr["candidate"]["wall_clock_s"])
                   / float(pr["baseline"]["wall_clock_s"]))
        base_norm = (float(base["candidate"]["wall_clock_s"])
                     / float(base["baseline"]["wall_clock_s"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        print("reports lack candidate/baseline wall_clock_s; cannot compare",
              file=sys.stderr)
        return 2
    regression = pr_norm / base_norm - 1.0
    print(f"candidate wall clock (normalized by the fixed-engine "
          f"reference on the same machine): {pr_norm:.3f} "
          f"(baseline {base_norm:.3f}, {regression:+.1%}; "
          f"budget +{args.max_regression:.0%})")
    print(f"  raw: candidate {pr['candidate']['wall_clock_s']}s vs "
          f"reference {pr['baseline']['wall_clock_s']}s on this runner")
    if pr_norm > base_norm * (1.0 + args.max_regression):
        failures.append(
            f"normalized wall-clock regression {regression:+.1%} exceeds "
            f"the {args.max_regression:.0%} budget")

    if args.throughput is not None:
        check_throughput(_load(args.throughput),
                         _load(args.throughput_baseline),
                         args.max_regression, failures)

    if args.rollout is not None:
        check_rollout(_load(args.rollout), _load(args.rollout_baseline),
                      failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
