"""Wall-clock benchmark of the Figure 6 scenario grid.

Times the same scenario × scheme × mix grid under two configurations:

* **baseline** — fixed-step engine, one in-process worker (the seed
  repository's only execution mode); and
* **candidate** — event-driven engine with a configurable number of worker
  processes (the fast path introduced together with this script).

Both configurations produce identical :class:`ScenarioResult` rows (the
event engine replays the fixed-step trajectory exactly and the worker
fan-out preserves cell order), which the script verifies before reporting
the speedup.  Results are written as JSON: the CI artifact
(``BENCH_pr.json``) and, at smoke settings, the committed reference
``BENCH_baseline.json`` that ``compare_baseline.py`` gates against.

Usage::

    python benchmarks/fig6_grid.py --output BENCH_pr.json
    python benchmarks/fig6_grid.py --quick --workers 2 --n-mixes 4 --output BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.api import ExperimentPlan, Session

FULL_SCENARIOS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10")
QUICK_SCENARIOS = ("L1", "L5", "L8")
SCHEMES = ("pairwise", "quasar", "ours", "oracle")


def time_grid(session: Session, scenarios, n_mixes: int, engine: str,
              workers: int) -> tuple[float, list]:
    """Run the grid once and return (wall-clock seconds, results)."""
    plan = ExperimentPlan(schemes=SCHEMES, scenarios=scenarios,
                          n_mixes=n_mixes, seed=11, engine=engine,
                          workers=workers)
    start = time.perf_counter()
    results = session.run(plan)
    return time.perf_counter() - start, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke settings: 3 scenarios, 1 mix each")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes for the candidate run "
                             "(default: 2)")
    parser.add_argument("--n-mixes", type=int, default=None, metavar="K",
                        help="mixes per scenario (default: 1 quick, 2 full)")
    parser.add_argument("--output", default="BENCH_pr.json",
                        help="where to write the JSON report")
    parser.add_argument("--seed-baseline-s", type=float, default=None,
                        help="externally measured wall-clock of the same "
                             "grid on the seed revision, recorded verbatim")
    args = parser.parse_args(argv)

    scenarios = QUICK_SCENARIOS if args.quick else FULL_SCENARIOS
    n_mixes = args.n_mixes if args.n_mixes is not None else (1 if args.quick else 2)

    print("training predictor suite once "
          "(shared across both configurations)...")
    session = Session(use_cache=False)
    # Training is lazy; materialise it now so neither timed grid pays for it.
    session.ensure_trained(SCHEMES)

    print(f"baseline: engine=fixed workers=1 "
          f"({len(scenarios)} scenarios x {len(SCHEMES)} schemes x "
          f"{n_mixes} mixes)")
    baseline_s, baseline_results = time_grid(session, scenarios, n_mixes,
                                             engine="fixed", workers=1)
    print(f"  {baseline_s:.2f}s")

    print(f"candidate: engine=event workers={args.workers}")
    candidate_s, candidate_results = time_grid(session, scenarios, n_mixes,
                                               engine="event",
                                               workers=args.workers)
    print(f"  {candidate_s:.2f}s")
    session.close()

    identical = baseline_results == candidate_results
    speedup = baseline_s / candidate_s if candidate_s > 0 else float("inf")
    report = {
        "benchmark": "fig6_scenario_grid",
        "scenarios": list(scenarios),
        "schemes": list(SCHEMES),
        "n_mixes": n_mixes,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "baseline": {"engine": "fixed", "workers": 1,
                     "wall_clock_s": round(baseline_s, 3)},
        "candidate": {"engine": "event", "workers": args.workers,
                      "wall_clock_s": round(candidate_s, 3)},
        "speedup_vs_baseline": round(speedup, 2),
        "results_identical": identical,
    }
    if args.seed_baseline_s is not None:
        report["seed"] = {
            "engine": "fixed", "workers": 1,
            "wall_clock_s": round(args.seed_baseline_s, 3),
            "note": "same grid measured on the seed revision "
                    "(before engine + accounting optimisations)",
        }
        report["speedup_vs_seed"] = round(args.seed_baseline_s / candidate_s, 2)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"speedup (event+workers vs fixed single-process): {speedup:.2f}x")
    if "speedup_vs_seed" in report:
        print(f"speedup vs seed revision: {report['speedup_vs_seed']:.2f}x")
    print(f"results identical across configurations: {identical}")
    print(f"wrote {args.output}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
