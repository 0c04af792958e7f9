#!/usr/bin/env python
"""Golden-trace harness: compact, committed fingerprints of whole runs.

A *trace* is a small JSON document fingerprinting one simulated schedule:
the retained event log's per-kind counts, the headline metrics, one
compact record per job, and the fault telemetry.  Traces for the seed
scenario L1, the mid-size batch L5 and the dynamic-cluster scenario
churn20 (× the prediction-free ``pairwise``/``oracle`` schemes) are
committed under ``tests/golden/`` and diffed against fresh runs by
``test_golden_traces.py`` — so a refactor of the engine, the bus, or the
fault subsystem gets bit-for-bit evidence instead of ad-hoc worktree
comparisons.

The *corpus* (``--corpus``) is the wide companion: one committed file,
``corpus.json``, holding a digest of every registered scheme on
L1/L5/L10/churn20/regime_shift/poisson_hetero_demo under both engines,
plus ``mega_ci_1k``/pairwise on the event engine.  Each entry pins the
sha256 of the full ``(kind, time, app, node_id)`` event stream, every
application's finish time and processed volume, and the
``evaluate_schedule`` metrics — so any ulp of drift in a placement
anywhere in the grid shows up as a failed digest.

Regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python tests/golden/regen.py --regen
    PYTHONPATH=src python tests/golden/regen.py --corpus --regen

Without ``--regen`` the script reports, per case, whether the current
code still matches the committed trace (or corpus entry).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: The committed cases: (scenario, scheme), all artefact-free schemes so
#: neither the regen script nor the test ever trains a model.
CASES: tuple[tuple[str, str], ...] = tuple(
    (scenario, scheme)
    for scenario in ("L1", "L5", "churn20")
    for scheme in ("pairwise", "oracle")
)

#: Every committed trace pins the same draw: the CLI's default seed on
#: the default (event-driven) engine.
SEED = 11
ENGINE = "event"


#: The corpus grid: every registered scheme on these scenarios under both
#: engines, plus the fleet-scale CI scenario on the event engine.
CORPUS_PATH = GOLDEN_DIR / "corpus.json"
CORPUS_SCENARIOS = ("L1", "L5", "L10", "churn20", "regime_shift",
                    "poisson_hetero_demo")
CORPUS_ENGINES = ("event", "fixed")
CORPUS_EXTRA = (("mega_ci_1k", "pairwise", "event"),)
CORPUS_SEED = 7


def corpus_cases() -> tuple[tuple[str, str, str], ...]:
    """(scenario, scheme, engine) of every corpus entry."""
    from repro.scheduling.registry import scheme_names

    grid = tuple((scenario, scheme, engine)
                 for scenario in CORPUS_SCENARIOS
                 for scheme in sorted(scheme_names())
                 for engine in CORPUS_ENGINES)
    return grid + CORPUS_EXTRA


def corpus_key(scenario: str, scheme: str, engine: str) -> str:
    return f"{scenario}/{scheme}/{engine}"


def corpus_artefacts():
    """The trained artefacts the learned schemes need (seeded)."""
    from types import SimpleNamespace

    from repro.core.moe import MixtureOfExperts
    from repro.core.training import collect_training_data

    dataset = collect_training_data(seed=0)
    return SimpleNamespace(dataset=dataset,
                           moe=MixtureOfExperts.from_dataset(dataset))


def simulate(scenario: str, scheme: str, seed: int, engine: str,
             artefacts=None):
    """One seeded run: (spec, jobs, allocation policy, result, metrics)."""
    from repro.cluster.simulator import ClusterSimulator
    from repro.metrics.throughput import evaluate_schedule
    from repro.scenarios import load_scenario
    from repro.scheduling.registry import build_scheduler
    from repro.spark.driver import DynamicAllocationPolicy

    spec = load_scenario(scenario)
    cluster = spec.build_cluster()
    policy = DynamicAllocationPolicy(max_executors=len(cluster))
    scheduler = build_scheduler(scheme, artefacts, allocation_policy=policy)
    simulator = ClusterSimulator(cluster, scheduler, seed=seed,
                                 step_mode=engine,
                                 max_time_min=spec.max_time_min,
                                 faults=spec.faults)
    jobs = spec.make_mixes(n_mixes=1, seed=seed)[0]
    result = simulator.run(jobs)
    return spec, jobs, policy, result, evaluate_schedule(result, jobs, policy)


def make_corpus_entry(scenario: str, scheme: str, engine: str, artefacts,
                      seed: int = CORPUS_SEED) -> dict:
    """Digest one (scenario, scheme, engine) run for the corpus.

    Normalised through a JSON round-trip like :func:`make_trace`.
    """
    _, _, _, result, evaluation = simulate(scenario, scheme, seed, engine,
                                           artefacts)
    stream = json.dumps([[e.kind.value, e.time, e.app, e.node_id]
                         for e in result.events.events],
                        separators=(",", ":"))
    entry = {
        "n_events": len(result.events.events),
        "events_sha256": hashlib.sha256(stream.encode()).hexdigest(),
        "apps": {name: [app.finish_time, app.processed_gb]
                 for name, app in result.apps.items()},
        "metrics": dataclasses.asdict(evaluation),
    }
    return json.loads(json.dumps(entry))


def make_corpus(progress=None) -> dict:
    """The whole corpus document, one run per :func:`corpus_cases` entry."""
    artefacts = corpus_artefacts()
    entries = {}
    for case in corpus_cases():
        if progress is not None:
            progress(corpus_key(*case))
        entries[corpus_key(*case)] = make_corpus_entry(*case, artefacts)
    return {"seed": CORPUS_SEED, "entries": entries}


def trace_path(scenario: str, scheme: str) -> Path:
    """Where the committed trace of one case lives."""
    return GOLDEN_DIR / f"{scenario}_{scheme}.json"


def make_trace(scenario: str, scheme: str, seed: int = SEED,
               engine: str = ENGINE) -> dict:
    """Fingerprint one (scenario, scheme, seed, engine) run.

    The dict is normalised through a JSON round-trip, so comparing it to
    a committed document compares exactly what the file stores (Python
    float repr round-trips bit-for-bit).
    """
    from repro.metrics.throughput import matched_apps

    spec, jobs, policy, result, evaluation = simulate(scenario, scheme, seed,
                                                      engine)

    event_counts: dict[str, int] = {}
    for event in result.events.events:
        kind = event.kind.value
        event_counts[kind] = event_counts.get(kind, 0) + 1

    trace = {
        "scenario": spec.name,
        "scheme": scheme,
        "seed": seed,
        "engine": engine,
        "n_jobs": len(jobs),
        "event_counts": dict(sorted(event_counts.items())),
        "metrics": {
            "stp": evaluation.stp,
            "antt": evaluation.antt,
            "antt_reduction_percent": evaluation.antt_reduction_percent,
            "makespan_min": evaluation.makespan_min,
            "mean_utilization_percent": evaluation.mean_utilization_percent,
            "all_finished": evaluation.all_finished,
        },
        "jobs": [
            {
                "name": app.name,
                "submit_time_min": app.submit_time,
                "finish_time_min": app.finish_time,
                "turnaround_min": app.turnaround_min(),
                "slowdown": app.turnaround_min() / reference,
            }
            for _, app, reference in matched_apps(result, list(jobs), policy)
        ],
    }
    if result.fault_summary is not None:
        trace["fault_summary"] = result.fault_summary.to_dict()
    return json.loads(json.dumps(trace))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true",
                        help="overwrite the committed traces with the "
                             "current code's output")
    parser.add_argument("--corpus", action="store_true",
                        help="work on the wide corpus file instead of "
                             "the per-case traces")
    args = parser.parse_args(argv)
    if args.corpus:
        return corpus_main(args.regen)
    stale = 0
    for scenario, scheme in CASES:
        path = trace_path(scenario, scheme)
        trace = make_trace(scenario, scheme)
        if args.regen:
            path.write_text(json.dumps(trace, indent=2) + "\n")
            print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")
            continue
        if not path.is_file():
            print(f"MISSING {path.name} (run with --regen)")
            stale += 1
        elif json.loads(path.read_text()) != trace:
            print(f"STALE   {path.name} (current run differs; rerun with "
                  "--regen if intentional)")
            stale += 1
        else:
            print(f"ok      {path.name}")
    return 1 if stale else 0


def corpus_main(regen: bool) -> int:
    corpus = make_corpus(progress=lambda key: print(key, flush=True))
    if regen:
        CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"wrote {CORPUS_PATH.relative_to(GOLDEN_DIR.parent.parent)}")
        return 0
    committed = (json.loads(CORPUS_PATH.read_text())
                 if CORPUS_PATH.is_file() else {"entries": {}})
    stale = 0
    for key, entry in corpus["entries"].items():
        if committed["entries"].get(key) != entry:
            print(f"STALE   {key}")
            stale += 1
    print(f"{len(corpus['entries']) - stale}/{len(corpus['entries'])} "
          "corpus entries match")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
