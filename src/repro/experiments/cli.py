"""Command-line entry point to regenerate the paper's tables and figures.

Usage (after ``pip install -e .``; ``python -m repro.experiments`` is an
alias for ``python -m repro.experiments.cli``)::

    python -m repro.experiments --list
    python -m repro.experiments fig6 fig17 table5
    python -m repro.experiments all --quick
    python -m repro.experiments fig6 --workers 4 --engine event

Beyond the paper artefacts, ``--scenario`` runs any declarative scenario
(:mod:`repro.scenarios`) — a registry name or a spec JSON path — across a
set of scheduling schemes::

    python -m repro.experiments --list-scenarios
    python -m repro.experiments --scenario poisson_hetero_demo
    python -m repro.experiments --scenario my_spec.json --schemes oracle,pairwise
    python -m repro.experiments --scenario L5 --n-mixes 5 --workers 4 \
        --stream --cells-json cells.json

Everything runs through the public API (:mod:`repro.api`): the CLI builds
an :class:`~repro.api.ExperimentPlan` — scheme and scenario names are
validated *eagerly*, with errors that list what is registered — and
executes it in one shared :class:`~repro.api.Session`, which owns the
trained-model disk cache under ``.cache/`` (``--no-cache`` opts out) and
the worker pool.  ``--stream`` prints each (scenario, scheme, mix) cell
as it completes; ``--cells-json`` exports the typed per-cell results
(including per-job records) as JSON.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import (
    ExperimentPlan,
    HorizonTruncationError,
    PlanError,
    Session,
    UnknownSchemeError,
    cells_to_json,
    fold_cells,
)
from repro.cluster.engine import STEP_MODES
from repro.cluster.faults import FAULT_PROFILES, load_fault_spec
from repro.experiments import (
    fig3_memory_curves,
    fig4_pca,
    fig6_overall,
    fig7_8_utilization,
    fig9_unified,
    fig10_online_search,
    fig11_12_overhead,
    fig13_cpu_load,
    fig14_interference,
    fig15_parsec,
    fig16_clusters,
    fig17_accuracy,
    fig18_curves,
    fig_meta,
    headline,
    table5_classifiers,
)
from repro.scenarios import load_scenario, scenario_names, SCENARIO_REGISTRY

__all__ = ["main", "EXPERIMENTS", "DEFAULT_SCENARIO_SCHEMES"]

#: Schemes compared by default in ``--scenario`` mode.
DEFAULT_SCENARIO_SCHEMES: tuple[str, ...] = ("isolated", "pairwise", "ours",
                                             "oracle")


def _run_fig6(session, options):
    scenarios = ("L1", "L3", "L5", "L8", "L10") if options.quick else tuple(
        f"L{i}" for i in range(1, 11))
    results = fig6_overall.run(scenarios=scenarios,
                               n_mixes=2 if options.quick else 5,
                               include_learned=options.with_learned,
                               engine=options.engine,
                               workers=options.workers, session=session)
    print(fig6_overall.format_table(results))
    print(headline.format_table(headline.summarize(results)))


def _run_fig9(session, options):
    scenarios = (("L3", "L5", "L8") if options.quick
                 else tuple(f"L{i}" for i in range(1, 11)))
    print(fig9_unified.format_table(
        fig9_unified.run(scenarios=scenarios,
                         n_mixes=1 if options.quick else 3,
                         include_learned=options.with_learned,
                         engine=options.engine,
                         workers=options.workers, session=session)))


def _run_fig10(session, options):
    scenarios = (("L3", "L5") if options.quick
                 else tuple(f"L{i}" for i in range(1, 11)))
    print(fig10_online_search.format_table(
        fig10_online_search.run(scenarios=scenarios,
                                n_mixes=1 if options.quick else 3,
                                engine=options.engine,
                                workers=options.workers, session=session)))


def _run_fig7(session, options):
    print(fig7_8_utilization.format_table(
        fig7_8_utilization.run(suite=session.suite, engine=options.engine)))


def _run_fig11_12(session, options):
    scenarios = (("L1", "L5") if options.quick
                 else ("L1", "L3", "L5", "L8", "L10"))
    per_scenario = fig11_12_overhead.run_per_scenario(scenarios=scenarios,
                                                      n_mixes=1,
                                                      suite=session.suite,
                                                      engine=options.engine)
    per_benchmark = fig11_12_overhead.run_per_benchmark()
    print(fig11_12_overhead.format_table(per_scenario, per_benchmark))


def _run_fig14(session, options):
    kwargs = ({"co_runners_per_target": 4} if options.quick
              else {"co_runners_per_target": 10})
    print(fig14_interference.format_table(
        fig14_interference.run(suite=session.suite, engine=options.engine,
                               **kwargs)))


def _run_fig_meta(session, options):
    scenarios = (("regime_shift",) if options.quick else fig_meta.SCENARIOS)
    print(fig_meta.format_table(
        fig_meta.run(scenarios=scenarios,
                     n_mixes=1 if options.quick else 3,
                     engine=options.engine,
                     workers=options.workers, session=session)))


#: Experiment name -> (description, runner taking (session, options)).
EXPERIMENTS = {
    "fig3": ("Figure 3 — Sort/PageRank memory curves",
             lambda session, options: print(fig3_memory_curves.format_table(
                 fig3_memory_curves.run(moe=session.suite.moe)))),
    "fig4": ("Figure 4 / Table 2 — PCA variance and feature importance",
             lambda session, options: print(fig4_pca.format_table(
                 fig4_pca.run(dataset=session.suite.dataset)))),
    "fig6": ("Figure 6 — STP/ANTT for Pairwise, Quasar, ours, Oracle", _run_fig6),
    "fig7": ("Figures 7/8 — Table 4 mix utilisation and turnaround", _run_fig7),
    "fig9": ("Figure 9 — unified single-model comparison", _run_fig9),
    "fig10": ("Figure 10 — online-search comparison", _run_fig10),
    "fig11": ("Figures 11/12 — profiling overhead", _run_fig11_12),
    "fig13": ("Figure 13 — CPU load distribution",
              lambda session, options: print(fig13_cpu_load.format_table(
                  fig13_cpu_load.run()))),
    "fig14": ("Figure 14 — Spark co-location interference", _run_fig14),
    "fig15": ("Figure 15 — PARSEC co-location interference",
              lambda session, options: print(fig15_parsec.format_table(
                  fig15_parsec.run()))),
    "fig16": ("Figure 16 — feature-space clusters",
              lambda session, options: print(fig16_clusters.format_table(
                  fig16_clusters.run(moe=session.suite.moe)))),
    "fig17": ("Figure 17 — prediction accuracy",
              lambda session, options: print(fig17_accuracy.format_table(
                  fig17_accuracy.run(moe=session.suite.moe)))),
    "fig18": ("Figure 18 — per-benchmark memory curves",
              lambda session, options: print(fig18_curves.format_table(
                  fig18_curves.run(moe=session.suite.moe)))),
    "fig_meta": ("Meta-scheduler vs fixed schemes on adaptive scenarios",
                 _run_fig_meta),
    "table5": ("Table 5 — classifier comparison",
               lambda session, options: print(table5_classifiers.format_table(
                   table5_classifiers.run(dataset=session.suite.dataset)))),
}


def format_scenario_table(spec, results) -> str:
    """Render the per-scheme metrics of one scenario run.

    Alongside the headline aggregates, the across-mix dispersion columns
    (STP standard deviation, ANTT-reduction range) show how stable each
    scheme is over the drawn mixes.  When the scenario declares dynamic
    cluster events, a second block reports the fault telemetry per
    scheme: cluster availability, jobs disrupted, work lost and the
    estimated re-run time.  When an adaptive scheme hot-swapped its
    inner policy mid-run, a third block reports the switch telemetry:
    mean switches per mix and the inner schemes visited.
    """
    lines = [f"scenario {spec.name}: topology={spec.topology} "
             f"arrival={spec.arrival.kind}"
             + (" faults=on" if spec.faults is not None else "")]
    if spec.description:
        lines.append(f"  {spec.description}")
    lines.append(f"{'scheme':18s} {'STP':>7s} {'±std':>6s} "
                 f"{'ANTT red.%':>11s} {'[min..max]':>17s} "
                 f"{'makespan(min)':>14s} {'util.%':>7s}")
    for row in results:
        antt_range = (f"[{row.antt_reduction_min:.1f}.."
                      f"{row.antt_reduction_max:.1f}]")
        lines.append(f"{row.scheme:18s} {row.stp_geomean:7.2f} "
                     f"{row.stp_std:6.2f} "
                     f"{row.antt_reduction_mean:11.1f} "
                     f"{antt_range:>17s} "
                     f"{row.makespan_mean_min:14.1f} "
                     f"{row.utilization_mean_percent:7.1f}")
    if any(row.faulty for row in results):
        lines.append("fault telemetry (means across mixes):")
        lines.append(f"{'scheme':18s} {'avail.%':>8s} {'failures':>9s} "
                     f"{'preempt.':>9s} {'disrupted':>10s} "
                     f"{'lost(GB)':>9s} {'rerun(min)':>11s}")
        for row in results:
            if not row.faulty:
                continue
            lines.append(f"{row.scheme:18s} "
                         f"{row.availability_mean_percent:8.2f} "
                         f"{row.node_failures_mean:9.1f} "
                         f"{row.preemptions_mean:9.1f} "
                         f"{row.jobs_disrupted_mean:10.1f} "
                         f"{row.work_lost_gb_mean:9.1f} "
                         f"{row.rerun_time_mean_min:11.1f}")
    if any(row.adaptive for row in results):
        lines.append("scheme-switch telemetry (adaptive schemes):")
        lines.append(f"{'scheme':18s} {'switches':>9s}  inner schemes visited")
        for row in results:
            if not row.adaptive:
                continue
            lines.append(f"{row.scheme:18s} "
                         f"{row.switches_mean:9.1f}  "
                         f"{' -> '.join(row.schemes_used)}")
    return "\n".join(lines)


def _resolve_scenario_spec(args):
    """Resolve ``--scenario`` (+ optional ``--faults`` overlay) to a spec.

    Returns the spec, or ``None`` after printing the error — shared by
    scenario mode and ``env-rollout``.
    """
    try:
        # TypeError covers wrong-typed values in a user's spec JSON
        # (e.g. a string where a number belongs).
        spec = load_scenario(args.scenario)
    except (KeyError, ValueError, TypeError, OSError) as error:
        print(f"cannot load scenario {args.scenario!r}: {error}",
              file=sys.stderr)
        return None
    if args.faults is not None and args.faults != "spec":
        # Overlay (or strip, with "none") a fault profile onto the spec;
        # a bare --faults keeps the scenario's own declared dynamics.
        import dataclasses

        try:
            fault_spec = load_fault_spec(args.faults)
        except (KeyError, ValueError, TypeError, OSError) as error:
            print(f"cannot load fault spec {args.faults!r}: {error}",
                  file=sys.stderr)
            return None
        spec = dataclasses.replace(spec, faults=fault_spec)
    return spec


def _run_env_rollout(args) -> int:
    """Run one scheduling-environment episode (``env-rollout`` mode)."""
    from repro.scheduling.registry import UnknownSchemeError as UnknownPolicy

    spec = _resolve_scenario_spec(args)
    if spec is None:
        return 2
    with Session(use_cache=not args.no_cache) as session:
        try:
            episode = session.rollout(spec, policy=args.policy,
                                      seed=args.seed, engine=args.engine,
                                      reward=args.reward)
        except UnknownPolicy as error:
            print(f"cannot resolve policy {args.policy!r}: {error}",
                  file=sys.stderr)
            return 2
        except HorizonTruncationError as error:
            print(str(error), file=sys.stderr)
            return 1
    print(f"episode {episode.scenario} policy={episode.policy} "
          f"seed={episode.seed} engine={episode.engine}: "
          f"steps={episode.steps} STP={episode.stp:.2f} "
          f"ANTT={episode.antt:.2f} makespan={episode.makespan_min:.1f}min "
          f"total_reward[{episode.reward_kind}]={episode.total_reward:.3f}")
    if episode.faults is not None:
        print(f"  faults: {episode.faults.node_failures} node failure(s), "
              f"{episode.faults.preemptions} preemption(s), "
              f"{episode.faults.jobs_disrupted} job(s) disrupted, "
              f"{episode.faults.work_lost_gb:.1f}GB lost, "
              f"availability {episode.faults.availability_percent:.2f}%")
    if args.episode_json:
        episode.to_json(path=args.episode_json)
        print(f"wrote episode result to {args.episode_json}")
    else:
        print(episode.to_json(), end="")
    return 0


def _run_env_train(args) -> int:
    """Train a learned scheduler in the gym (``env-train`` mode)."""
    from repro.env.train import ReinforceLearner, TrainConfig

    spec = _resolve_scenario_spec(args)
    if spec is None:
        return 2
    if not args.checkpoint:
        print("env-train requires --checkpoint PATH.npz (where the best "
              "iterate is saved)", file=sys.stderr)
        return 2
    try:
        config = TrainConfig(iters=args.iters,
                             episodes_per_iter=args.episodes_per_iter,
                             seed=args.seed, eval_seed=args.eval_seed,
                             reward=args.reward,
                             engine=args.engine,
                             workers=args.workers,
                             update_mode=args.update_mode)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    learner = ReinforceLearner(spec, config)

    def progress(stats):
        line = (f"iter {stats.iteration:4d}: "
                f"return={stats.mean_return:8.3f} "
                f"[{stats.min_return:.3f}..{stats.max_return:.3f}] "
                f"entropy={stats.mean_entropy:.3f} "
                f"|grad|={stats.grad_norm:.4f}")
        if stats.eval_stp is not None:
            line += f" eval_STP={stats.eval_stp:.3f}"
        line += (f" [collect {stats.collect_s:.1f}s"
                 f" update {stats.update_s:.1f}s")
        line += (f" eval {stats.eval_s:.1f}s]" if stats.eval_stp is not None
                 else "]")
        print(line, flush=True)

    result = learner.train(checkpoint=args.checkpoint, progress=progress)
    print(f"trained {result.scenario} for {len(result.curve)} iteration(s): "
          f"best eval STP {result.best_eval_stp:.3f} "
          f"(iteration {result.best_iteration}), "
          f"final eval STP {result.final_eval_stp:.3f}")
    print(f"checkpoint (best iterate) written to {result.checkpoint}")
    if args.train_json:
        result.to_json(path=args.train_json)
        print(f"wrote training curve to {args.train_json}")
    return 0


def _run_scenario_mode(args) -> int:
    """Run one declarative scenario across scheduling schemes."""
    spec = _resolve_scenario_spec(args)
    if spec is None:
        return 2
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    try:
        plan = ExperimentPlan(schemes=schemes, scenarios=(spec,),
                              n_mixes=args.n_mixes, seed=args.seed,
                              engine=args.engine, workers=args.workers)
    except (PlanError, UnknownSchemeError) as error:
        print(str(error), file=sys.stderr)
        return 2
    cells = []
    try:
        with Session(use_cache=not args.no_cache) as session:
            for cell in session.stream(plan):
                cells.append(cell)
                if args.stream:
                    print(f"cell {cell.scenario}/{cell.scheme} "
                          f"mix={cell.mix_index}: STP={cell.stp:.2f} "
                          f"makespan={cell.makespan_min:.1f}min "
                          f"({len(cell.jobs)} jobs)")
    except HorizonTruncationError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.cells_json:
        cells_to_json(cells, path=args.cells_json)
        print(f"wrote {len(cells)} cell result(s) to {args.cells_json}")
    results = fold_cells(cells, scenario_order=plan.scenario_names,
                         scheme_order=plan.schemes)
    print(format_scenario_table(spec, results))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments`` (and ``.cli``)."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures, or run a "
                    "declarative scenario.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (see --list), 'all', "
                             "'env-rollout' to run a scheduling-environment "
                             "episode on --scenario, or 'env-train' to "
                             "train a learned scheduler on --scenario "
                             "(saving --checkpoint)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--list-schemes", action="store_true",
                        help="list registered scheduling schemes and exit")
    parser.add_argument("--scenario", metavar="NAME|SPEC.json",
                        help="run one declarative scenario (registry name "
                             "or spec JSON path) across --schemes")
    parser.add_argument("--schemes", default=",".join(DEFAULT_SCENARIO_SCHEMES),
                        metavar="CSV",
                        help="comma-separated schemes for --scenario "
                             f"(default: {','.join(DEFAULT_SCENARIO_SCHEMES)})")
    parser.add_argument("--faults", nargs="?", const="spec",
                        metavar="PROFILE|SPEC.json|none",
                        help="in --scenario mode: bare --faults runs the "
                             "scenario's own declared dynamics (the "
                             "default); a value overlays a registered "
                             "fault profile "
                             f"({', '.join(FAULT_PROFILES)}) or a "
                             "FaultSpec JSON document; 'none' strips the "
                             "scenario's faults")
    parser.add_argument("--n-mixes", type=int, default=1, metavar="K",
                        help="random mixes per scenario in --scenario mode "
                             "(default: 1)")
    parser.add_argument("--seed", type=int, default=11, metavar="N",
                        help="seed of the generator driving mix generation "
                             "and arrival processes (default: 11)")
    parser.add_argument("--policy", default="random", metavar="NAME",
                        help="env-rollout mode: the policy driving the "
                             "episode — 'random', 'greedy', any registered "
                             "scheme name, or 'learned:PATH.npz' to serve a "
                             "specific trained checkpoint (default: random)")
    parser.add_argument("--update-mode", choices=["gemm", "rows"],
                        default="gemm", metavar="MODE",
                        help="env-train mode: gradient accumulation — 'gemm' "
                             "packs the batch into matrix products (default), "
                             "'rows' is the row-at-a-time bit-stability "
                             "oracle")
    parser.add_argument("--iters", type=int, default=60, metavar="N",
                        help="env-train mode: training iterations "
                             "(default: 60)")
    parser.add_argument("--episodes-per-iter", type=int, default=8,
                        metavar="N",
                        help="env-train mode: sampled episodes per "
                             "iteration (default: 8)")
    parser.add_argument("--eval-seed", type=int, default=None, metavar="N",
                        help="env-train mode: environment seed of the "
                             "deterministic eval episode that selects the "
                             "checkpointed iterate (default: the first "
                             "training episode seed)")
    parser.add_argument("--checkpoint", metavar="PATH.npz",
                        help="env-train mode: where the best-eval policy "
                             "checkpoint is written (required)")
    parser.add_argument("--train-json", metavar="PATH",
                        help="env-train mode: also write the TrainResult "
                             "curve telemetry as JSON")
    parser.add_argument("--reward", default="stp_delta",
                        choices=["stp_delta", "antt_delta"],
                        help="env-rollout mode: per-step reward shape "
                             "(default: stp_delta — the episode return "
                             "equals the final STP)")
    parser.add_argument("--episode-json", metavar="PATH",
                        help="env-rollout mode: write the typed "
                             "EpisodeResult JSON here instead of printing "
                             "it to stdout")
    parser.add_argument("--stream", action="store_true",
                        help="in --scenario mode, print each grid cell as "
                             "it completes")
    parser.add_argument("--cells-json", metavar="PATH",
                        help="in --scenario mode, export the typed per-cell "
                             "results (with per-job records) as JSON")
    parser.add_argument("--with-learned", action="store_true",
                        help="add the trained 'learned' scheme as an extra "
                             "column in the fig6/fig9 grids (serves the "
                             "committed checkpoint unless "
                             "$REPRO_LEARNED_CHECKPOINT overrides it)")
    parser.add_argument("--quick", action="store_true",
                        help="use reduced simulation grids")
    parser.add_argument("--engine", choices=list(STEP_MODES), default="event",
                        help="simulation engine: 'event' jumps between "
                             "state changes, 'fixed' advances in constant "
                             "steps (default: event)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for the scenario-grid "
                             "experiments fig6/fig9/fig10 and --scenario "
                             "mode; other experiments run in-process "
                             "(default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the trained-model disk cache (.cache/): "
                             "always retrain, never write")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.n_mixes < 1:
        parser.error("--n-mixes must be at least 1")
    if args.faults is not None and not args.scenario:
        parser.error("--faults only applies to --scenario mode")

    if args.list_scenarios:
        from repro.cluster.topologies import topology_specs

        tiers: dict[str, list[str]] = {"standard": [], "mega": []}
        for name in scenario_names():
            tiers["mega" if name.startswith("mega_") else "standard"].append(name)
        for tier, label in (("standard", "Standard tier (paper-scale)"),
                            ("mega", "Mega tier (fleet-scale, array kernel)")):
            if not tiers[tier]:
                continue
            print(f"{label}:")
            for name in tiers[tier]:
                spec = SCENARIO_REGISTRY[name]
                n_jobs = spec.n_apps if spec.n_apps is not None else len(spec.jobs)
                n_nodes = sum(group.count
                              for group in topology_specs(spec.topology))
                columns = f"  {name:18s} {n_jobs:>6d} jobs  {n_nodes:>5d} nodes  "
                if tier == "mega":
                    # Pending-queue depth at t=0: batch arrivals drop the
                    # whole workload into the array-backed pending queue
                    # at once (the scheduler-bound regime); open arrival
                    # processes start it empty and fill it over time.
                    depth = n_jobs if spec.arrival.kind == "batch" else 0
                    columns += f"queue@t0={depth:<6d} "
                print(columns + spec.description)
        return 0

    if args.list_schemes:
        from repro.scheduling.registry import scheme_info, scheme_names

        for name in scheme_names():
            requires = scheme_info(name).requires
            print(f"  {name:24s} requires: {requires or '-'}")
        return 0

    if args.experiments == ["env-rollout"]:
        if not args.scenario:
            parser.error("env-rollout requires --scenario")
        return _run_env_rollout(args)

    if args.experiments == ["env-train"]:
        if not args.scenario:
            parser.error("env-train requires --scenario")
        return _run_env_train(args)

    if args.scenario:
        if args.experiments:
            parser.error("--scenario cannot be combined with experiment "
                         "names; run them as separate invocations "
                         "(or use the 'env-rollout' mode)")
        return _run_scenario_mode(args)

    if args.list or not args.experiments:
        for name, (description, _) in EXPERIMENTS.items():
            print(f"  {name:8s} {description}")
        return 0

    requested = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    with Session(use_cache=not args.no_cache) as session:
        # The figure experiments all read trained models; materialise them
        # once up front (from the disk cache when allowed), exactly as the
        # pre-API CLI did.
        session.ensure_trained()
        for name in requested:
            description, runner = EXPERIMENTS[name]
            print(f"\n=== {name}: {description} ===")
            runner(session, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
