"""The four benchmark workloads.

Each workload splits into ``setup`` (suite training and input generation,
timed as ``setup_s``) and ``unit`` (one deterministic piece of work:
a grid pass, a simulation run, a training run), which the runner repeats
for the measured window.  A unit returns its operations' durations and
its *sim* metrics; the runner adds the event-bus records and digests it.

Inputs come from the workload seed alone, and the program only ever sees
the generated job lists: the benchmark draws every mix itself and hands
the scenarios over as explicit-job specs.  Which jobs a mix holds is
drawn once, from :data:`MIX_SEED`; the workload seed draws their order,
arrival times, fault realisation and (``policy_train``) the policy's
initialisation and sampling.  The composition sets most of a unit's
cost: with it drawn per seed, ``policy_train`` ran 1.4 to 3.2 iterations
per second across seeds 1-10, far beyond any bound the benchmark can
hold on a noisy host.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from repro.api import ExperimentPlan, Session, fold_cells, overall_geomean
from repro.cluster.simulator import ClusterSimulator
from repro.env.train import ReinforceLearner, TrainConfig
from repro.metrics.throughput import StreamingScheduleMetrics
from repro.scenarios import scenario
from repro.scenarios.spec import ScenarioSpec
from repro.spark.driver import DynamicAllocationPolicy
from tracer import span

#: Seed of the job composition of every mix (see the module docstring).
MIX_SEED = 11

#: The paper's comparison columns on the Figs 6/9 grid.
GRID_SCHEMES = ("pairwise", "quasar", "ours", "oracle", "unified_ann")

#: Per-workload input size, keyed by size name.  ``full`` is what the
#: benchmark measures; ``tiny`` is the smoke-test size.
SIZES = {
    "paper_grid": {
        "full": {"scenarios": tuple(f"L{i}" for i in range(1, 11)),
                 "schemes": GRID_SCHEMES, "n_mixes": 2},
        "tiny": {"scenarios": ("L1", "L2"), "schemes": ("pairwise", "ours"),
                 "n_mixes": 1},
    },
    "fleet_churn": {
        "full": {"n_apps": None},
        "tiny": {"n_apps": 40},
    },
    "queue_burst": {
        "full": {"n_apps": 800, "max_time_min": 100.0},
        "tiny": {"n_apps": 40, "max_time_min": 30.0},
    },
    "policy_train": {
        "full": {"runs": 4, "iters": 6, "episodes_per_iter": 4,
                 "eval_every": 3},
        "tiny": {"runs": 1, "iters": 2, "episodes_per_iter": 2,
                 "eval_every": 1},
    },
}


def seeded_mixes(spec: ScenarioSpec, n_mixes: int, seed: int) -> list[list]:
    """``spec``'s mixes for :data:`MIX_SEED`, each in an order and with
    arrival times drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    mixes = []
    for mix in spec.make_mixes(n_mixes=n_mixes, seed=MIX_SEED):
        jobs = [dataclasses.replace(mix[i], order=k, submit_time_min=0.0)
                for k, i in enumerate(rng.permutation(len(mix)))]
        mixes.append(spec.arrival.apply(jobs, rng))
    return mixes


def explicit(spec: ScenarioSpec, name: str, jobs: list) -> ScenarioSpec:
    """``spec`` with its random mix replaced by the given job list."""
    return dataclasses.replace(
        spec, name=name, n_apps=None,
        jobs=tuple((job.benchmark, job.input_gb) for job in jobs))


class Unit:
    """Outcome of one unit: operation durations plus its sim metrics."""

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.sim: dict = {}
        #: What a layer reads off the program's own telemetry (training
        #: iteration stats); kept out of the digest.
        self.telemetry: dict = {}


class _Workload:
    """Common shape: sized inputs and an optional tracer for the spans
    the benchmark records itself."""

    name = ""

    def __init__(self, size: str) -> None:
        self.params = SIZES[self.name][size]
        #: Set by the runner while the traced pass runs.
        self.tracer = None
        #: What operation durations are read from; the runner sets a
        #: host-calibrated clock for the untraced passes.
        self.clock = time.perf_counter

    def n_ops(self, state) -> int:
        """Operations in one unit."""
        return 1


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
class PaperGrid(_Workload):
    """Figs 6/9 regenerated cold: L1..L10 x five schemes on paper40."""

    name = "paper_grid"

    def setup(self, seed: int) -> dict:
        schemes = self.params["schemes"]
        session = Session(use_cache=False)
        session.ensure_trained(schemes)
        specs = []
        for label in self.params["scenarios"]:
            base = scenario(label)
            for index, mix in enumerate(seeded_mixes(
                    base, self.params["n_mixes"], seed)):
                specs.append(explicit(base, f"{label}.m{index}", mix))
        plan = ExperimentPlan(schemes=schemes, scenarios=tuple(specs),
                              n_mixes=1, seed=seed, workers=1)
        return {"session": session, "plan": plan}

    def n_ops(self, state) -> int:
        return state["plan"].n_cells

    def unit(self, state) -> Unit:
        unit = Unit()
        plan = state["plan"]
        stream = state["session"].stream(plan)
        cells = []
        tick = self.clock()
        while True:
            with span(self.tracer, "api.cell"):
                cell = next(stream, None)
            if cell is None:
                break
            now = self.clock()
            unit.op_s.append(now - tick)
            tick = now
            cells.append(cell)
        if len(cells) != plan.n_cells:
            raise RuntimeError(f"grid yielded {len(cells)} of "
                               f"{plan.n_cells} cells")
        with span(self.tracer, "api.fold"):
            rows = fold_cells(cells, scenario_order=plan.scenario_names,
                              scheme_order=plan.schemes)
        ours = [row for row in rows if row.scheme == "ours"]
        unit.sim = {
            "stp_geomean": overall_geomean(rows, "ours"),
            "antt_reduction_pct": math.fsum(
                row.antt_reduction_mean for row in ours) / len(ours),
            "cells": [[cell.scenario, cell.scheme, cell.stp, cell.antt]
                      for cell in cells],
        }
        return unit


# ----------------------------------------------------------------------
# fleet_churn and queue_burst: one ClusterSimulator run per unit
# ----------------------------------------------------------------------
class _SimulationWorkload(_Workload):
    """Drives the public ClusterSimulator with scheme ``ours``."""

    scheme = "ours"

    def spec(self) -> ScenarioSpec:
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        session = Session(use_cache=False)
        suite = session.ensure_trained((self.scheme,))
        spec = self.spec()
        jobs = seeded_mixes(spec, 1, seed)[0]
        return {"suite": suite, "spec": spec, "jobs": jobs, "seed": seed}

    def unit(self, state) -> Unit:
        unit = Unit()
        spec, jobs = state["spec"], state["jobs"]
        tick = self.clock()
        cluster = spec.build_cluster()
        policy = DynamicAllocationPolicy(max_executors=len(cluster))
        scheduler = state["suite"].factory(self.scheme,
                                           allocation_policy=policy)()
        simulator = ClusterSimulator(
            cluster, scheduler, time_step_min=0.5, seed=state["seed"],
            step_mode="event", record_utilization=False,
            max_time_min=spec.max_time_min, faults=spec.faults)
        metrics = StreamingScheduleMetrics(jobs, policy).attach(
            simulator.events)
        result = simulator.run(jobs)
        unit.sim = self.sim_metrics(result, metrics)
        unit.op_s.append(self.clock() - tick)
        return unit


class FleetChurn(_SimulationWorkload):
    """``mega_ci_1k``: 1k diurnal jobs on 128 churning nodes."""

    name = "fleet_churn"

    def spec(self) -> ScenarioSpec:
        spec = scenario("mega_ci_1k")
        if self.params["n_apps"] is not None:
            spec = dataclasses.replace(spec, n_apps=self.params["n_apps"])
        return spec

    def sim_metrics(self, result, metrics) -> dict:
        if not result.all_finished():
            raise RuntimeError("fleet_churn left jobs unfinished")
        evaluation = metrics.evaluate(result)
        return {"stp_geomean": evaluation.stp,
                "antt_reduction_pct": evaluation.antt_reduction_percent,
                "makespan_min": result.makespan_min}


class QueueBurst(_SimulationWorkload):
    """A horizon-capped closed burst on ``mega128``: a deep waiting queue."""

    name = "queue_burst"

    def spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="queue_burst", n_apps=self.params["n_apps"],
            topology="mega128", max_time_min=self.params["max_time_min"],
            description="closed burst on 128 static nodes, horizon-capped "
                        "so the waiting queue stays deep")

    def sim_metrics(self, result, metrics) -> dict:
        finished = len(result.finished_apps())
        if finished == 0:
            raise RuntimeError("queue_burst finished no job")
        return {"jobs_finished": finished,
                "makespan_min": result.makespan_min}


# ----------------------------------------------------------------------
# policy_train
# ----------------------------------------------------------------------
class PolicyTrain(_Workload):
    """Short REINFORCE runs of the learned scheduler on ``churn20``.

    A unit is several independent training runs, each on inputs drawn
    from its own sub-seed of the workload seed.  How long a run takes
    depends on how the policy it trains behaves: one run's cost moves by
    a third between seeds, and the sum over several runs moves far less.
    """

    name = "policy_train"

    def setup(self, seed: int) -> dict:
        base = scenario("churn20")
        runs = self.params["runs"]
        episodes = self.params["episodes_per_iter"]
        trainings = []
        for sub_seed in range(seed * runs, (seed + 1) * runs):
            spec = explicit(base, base.name,
                            seeded_mixes(base, 1, sub_seed)[0])
            # The policy's initialisation and sampling stay at MIX_SEED:
            # an untrained policy's behaviour sets how long episodes run.
            config = TrainConfig(
                iters=self.params["iters"], episodes_per_iter=episodes,
                eval_every=self.params["eval_every"], seed=MIX_SEED,
                workers=1, episode_seeds=tuple(
                    range(sub_seed * episodes, (sub_seed + 1) * episodes)))
            trainings.append((spec, config))
        return {"trainings": trainings}

    def n_ops(self, state) -> int:
        return sum(config.iters for _, config in state["trainings"])

    def unit(self, state) -> Unit:
        unit = Unit()
        tick = self.clock()

        def progress(stats) -> None:
            nonlocal tick
            now = self.clock()
            unit.op_s.append(now - tick)
            tick = now

        results = []
        for spec, config in state["trainings"]:
            tick = self.clock()
            result = ReinforceLearner(spec, config).train(progress=progress)
            if (not math.isfinite(result.final_eval_stp)
                    or result.final_eval_stp <= 0):
                raise RuntimeError(f"eval STP {result.final_eval_stp!r}")
            results.append(result)
        curve = [stats for result in results for stats in result.curve]
        unit.sim = {
            "eval_stp": math.fsum(r.final_eval_stp for r in results)
            / len(results),
            "curves": [[[stats.mean_return, stats.grad_norm, stats.eval_stp]
                        for stats in result.curve] for result in results],
        }
        unit.telemetry = {
            "train.collect_s": sum(s.collect_s for s in curve),
            "train.update_s": sum(s.update_s for s in curve),
            "train.eval_s": sum(s.eval_s for s in curve),
        }
        return unit


WORKLOADS = {cls.name: cls for cls in (PaperGrid, FleetChurn, QueueBurst,
                                       PolicyTrain)}
