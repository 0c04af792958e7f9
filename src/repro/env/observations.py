"""Typed observations of the paused simulation at a scheduler wake-point.

An :class:`Observation` is the policy-facing snapshot the scheduling
environment hands out every time the simulation pauses at a
``SCHEDULER_WAKE`` epoch.  It deliberately exposes only what a scheduler
could legitimately observe through the
:class:`~repro.cluster.simulator.SchedulingContext` — reservation-side
free memory, monitor-capped CPU headroom, node health, queue state — plus
the O(1) fault telemetry counters streamed off the event bus.  Ground
truth (true footprints, future arrivals' contents, the realized fault
timeline) never leaks into an observation.

Everything is a frozen dataclass with a ``to_dict`` JSON form, so
observations can be logged, diffed (reset determinism tests compare them
structurally) and shipped to out-of-process policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.events import EventKind

__all__ = ["JobView", "NodeView", "BusTelemetry", "Observation",
           "FeatureObservation", "ObservationBuilder"]


@dataclass(frozen=True)
class JobView:
    """One submitted, unfinished application as a policy may see it.

    ``ready`` is false while the application sits inside its profiling
    window (placements for it are rejected, mirroring
    ``SchedulingContext.waiting_apps``); ``unassigned_gb`` is the data a
    new executor could take.  ``cpu_load`` is the per-executor CPU demand
    from the benchmark specification — a scheduler reads the same number
    through ``ctx.spec_of``.
    """

    name: str
    benchmark: str
    input_gb: float
    unassigned_gb: float
    submit_time_min: float
    ready: bool
    cpu_load: float
    active_executors: int
    state: str

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "name": self.name,
            "benchmark": self.benchmark,
            "input_gb": self.input_gb,
            "unassigned_gb": self.unassigned_gb,
            "submit_time_min": self.submit_time_min,
            "ready": self.ready,
            "cpu_load": self.cpu_load,
            "active_executors": self.active_executors,
            "state": self.state,
        }


@dataclass(frozen=True)
class NodeView:
    """One cluster node as a policy may see it.

    ``free_memory_gb`` is the *reservation-side* headroom (the
    scheduler's own bookkeeping), ``cpu_headroom`` the admission-test
    headroom capped by the resource monitor's reported load — both read
    through the same context accessors native schedulers use.
    ``cpu_reserved`` is the pure reservation-side CPU load (no monitor
    cap); unlike the monitor's windowed reports it only changes at
    wake-points, which is what makes it safe for policies — the learned
    featurizer in particular — that must decide identically across the
    event and fixed-step engines.
    """

    node_id: int
    ram_gb: float
    free_memory_gb: float
    cpu_headroom: float
    is_up: bool
    speed_factor: float
    active_executors: int
    cpu_reserved: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "node_id": self.node_id,
            "ram_gb": self.ram_gb,
            "free_memory_gb": self.free_memory_gb,
            "cpu_headroom": self.cpu_headroom,
            "is_up": self.is_up,
            "speed_factor": self.speed_factor,
            "active_executors": self.active_executors,
            "cpu_reserved": self.cpu_reserved,
        }


@dataclass(frozen=True)
class BusTelemetry:
    """O(1) counters accumulated from the event bus since ``reset()``.

    The scheduling environment subscribes once per episode
    (:class:`ObservationBuilder`) and snapshots the counters into every
    observation — fault awareness without replaying the retained log.
    """

    executor_ooms: int = 0
    executors_killed: int = 0
    executors_preempted: int = 0
    node_failures: int = 0
    node_recoveries: int = 0
    nodes_joined: int = 0
    straggler_onsets: int = 0
    work_lost_gb: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "executor_ooms": self.executor_ooms,
            "executors_killed": self.executors_killed,
            "executors_preempted": self.executors_preempted,
            "node_failures": self.node_failures,
            "node_recoveries": self.node_recoveries,
            "nodes_joined": self.nodes_joined,
            "straggler_onsets": self.straggler_onsets,
            "work_lost_gb": self.work_lost_gb,
        }


@dataclass(frozen=True)
class Observation:
    """The full snapshot handed to a policy at one wake-point.

    ``pending_arrivals`` counts jobs whose submission time has not been
    reached (their identity stays hidden, as it would be live);
    ``oom_rerun_gb`` is data awaiting the simulator's isolated OOM
    re-run, which the engine handles without policy involvement.
    """

    time_min: float
    epoch: int
    jobs: tuple[JobView, ...]
    nodes: tuple[NodeView, ...]
    pending_arrivals: int
    oom_rerun_gb: float
    telemetry: BusTelemetry

    @property
    def ready_jobs(self) -> tuple[JobView, ...]:
        """Jobs a placement would currently be accepted for."""
        return tuple(job for job in self.jobs
                     if job.ready and job.unassigned_gb > 1e-6)

    @property
    def up_nodes(self) -> tuple[NodeView, ...]:
        """Nodes currently part of the live cluster."""
        return tuple(node for node in self.nodes if node.is_up)

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "time_min": self.time_min,
            "epoch": self.epoch,
            "jobs": [job.to_dict() for job in self.jobs],
            "nodes": [node.to_dict() for node in self.nodes],
            "pending_arrivals": self.pending_arrivals,
            "oom_rerun_gb": self.oom_rerun_gb,
            "telemetry": self.telemetry.to_dict(),
        }


@dataclass(frozen=True)
class FeatureObservation:
    """Array-backed fast-path observation (``obs_mode="features"``).

    Holds the learned featurizer's
    :class:`~repro.env.train.features.EpochSnapshot` built straight from
    the kernel's state columns — no :class:`JobView`/:class:`NodeView`
    dataclass materialisation, no monitor queries.  The dataclass
    :class:`Observation` stays the parity oracle: for the same paused
    simulation, ``snapshot`` is bit-identical to
    ``snapshot_from_observation(oracle_observation)`` (pinned by the
    fast-path property tests).  Policies that need the full typed view
    (telemetry counters, per-job states) keep the
    :class:`~repro.env.Policy` default, ``obs_mode="dataclass"``.
    """

    time_min: float
    epoch: int
    #: The :class:`~repro.env.train.features.EpochSnapshot` of this
    #: wake-point (typed loosely to keep the env layer import-light).
    snapshot: object


class ObservationBuilder:
    """Builds observations at wake-points; streams telemetry off the bus.

    One builder serves one episode: ``attach`` subscribes its counters to
    the simulator's event bus, :meth:`build` snapshots the paused
    simulation.  The builder queries live state through the same
    :class:`~repro.cluster.simulator.SchedulingContext` accessors native
    schedulers use, so an observation never reveals more than a scheduler
    could see.
    """

    _KINDS = (EventKind.EXECUTOR_OOM, EventKind.EXECUTOR_KILLED,
              EventKind.EXECUTOR_PREEMPTED, EventKind.NODE_DOWN,
              EventKind.NODE_UP, EventKind.NODE_JOINED,
              EventKind.STRAGGLER_ONSET)

    def __init__(self) -> None:
        self._ooms = 0
        self._killed = 0
        self._preempted = 0
        self._node_down = 0
        self._node_up = 0
        self._joined = 0
        self._stragglers = 0
        self._lost_gb = 0.0

    def attach(self, bus) -> "ObservationBuilder":
        """Subscribe the telemetry counters to an event bus."""
        bus.subscribe(self.on_event, kinds=self._KINDS)
        return self

    def on_event(self, event) -> None:
        """Update the counters from one published event."""
        kind = event.kind
        if kind is EventKind.EXECUTOR_OOM:
            self._ooms += 1
            self._lost_gb += event.lost_gb
        elif kind is EventKind.EXECUTOR_KILLED:
            self._killed += 1
            self._lost_gb += event.lost_gb
        elif kind is EventKind.EXECUTOR_PREEMPTED:
            self._preempted += 1
            self._lost_gb += event.lost_gb
        elif kind is EventKind.NODE_DOWN:
            self._node_down += 1
        elif kind is EventKind.NODE_UP:
            self._node_up += 1
        elif kind is EventKind.NODE_JOINED:
            self._joined += 1
        elif kind is EventKind.STRAGGLER_ONSET:
            self._stragglers += 1

    def telemetry(self) -> BusTelemetry:
        """Freeze the current counters."""
        return BusTelemetry(
            executor_ooms=self._ooms,
            executors_killed=self._killed,
            executors_preempted=self._preempted,
            node_failures=self._node_down,
            node_recoveries=self._node_up,
            nodes_joined=self._joined,
            straggler_onsets=self._stragglers,
            work_lost_gb=self._lost_gb,
        )

    def build(self, context, now: float, epoch: int) -> Observation:
        """Snapshot the paused simulation into an :class:`Observation`."""
        sim = context._sim
        from repro.spark.application import ApplicationState

        jobs = []
        for app in sim.submission_order:
            if app.state is ApplicationState.FINISHED:
                continue
            jobs.append(JobView(
                name=app.name,
                benchmark=app.spec.name,
                input_gb=app.input_gb,
                unassigned_gb=app.unassigned_gb,
                submit_time_min=app.submit_time,
                ready=sim.ready_time[app.name] <= now + 1e-9,
                cpu_load=sim.specs[app.name].cpu_load,
                active_executors=len(app.active_executors),
                state=app.state.value,
            ))
        nodes = tuple(NodeView(
            node_id=node.node_id,
            ram_gb=node.ram_gb,
            free_memory_gb=node.free_reserved_memory_gb,
            cpu_headroom=context.node_cpu_headroom(node.node_id),
            is_up=node.is_up,
            speed_factor=node.speed_factor,
            active_executors=len(node.active_executors()),
            cpu_reserved=node.reserved_cpu_load,
        ) for node in sim.cluster.nodes)
        return Observation(
            time_min=now,
            epoch=epoch,
            jobs=tuple(jobs),
            nodes=nodes,
            pending_arrivals=sim.pending_count(),
            oom_rerun_gb=float(sum(sim.oom_retry_gb.values())),
            telemetry=self.telemetry(),
        )

    def build_features(self, context, now: float, epoch: int,
                       allocation_policy) -> FeatureObservation:
        """Snapshot the paused simulation array-to-array (fast path).

        Fills the learned featurizer's ``EpochSnapshot`` straight from
        the kernel's :class:`~repro.cluster.state.ClusterState` columns
        (via the version-cached ``NodeFeatures`` epoch snapshot),
        skipping the per-job/per-node dataclass tuples
        and the per-node monitor queries :meth:`build` pays.  The
        resulting arrays are bit-identical to running
        ``snapshot_from_observation`` on :meth:`build`'s output.
        """
        # Lazy import: repro.env.train packages import the environment,
        # which imports this module — a top-level import would cycle.
        from repro.env.train.features import snapshot_from_state

        return FeatureObservation(
            time_min=now,
            epoch=epoch,
            snapshot=snapshot_from_state(context, allocation_policy),
        )
