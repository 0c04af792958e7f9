"""Executor processes.

A Spark executor is a JVM process with a dedicated heap that caches RDD
partitions and runs parallel tasks.  The paper's scheduler operates at the
executor granularity: it spawns additional executors on nodes with spare
memory, sizes their heap using the predicted memory function, and adjusts
the number of task threads so co-running executors share the node's cores
evenly (Section 4.3).  The simulator models that sharing through the
engines' per-node CPU factor, so an executor keeps no thread count.

Since the array-backed kernel core (:mod:`repro.cluster.state`), an
executor placed on a cluster node is a thin *view* over one slot of the
cluster's executor array: ``assigned_gb`` and ``processed_gb`` live in
the array while the executor is adopted (so the engines can advance
progress for thousands of executors with one vectorized expression) and
are copied back to plain attributes when it leaves the cluster.  The
public API is unchanged either way.
"""

from __future__ import annotations

import itertools
from enum import Enum

__all__ = ["ExecutorState", "Executor"]

_EXECUTOR_IDS = itertools.count()


class ExecutorState(str, Enum):
    """Lifecycle of an executor process."""

    RUNNING = "running"
    FINISHED = "finished"
    FAILED_OOM = "failed_oom"
    KILLED = "killed"


class Executor:
    """One executor process placed on a node.

    Parameters
    ----------
    app_name:
        Identifier of the owning application instance.
    node_id:
        Index of the node hosting the executor.
    memory_budget_gb:
        Heap size granted by the scheduler.
    assigned_gb:
        Amount of input data this executor is responsible for caching and
        processing.
    cpu_demand:
        CPU demand (fraction of the node) inherited from the application.
    """

    __slots__ = ("app_name", "node_id", "memory_budget_gb", "cpu_demand",
                 "executor_id", "state", "app_index",
                 "_assigned_gb", "_processed_gb", "_node", "_state", "_slot")

    def __init__(self, app_name: str, node_id: int, memory_budget_gb: float,
                 assigned_gb: float, cpu_demand: float,
                 executor_id: int | None = None, processed_gb: float = 0.0,
                 state: ExecutorState = ExecutorState.RUNNING,
                 app_index: int = -1) -> None:
        if memory_budget_gb <= 0:
            raise ValueError("memory_budget_gb must be positive")
        if assigned_gb < 0:
            raise ValueError("assigned_gb cannot be negative")
        if not 0 < cpu_demand <= 1.0:
            raise ValueError("cpu_demand must be in (0, 1]")
        self.app_name = app_name
        self.node_id = node_id
        self.memory_budget_gb = memory_budget_gb
        self.cpu_demand = cpu_demand
        self.executor_id = (next(_EXECUTOR_IDS) if executor_id is None
                            else executor_id)
        self.state = state
        # Integer identity of the owning application (its submission
        # index), used by the vectorized per-node colocation counts;
        # -1 for executors spawned outside a simulator run.
        self.app_index = app_index
        self._assigned_gb = assigned_gb
        self._processed_gb = processed_gb
        # Back-reference to the hosting Node, set by Node.add_executor;
        # state transitions notify it so the node's reservation columns
        # are marked stale and recomputed lazily, not on every query.
        self._node = None
        # Array-slot view: set by ClusterState.adopt_executor while the
        # executor is placed on a cluster node, cleared at eviction.
        self._state = None
        self._slot = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Executor(app_name={self.app_name!r}, "
                f"node_id={self.node_id}, "
                f"memory_budget_gb={self.memory_budget_gb}, "
                f"assigned_gb={self.assigned_gb}, "
                f"cpu_demand={self.cpu_demand}, "
                f"executor_id={self.executor_id}, "
                f"processed_gb={self.processed_gb}, state={self.state})")

    # ------------------------------------------------------------------
    # Array-backed scalars
    # ------------------------------------------------------------------
    @property
    def assigned_gb(self) -> float:
        """Input data this executor is responsible for."""
        if self._state is not None:
            return float(self._state._exec["assigned_gb"][self._slot])
        return self._assigned_gb

    @assigned_gb.setter
    def assigned_gb(self, value: float) -> None:
        if self._state is not None:
            self._state._exec["assigned_gb"][self._slot] = value
        else:
            self._assigned_gb = value

    @property
    def processed_gb(self) -> float:
        """Input data already processed."""
        if self._state is not None:
            return float(self._state._exec["processed_gb"][self._slot])
        return self._processed_gb

    @processed_gb.setter
    def processed_gb(self, value: float) -> None:
        if self._state is not None:
            self._state._exec["processed_gb"][self._slot] = value
        else:
            self._processed_gb = value

    @property
    def remaining_gb(self) -> float:
        """Data still to be processed by this executor."""
        return max(self.assigned_gb - self.processed_gb, 0.0)

    @property
    def is_active(self) -> bool:
        """Whether the executor is still running work."""
        return self.state is ExecutorState.RUNNING and self.remaining_gb > 1e-9

    def cached_gb(self) -> float:
        """Data currently held by the executor.

        Spark caches the partitions an executor is responsible for; the
        resident footprint therefore follows the *assigned* data rather
        than the already-processed fraction, which is what the paper's
        memory functions model.
        """
        return self.assigned_gb

    def _notify_node(self) -> None:
        """Tell the hosting node (if any) that activity state changed."""
        if self._state is not None:
            self._state._exec["active"][self._slot] = self.is_active
        if self._node is not None:
            self._node.invalidate_reservations()

    def advance(self, processed_gb: float) -> None:
        """Account for ``processed_gb`` of work completed by the executor."""
        if processed_gb < 0:
            raise ValueError("processed_gb cannot be negative")
        if self.state is not ExecutorState.RUNNING:
            raise RuntimeError("cannot advance a finished or failed executor")
        self.processed_gb = min(self.processed_gb + processed_gb, self.assigned_gb)
        if self.remaining_gb <= 1e-9:
            self.state = ExecutorState.FINISHED
            self._notify_node()

    def assign_more(self, extra_gb: float) -> None:
        """Give the executor additional data to process.

        Used by the dynamic adjustment in the dispatcher, which grows or
        shrinks the number of data items given to a co-located executor as
        memory conditions change (Section 4.3).
        """
        if extra_gb < 0:
            raise ValueError("extra_gb cannot be negative")
        if self.state in (ExecutorState.FAILED_OOM, ExecutorState.KILLED):
            raise RuntimeError("cannot assign data to a failed executor")
        self.assigned_gb += extra_gb
        if self.state is ExecutorState.FINISHED and self.remaining_gb > 1e-9:
            self.state = ExecutorState.RUNNING
        self._notify_node()

    def interrupt(self) -> float:
        """Kill the executor involuntarily (node failure or preemption).

        Returns the amount of unprocessed data, which the fault
        controller hands back to the application's unassigned pool so
        the scheduler re-distributes it on the surviving capacity.
        """
        unprocessed = self.remaining_gb
        self.state = ExecutorState.KILLED
        self._notify_node()
        return unprocessed

    def fail_out_of_memory(self) -> float:
        """Mark the executor as killed by an out-of-memory error.

        Returns the amount of unprocessed data that must be re-run
        elsewhere (the paper re-runs failed executors in isolation,
        Section 2.3).
        """
        unprocessed = self.remaining_gb
        self.state = ExecutorState.FAILED_OOM
        self._notify_node()
        return unprocessed
