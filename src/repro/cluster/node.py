"""A single computing node.

Mirrors the paper's hardware: each node has 64 GB of RAM, 16 GB of swap and
an 8-core/16-thread CPU (Section 5.1).  A node hosts executor processes;
the memory *reservations* (scheduler bookkeeping, i.e. granted heap sizes)
are tracked separately from the *actual* footprints, which the simulator
computes from ground truth — the gap between the two is exactly where
mispredicted memory requirements cause paging or out-of-memory failures.

A node is a pure view over one slot of its cluster's node array
(:mod:`repro.cluster.state`): the up flag, the speed factor and the
reservation aggregates live only in the ``NODE_DTYPE`` columns, which
the properties below read and the mutators write.  A node is therefore
usable only once a :class:`~repro.cluster.cluster.Cluster` has adopted
it.  Co-running executors share the node's cores (Section 4.3); the
engines model that sharing with their per-node ``cpu_factor``, which
scales every executor's progress down when the aggregate CPU demand
exceeds 100 %, so no per-executor thread count is kept.
"""

from __future__ import annotations

from repro.spark.executor import Executor

__all__ = ["Node"]


class Node:
    """One compute server in the cluster.

    Parameters
    ----------
    node_id:
        Index of the node within the cluster.
    ram_gb:
        Physical memory available to executors.
    swap_gb:
        Swap space; executors spilling into swap run at a severe paging
        penalty but do not fail outright.
    cores:
        Hardware threads available for task execution.
    """

    __slots__ = ("node_id", "ram_gb", "swap_gb", "cores", "executors",
                 "_state", "_slot")

    def __init__(self, node_id: int, ram_gb: float = 64.0,
                 swap_gb: float = 16.0, cores: int = 16) -> None:
        if ram_gb <= 0:
            raise ValueError("ram_gb must be positive")
        if swap_gb < 0:
            raise ValueError("swap_gb cannot be negative")
        if cores < 1:
            raise ValueError("cores must be at least 1")
        self.node_id = node_id
        self.ram_gb = ram_gb
        self.swap_gb = swap_gb
        self.cores = cores
        self.executors: list[Executor] = []
        # Array-slot view: set by ClusterState.adopt_node when the node
        # joins a cluster.
        self._state = None
        self._slot = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Node(node_id={self.node_id}, ram_gb={self.ram_gb}, "
                f"swap_gb={self.swap_gb}, cores={self.cores}, "
                f"executors={self.executors}, is_up={self.is_up}, "
                f"speed_factor={self.speed_factor})")

    # ------------------------------------------------------------------
    # Dynamic flags (array columns)
    # ------------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        """Whether the node is currently part of the live cluster.

        Failed or decommissioned nodes stay in the topology (their id is
        stable) but are skipped by every placement scan and admission
        test.
        """
        return bool(self._state._node["up"][self._slot])

    @property
    def speed_factor(self) -> float:
        """Progress multiplier applied to every executor on this node.

        The straggler fault model lowers it below 1.0 and restores it on
        recovery.  Healthy nodes run at exactly 1.0.
        """
        return float(self._state._node["speed"][self._slot])

    # ------------------------------------------------------------------
    # Dynamic-cluster state transitions
    # ------------------------------------------------------------------
    def mark_down(self) -> None:
        """Take the node out of the live cluster (failure/decommission)."""
        self._state._node["up"][self._slot] = False
        self.set_speed(1.0)
        self.invalidate_reservations()

    def mark_up(self) -> None:
        """Return a failed node to the live cluster, at full speed."""
        self._state._node["up"][self._slot] = True
        self.set_speed(1.0)
        self.invalidate_reservations()

    def set_speed(self, factor: float) -> None:
        """Set the straggler progress multiplier (1.0 = healthy)."""
        if factor <= 0:
            raise ValueError("speed_factor must be positive")
        self._state._node["speed"][self._slot] = factor
        # Speed is not a reservation aggregate, so the node stays clean —
        # but version-cached feature snapshots (NodeFeatures) must observe
        # straggler onset/recovery, so the mutation still moves the version.
        self._state.version += 1

    # ------------------------------------------------------------------
    # Executor management
    # ------------------------------------------------------------------
    def add_executor(self, executor: Executor) -> None:
        """Place an executor on this node."""
        if executor.node_id != self.node_id:
            raise ValueError("executor is destined for a different node")
        self.executors.append(executor)
        executor._node = self
        state, slot = self._state, self._slot
        if executor._state is None:
            state.adopt_executor(executor, slot)
        if executor.is_active and slot not in state._dirty_nodes:
            # Appending an active executor to a clean node updates the
            # aggregate columns in place.  This is bit-for-bit equal to
            # the full refresh: python's sum() accumulates left to right
            # and the newcomer sits at the end of the active list, so
            # old_sum + budget IS the recomputed sum.  (Removals cannot be
            # done this way — subtraction is not the exact inverse of
            # sequential addition — and still invalidate.)
            row = state._node[slot]
            row["reserved_mem_gb"] += executor.memory_budget_gb
            row["reserved_cpu"] += executor.cpu_demand
            row["n_active"] += 1
        else:
            self.invalidate_reservations()

    def remove_executor(self, executor: Executor) -> None:
        """Remove an executor (finished or failed) from this node."""
        self.executors.remove(executor)
        executor._node = None
        if executor._state is not None:
            executor._state.evict_executor(executor)
        self.invalidate_reservations()

    def invalidate_reservations(self) -> None:
        """Mark the aggregate columns stale (membership or activity changed)."""
        self._state.mark_node_dirty(self._slot)

    def active_executors(self) -> list[Executor]:
        """Executors still running work on this node."""
        return [e for e in self.executors if e.is_active]

    def applications(self) -> set[str]:
        """Names of the applications with an active executor on this node."""
        return {e.app_name for e in self.executors if e.is_active}

    # ------------------------------------------------------------------
    # Reservation (scheduler-side) accounting
    # ------------------------------------------------------------------
    def _aggregate(self, column: str) -> float:
        state, slot = self._state, self._slot
        if slot in state._dirty_nodes:
            state.refresh_node(slot)
        return float(state._node[column][slot])

    @property
    def reserved_memory_gb(self) -> float:
        """Total heap granted to executors still running on this node."""
        return self._aggregate("reserved_mem_gb")

    @property
    def free_reserved_memory_gb(self) -> float:
        """Memory not yet promised to any executor."""
        return max(self.ram_gb - self.reserved_memory_gb, 0.0)

    @property
    def reserved_cpu_load(self) -> float:
        """Aggregate CPU demand of the active executors on this node."""
        return self._aggregate("reserved_cpu")

    @property
    def free_cpu_load(self) -> float:
        """Remaining CPU headroom before the aggregate load reaches 100 %."""
        return max(1.0 - self.reserved_cpu_load, 0.0)

    def can_host(self, memory_gb: float, cpu_load: float) -> bool:
        """Whether a new executor with the given demands fits this node.

        This is the paper's co-location admission test: the executor's
        memory must fit in the unreserved RAM, and the aggregate CPU load
        of all co-running tasks must not exceed 100 % (Section 4.3).
        Down nodes host nothing.
        """
        if memory_gb <= 0 or not self.is_up:
            return False
        return (
            memory_gb <= self.free_reserved_memory_gb + 1e-9
            and self.reserved_cpu_load + cpu_load <= 1.0 + 1e-9
        )
