"""Shared featurizer: one epoch snapshot, one candidate feature matrix.

Training and inference must see *exactly* the same numbers, wherever the
policy runs — sampling structured actions through
:class:`repro.env.SchedulingEnv` during training, or serving placements
natively as a registered scheme inside the engines' hot loop.  This
module is that single source of truth:

* :class:`EpochSnapshot` — the decision-relevant state at one scheduler
  wake-point, buildable from a typed :class:`repro.env.Observation`
  (:func:`snapshot_from_observation`) or straight from the live
  :class:`~repro.cluster.simulator.SchedulingContext`'s state columns
  (:func:`snapshot_from_state`).  Both read the same reservation-side
  numbers, so the two paths yield bit-identical arrays for the same
  simulation state.
* :func:`candidate_features` — the fixed-width feature matrix over this
  decision's *candidates*: one ``skip`` row plus one row per (live node,
  memory fraction) pair that passes the admission mask.  Invalid
  candidates are never materialised — the same convention as
  ``score_batch``'s NaN mask, applied at row-construction time.

Two rules keep the learned scheme equal across engines:

1. **Reservation-side only.**  Features read the scheduler's own
   bookkeeping (reserved memory/CPU), never the resource monitor's
   windowed usage reports: monitor state drifts *between* wake-points,
   so a monitor-derived feature would make the fixed-step engine (which
   also wakes at no-change epochs) diverge from the event engine.
2. **Time-free.**  No absolute time, epoch index or bus telemetry: at an
   idle epoch the state — and therefore the decision — must be identical
   to the previous wake-point's terminal ``skip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FeatureConfig", "FEATURE_NAMES", "N_FEATURES", "JobCand",
           "EpochSnapshot", "snapshot_from_observation", "snapshot_from_state",
           "candidate_features", "CandidateRowCache"]

#: Column names of the candidate feature matrix, in order.  The first
#: block describes the job and cluster (shared by every candidate of one
#: decision, including ``skip``); the second block is zero on the
#: ``skip`` row and describes the (node, fraction) placement.
FEATURE_NAMES: tuple[str, ...] = (
    # decision-wide block (also on the skip row)
    "skip_flag",          # 1.0 on the skip candidate, else 0.0
    "job_input",          # input_gb / 100
    "job_unassigned",     # unassigned_gb / input_gb
    "job_cpu_load",       # per-executor CPU demand (0..1)
    "job_saturation",     # active / desired executors
    "job_remaining",      # (desired - active) / desired
    "n_ready",            # ready jobs this epoch / 10
    "cluster_free",       # total free / total RAM over live nodes
    # placement block (zero on the skip row)
    "node_ram",           # ram_gb / 100
    "node_free",          # free_gb / 100
    "node_free_frac",     # free_gb / ram_gb
    "node_free_rank",     # free_gb / max free over live nodes
    "node_cpu_free",      # 1 - reserved CPU load
    "node_execs",         # active executors / 4
    "node_empty",         # 1.0 iff no executor on the node
    "node_single",        # 1.0 iff exactly one executor
    "node_speed",         # speed factor (stragglers < 1)
    "frac",               # memory fraction of this candidate
    "budget",             # frac * free_gb / 100
    "budget_frac_ram",    # frac * free_gb / ram_gb
)

#: Width of the candidate feature matrix.
N_FEATURES: int = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureConfig:
    """Shape of the candidate space (frozen into every checkpoint).

    ``fractions`` are the memory budgets offered per node, as fractions
    of its *current* free reservation-side memory; ``min_budget_gb``
    drops candidates whose resulting budget would be uselessly small
    (mirroring Pairwise's 1 GB floor).  A checkpoint trained with one
    config must be served with the same config — the loader enforces it.
    """

    fractions: tuple[float, ...] = (0.25, 0.5, 1.0)
    min_budget_gb: float = 1.0
    version: int = 1

    def __post_init__(self) -> None:
        if not self.fractions:
            raise ValueError("at least one memory fraction is required")
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ValueError("memory fractions must be in (0, 1]")
        if self.min_budget_gb <= 0:
            raise ValueError("min_budget_gb must be positive")

    def to_dict(self) -> dict:
        """JSON-ready dict form (stored in checkpoint metadata)."""
        return {"fractions": list(self.fractions),
                "min_budget_gb": self.min_budget_gb,
                "version": self.version}

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(fractions=tuple(payload["fractions"]),
                   min_budget_gb=payload["min_budget_gb"],
                   version=payload["version"])


@dataclass
class JobCand:
    """One ready job as the decision loop sees it (locally mutable)."""

    name: str
    input_gb: float
    unassigned_gb: float
    cpu_load: float
    active: int
    desired: int


@dataclass
class EpochSnapshot:
    """Decision-relevant state at one wake-point, as flat numpy columns.

    Node arrays cover *live* nodes only, in cluster order (the same
    order both builders iterate), and are mutated in place by the
    decision loop as it books placements — mirroring exactly what the
    simulator's reservation accounting will do when the placements are
    applied.
    """

    jobs: list[JobCand]
    node_ids: np.ndarray       # int64, live nodes in cluster order
    ram_gb: np.ndarray         # float64
    free_gb: np.ndarray        # float64, reservation-side free memory
    cpu_free: np.ndarray       # float64, 1 - reserved CPU load
    execs: np.ndarray          # int64, active executors per node
    speed: np.ndarray          # float64, straggler speed factor
    total_ram: float = field(init=False)

    def __post_init__(self) -> None:
        self.total_ram = float(self.ram_gb.sum())

    def book(self, slot: int, budget_gb: float, cpu_load: float) -> None:
        """Apply one placement's reservation effects to the local state."""
        self.free_gb[slot] -= budget_gb
        self.cpu_free[slot] -= cpu_load
        self.execs[slot] += 1


def snapshot_from_observation(observation, allocation_policy) -> EpochSnapshot:
    """Build the snapshot from a typed environment observation.

    Reads the same reservation-side fields
    (:attr:`~repro.env.NodeView.free_memory_gb`,
    :attr:`~repro.env.NodeView.cpu_reserved`) the context builder reads,
    so for one paused simulation both constructors return bit-identical
    arrays.
    """
    jobs = [JobCand(name=job.name, input_gb=job.input_gb,
                    unassigned_gb=job.unassigned_gb, cpu_load=job.cpu_load,
                    active=job.active_executors,
                    desired=allocation_policy.desired_executors(job.input_gb))
            for job in observation.ready_jobs]
    up = [n for n in observation.nodes if n.is_up]
    return EpochSnapshot(
        jobs=jobs,
        node_ids=np.array([n.node_id for n in up], dtype=np.int64),
        ram_gb=np.array([n.ram_gb for n in up], dtype=np.float64),
        free_gb=np.array([n.free_memory_gb for n in up], dtype=np.float64),
        cpu_free=np.array([1.0 - n.cpu_reserved for n in up],
                          dtype=np.float64),
        execs=np.array([n.active_executors for n in up], dtype=np.int64),
        speed=np.array([n.speed_factor for n in up], dtype=np.float64),
    )


def snapshot_from_state(ctx, allocation_policy) -> EpochSnapshot:
    """Build the snapshot straight from the kernel's state columns.

    The fast-path constructor behind ``obs_mode="features"``: the node
    arrays are gathered from the cached
    :class:`~repro.cluster.simulator.NodeFeatures` epoch snapshot (one
    boolean-mask gather per column) instead of one Python attribute
    read per node.  Every gathered column is the one the
    :class:`~repro.cluster.node.Node` properties read (refreshed by
    ``ClusterState.refresh_dirty`` before the snapshot), and the two
    derived columns use the same elementwise float64 expressions
    (``max(ram - reserved, 0)``, ``1 - reserved_cpu``), so the arrays
    are bit-identical to :func:`snapshot_from_observation`'s on the
    same paused simulation — the property tests pin it.  Jobs come from
    ``ctx.waiting_apps()``, in submission order, the order
    :attr:`~repro.env.Observation.ready_jobs` preserves.
    """
    features = ctx.node_features()
    jobs = []
    for app in ctx.waiting_apps():
        spec = ctx.spec_of(app)
        jobs.append(JobCand(name=app.name, input_gb=app.input_gb,
                            unassigned_gb=app.unassigned_gb,
                            cpu_load=spec.cpu_load,
                            active=len(app.active_executors),
                            desired=allocation_policy.desired_executors(
                                app.input_gb)))
    up = features.up
    # Boolean-mask gathers copy, so the decision loop's in-place
    # bookings never touch the version-cached NodeFeatures columns.
    return EpochSnapshot(
        jobs=jobs,
        node_ids=features.node_ids[up],
        ram_gb=features.ram_gb[up],
        free_gb=features.free_gb[up],
        cpu_free=1.0 - features.reserved_cpu[up],
        execs=features.n_active[up].astype(np.int64),
        speed=features.speed[up],
    )


class CandidateRowCache:
    """Per-epoch cache of placement-block feature rows, bit-for-bit.

    :func:`candidate_features` rebuilds the full candidate matrix for
    every sub-decision of the fixed-point loop, although a booking only
    changes *one* node's placement columns.  This cache keeps one
    pre-computed ``N_FEATURES``-wide row per (node, fraction) pair and
    reassembles each sub-decision's matrix by gathering those rows,
    overwriting only the decision-wide block and the two global columns.

    **Row-oracle rule** (the PR 7 ``footprint_batch`` discipline): every
    cached cell is produced by the *same elementwise* float64 expression
    :func:`candidate_features` uses — elementwise IEEE ops round
    identically whether computed for one node or a whole column, unlike
    reductions, whose summation order may differ.  The two cells that
    involve reductions (``cluster_free``'s ``free_gb.sum()`` and
    ``node_free_rank``'s ``free_gb.max()``) are therefore *not* cached:
    they are recomputed per call with the exact original reductions.
    The assembled matrix is bit-identical to the uncached one, and
    :func:`candidate_features` stays in-tree as the oracle the parity
    tests compare against.
    """

    #: Feature columns owned by the cache: the placement block minus the
    #: global ``node_free_rank`` (col 11), which is recomputed per call.
    _CACHED_COLS = (8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19)

    def __init__(self, snapshot: EpochSnapshot,
                 config: FeatureConfig) -> None:
        self.snapshot = snapshot
        self.config = config
        self.fractions = np.asarray(config.fractions, dtype=np.float64)
        n_nodes = snapshot.free_gb.shape[0]
        n_fracs = self.fractions.shape[0]
        self._rows = np.zeros((n_nodes, n_fracs, N_FEATURES),
                              dtype=np.float64)
        self._budgets = np.empty((n_nodes, n_fracs), dtype=np.float64)
        if n_nodes:
            self._refresh(np.arange(n_nodes))

    def _refresh(self, slots: np.ndarray) -> None:
        """Recompute the cached rows of ``slots`` from the snapshot."""
        snap = self.snapshot
        fractions = self.fractions
        ram = snap.ram_gb[slots]
        free = snap.free_gb[slots]
        budgets = free[:, None] * fractions[None, :]
        self._budgets[slots] = budgets
        rows = self._rows
        rows[slots, :, 8] = (ram / 100.0)[:, None]
        rows[slots, :, 9] = (free / 100.0)[:, None]
        rows[slots, :, 10] = (free / np.maximum(ram, 1e-9))[:, None]
        rows[slots, :, 12] = snap.cpu_free[slots, None]
        rows[slots, :, 13] = (snap.execs[slots] / 4.0)[:, None]
        rows[slots, :, 14] = (snap.execs[slots] == 0)[:, None]
        rows[slots, :, 15] = (snap.execs[slots] == 1)[:, None]
        rows[slots, :, 16] = snap.speed[slots, None]
        rows[slots, :, 17] = fractions[None, :]
        rows[slots, :, 18] = budgets / 100.0
        rows[slots, :, 19] = budgets / np.maximum(ram, 1e-9)[:, None]

    def invalidate(self, slot: int) -> None:
        """Mark one node's rows stale after a booking touched it."""
        self._refresh(np.array([slot]))

    def candidate_features(self, job: JobCand,
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble one sub-decision's matrix from the cached rows.

        Same contract (and same bits) as module-level
        :func:`candidate_features` on the cache's snapshot.
        """
        snap, config = self.snapshot, self.config
        node_ok = ((snap.free_gb >= config.min_budget_gb)
                   & (job.cpu_load <= snap.cpu_free + 1e-9))
        ok = node_ok[:, None] & (self._budgets >= config.min_budget_gb)
        slots, fracs = np.nonzero(ok)
        n_cands = slots.shape[0]
        features = np.zeros((1 + n_cands, N_FEATURES), dtype=np.float64)
        if n_cands:
            features[1:] = self._rows[slots, fracs]
            free = snap.free_gb[slots]
            max_free = float(snap.free_gb.max())
            features[1:, 11] = free / max(max_free, 1e-9)
        desired = max(job.desired, 1)
        total_free = float(snap.free_gb.sum())
        features[:, 1] = job.input_gb / 100.0
        features[:, 2] = job.unassigned_gb / max(job.input_gb, 1e-9)
        features[:, 3] = job.cpu_load
        features[:, 4] = job.active / desired
        features[:, 5] = (job.desired - job.active) / desired
        features[:, 6] = len(snap.jobs) / 10.0
        features[:, 7] = total_free / max(snap.total_ram, 1e-9)
        features[0, 0] = 1.0
        cand_slots = np.empty(1 + n_cands, dtype=np.int64)
        cand_slots[0] = -1
        cand_slots[1:] = slots
        cand_fractions = np.empty(1 + n_cands, dtype=np.float64)
        cand_fractions[0] = 0.0
        cand_fractions[1:] = self.fractions[fracs]
        return features, cand_slots, cand_fractions


def candidate_features(snapshot: EpochSnapshot, job: JobCand,
                       config: FeatureConfig,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate matrix for one sub-decision of the placement loop.

    Returns ``(features, cand_slots, cand_fractions)``:

    * ``features`` — ``(K, N_FEATURES)`` float64 matrix; row 0 is always
      the ``skip`` candidate, rows ``1..K-1`` are the admissible
      (node, fraction) placements;
    * ``cand_slots`` — ``(K,)`` int64, the snapshot node-array slot of
      each row (``-1`` for skip);
    * ``cand_fractions`` — ``(K,)`` float64 memory fraction per row
      (``0`` for skip).

    The admission mask mirrors what the simulator will enforce when the
    placement is applied (``Node.can_host`` and the environment's atomic
    batch validation): the node is live, the fractional budget clears
    ``min_budget_gb``, and the job's CPU demand fits the *reserved* CPU
    headroom.  Inadmissible candidates get no row — the featurizer's
    equivalent of ``score_batch`` returning NaN for a node it would
    never use.
    """
    n_nodes = snapshot.free_gb.shape[0]
    fractions = np.asarray(config.fractions, dtype=np.float64)
    n_fracs = fractions.shape[0]
    # Node admissibility (shared across fractions).
    node_ok = ((snapshot.free_gb >= config.min_budget_gb)
               & (job.cpu_load <= snapshot.cpu_free + 1e-9))
    # (node, fraction) budgets; a candidate exists where the budget
    # clears the floor on an admissible node.
    budgets = snapshot.free_gb[:, None] * fractions[None, :]
    ok = node_ok[:, None] & (budgets >= config.min_budget_gb)
    slots, fracs = np.nonzero(ok)
    n_cands = slots.shape[0]

    features = np.zeros((1 + n_cands, N_FEATURES), dtype=np.float64)
    # Decision-wide block, identical on every row.
    desired = max(job.desired, 1)
    total_free = float(snapshot.free_gb.sum())
    features[:, 1] = job.input_gb / 100.0
    features[:, 2] = job.unassigned_gb / max(job.input_gb, 1e-9)
    features[:, 3] = job.cpu_load
    features[:, 4] = job.active / desired
    features[:, 5] = (job.desired - job.active) / desired
    features[:, 6] = len(snapshot.jobs) / 10.0
    features[:, 7] = total_free / max(snapshot.total_ram, 1e-9)
    # Skip row: flag set, placement block stays zero.
    features[0, 0] = 1.0
    if n_cands:
        ram = snapshot.ram_gb[slots]
        free = snapshot.free_gb[slots]
        budget = budgets[slots, fracs]
        max_free = float(snapshot.free_gb.max())
        features[1:, 8] = ram / 100.0
        features[1:, 9] = free / 100.0
        features[1:, 10] = free / np.maximum(ram, 1e-9)
        features[1:, 11] = free / max(max_free, 1e-9)
        features[1:, 12] = snapshot.cpu_free[slots]
        features[1:, 13] = snapshot.execs[slots] / 4.0
        features[1:, 14] = (snapshot.execs[slots] == 0).astype(np.float64)
        features[1:, 15] = (snapshot.execs[slots] == 1).astype(np.float64)
        features[1:, 16] = snapshot.speed[slots]
        features[1:, 17] = fractions[fracs]
        features[1:, 18] = budget / 100.0
        features[1:, 19] = budget / np.maximum(ram, 1e-9)

    cand_slots = np.concatenate(([np.int64(-1)], slots.astype(np.int64)))
    cand_fractions = np.concatenate(([0.0], fractions[fracs]))
    return features, cand_slots, cand_fractions
