"""Serving a trained policy: the ``learned`` scheme and env policy.

This module is the PolicyAdapter bridge run in reverse.  PR 5's
:class:`~repro.env.PolicyAdapter` mounts a *native* scheme inside the
environment; here a policy born in the environment is mounted inside the
*native* engines:

* :func:`decide_epoch` — the single pure decision loop.  Given an
  :class:`~repro.env.train.features.EpochSnapshot` it walks the ready
  jobs in submission order and, per job, autoregressively picks
  ``skip``-or-(node, memory-fraction) candidates from the policy network
  until the job is saturated, booking every placement into the local
  snapshot exactly as the simulator's reservation accounting will.
* :class:`LearnedScheduler` — a native
  :class:`~repro.scheduling.base.Scheduler` whose ``schedule()`` builds
  the snapshot from the live context and applies ``decide_epoch``'s
  placements.  The snapshot build is array-backed
  (``snapshot_from_state`` gathers the ``NodeFeatures`` columns), and
  its features are reservation-side and time-free, so fixed/event
  engine trajectories are bit-identical.
* :class:`LearnedPolicy` — the environment-side twin, used for training
  rollouts (sampling) and ``env-rollout --policy learned[:ckpt]``.  It
  declares the array-backed observation, whose snapshot the environment
  builds with the same ``snapshot_from_state``; given a typed
  Observation instead, ``act`` derives the snapshot from its views.
  Because both snapshot constructors read the same reservation-side
  accessors and both callers run the same ``decide_epoch``, the env
  path reproduces the native path placement-for-placement.

Checkpoints resolve in order: an explicit path, the
``REPRO_LEARNED_CHECKPOINT`` environment variable, then the committed
package default.  Loaded models are cached process-wide keyed by
``(path, mtime, size)`` — the same artefact-cache idea
:class:`repro.api.Session` applies to trained datasets/MoE, extended to
checkpoints, so grids re-use one model across cells and episodes.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.env.actions import Action, Placement
from repro.env.policies import Policy
from repro.scheduling.base import Scheduler

from .features import (
    CandidateRowCache,
    EpochSnapshot,
    snapshot_from_observation,
    snapshot_from_state,
)
from .model import PolicyNetwork

__all__ = ["CHECKPOINT_ENV_VAR", "DEFAULT_CHECKPOINT", "resolve_checkpoint",
           "load_policy_model", "clear_model_cache", "decide_epoch",
           "LearnedScheduler", "LearnedPolicy", "build_learned_scheduler"]

#: Environment variable overriding the default checkpoint path.
CHECKPOINT_ENV_VAR = "REPRO_LEARNED_CHECKPOINT"

#: The committed default checkpoint served by the ``learned`` scheme.
DEFAULT_CHECKPOINT = Path(__file__).parent / "checkpoints" / "default.npz"

#: Process-wide model cache keyed by (resolved path, mtime_ns, size).
_MODEL_CACHE: dict[tuple[str, int, int], PolicyNetwork] = {}


def resolve_checkpoint(path: str | Path | None = None) -> Path:
    """Resolve which checkpoint the ``learned`` scheme should serve."""
    if path is not None:
        return Path(path)
    override = os.environ.get(CHECKPOINT_ENV_VAR)
    if override:
        return Path(override)
    return DEFAULT_CHECKPOINT


def load_policy_model(path: str | Path | None = None) -> PolicyNetwork:
    """Load (and cache) the policy network behind a checkpoint path.

    The cache key includes the file's mtime and size, so overwriting a
    checkpoint in place — as iterative training does — is picked up on
    the next load while repeat loads of an unchanged file stay free.
    """
    resolved = resolve_checkpoint(path)
    try:
        stat = resolved.stat()
    except FileNotFoundError:
        raise FileNotFoundError(
            f"learned-scheme checkpoint not found: {resolved} (train one "
            "with `python -m repro env-train`, pass learned:<path>, or set "
            f"${CHECKPOINT_ENV_VAR})") from None
    key = (str(resolved.resolve()), stat.st_mtime_ns, stat.st_size)
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = PolicyNetwork.load(resolved)
        _MODEL_CACHE[key] = model
    return model


def clear_model_cache() -> None:
    """Drop every cached checkpoint model (tests, long-lived sessions)."""
    _MODEL_CACHE.clear()


def decide_epoch(snapshot: EpochSnapshot, model: PolicyNetwork,
                 allocation_policy, *, rng: np.random.Generator | None = None,
                 trace: list | None = None,
                 ) -> list[tuple[str, int, float, float]]:
    """Run the policy over one epoch snapshot; return its placements.

    Walks ready jobs in submission order.  For each job the policy picks
    candidates autoregressively — sampled through ``rng`` during
    training, greedy argmax when ``rng`` is ``None`` (evaluation and the
    native scheme) — until it picks ``skip``, the job reaches its
    dynamic-allocation executor target, or its input is fully assigned.
    Chosen placements are booked into the snapshot immediately, so later
    sub-decisions see the epoch's own reservations, mirroring what the
    simulator will enforce when the batch is applied.

    The whole walk repeats until one full pass places nothing, so the
    epoch's decision is a **fixed point**: re-running ``decide_epoch``
    on the post-decision state yields no further placements.  That is
    the property engine equality rests on — the fixed-step engine
    revisits unchanged states at epochs where the event engine does not
    wake, and a non-quiescent decision there would fork the two
    trajectories.

    Returns ``(app_name, node_id, memory_gb, data_gb)`` tuples.  When
    ``trace`` is a list, every sub-decision appends
    ``(features, choice)`` for the learner's backward pass; forced
    decisions (only ``skip`` admissible) carry no gradient and are not
    recorded.

    **Progress guarantee**: if the policy places nothing at all in an
    epoch while some ready job has zero executors and an admissible
    node exists, one fallback executor is placed for the first such job
    (most-free node, half its free memory — Pairwise's first-executor
    convention).  This keeps episodes finite under an untrained or
    degenerate policy; the fallback is a pure function of the snapshot
    and runs in both serving paths, so env/native and engine parity
    are unaffected, and it is never recorded in the trace (it is
    not a sample from the policy distribution).

    Candidate feature rows are reused across the fixed-point passes
    through a :class:`~repro.env.train.features.CandidateRowCache`,
    refreshing only the node a booking touched; its matrices equal
    :func:`~repro.env.train.features.candidate_features`'s full rebuild
    bit for bit (pinned by a hypothesis test).
    """
    placements: list[tuple[str, int, float, float]] = []
    config = model.feature_config
    cache = CandidateRowCache(snapshot, config)
    while True:
        placed_in_pass = False
        for job in snapshot.jobs:
            while job.active < job.desired and job.unassigned_gb > 1e-6:
                features, slots, fracs = cache.candidate_features(job)
                if features.shape[0] == 1:
                    break  # no admissible placement; skip is forced
                if rng is None:
                    choice = model.argmax_action(features)
                else:
                    choice = model.sample_action(features, rng)
                if trace is not None:
                    trace.append((features, choice))
                if choice == 0:
                    break
                slot = int(slots[choice])
                budget = float(fracs[choice] * snapshot.free_gb[slot])
                data = min(allocation_policy.default_split_gb(job.input_gb),
                           job.unassigned_gb)
                placements.append((job.name, int(snapshot.node_ids[slot]),
                                   budget, data))
                snapshot.book(slot, budget, job.cpu_load)
                cache.invalidate(slot)
                job.unassigned_gb -= data
                job.active += 1
                placed_in_pass = True
        if not placed_in_pass:
            fallback = _anti_starvation_placement(snapshot,
                                                  allocation_policy, config)
            if fallback is None:
                break
            placements.append(fallback)
            # The fallback booked a node without reporting its slot;
            # fallbacks are rare (untrained/degenerate policies), so a
            # full cache rebuild is the simple bit-safe refresh.
            cache = CandidateRowCache(snapshot, config)
            # A fallback changes the state; run another pass so the
            # decision stays a fixed point of the final state.
    return placements


def _anti_starvation_placement(snapshot: EpochSnapshot, allocation_policy,
                               config) -> tuple[str, int, float, float] | None:
    """One forced first executor for the first starved ready job, if any."""
    for job in snapshot.jobs:
        if job.active > 0 or job.unassigned_gb <= 1e-6:
            continue
        admissible = ((snapshot.free_gb >= config.min_budget_gb)
                      & (job.cpu_load <= snapshot.cpu_free + 1e-9))
        if not admissible.any():
            continue
        slot = int(np.argmax(np.where(admissible, snapshot.free_gb, -np.inf)))
        budget = max(config.min_budget_gb, 0.5 * snapshot.free_gb[slot])
        data = min(allocation_policy.default_split_gb(job.input_gb),
                   job.unassigned_gb)
        snapshot.book(slot, budget, job.cpu_load)
        job.unassigned_gb -= data
        job.active += 1
        return (job.name, int(snapshot.node_ids[slot]), budget, data)
    return None


class LearnedScheduler(Scheduler):
    """Native scheduler serving a trained policy network.

    Prediction-free (no profiling cost, like ``oracle``'s admission
    path): ``on_submit`` keeps the base zero-delay behaviour, and
    ``on_cluster_change`` keeps the base re-derivation of the
    dynamic-allocation cap, which the decision loop reads live through
    ``allocation_policy``.
    """

    def __init__(self, model: PolicyNetwork, *, allocation_policy) -> None:
        if allocation_policy is None:
            raise ValueError("LearnedScheduler needs an allocation policy")
        self.model = model
        self.allocation_policy = allocation_policy

    def schedule(self, ctx) -> None:
        apps = {app.name: app for app in ctx.waiting_apps()}
        if not apps:
            return
        snapshot = snapshot_from_state(ctx, self.allocation_policy)
        if snapshot.free_gb.shape[0] == 0:
            return
        for name, node_id, memory_gb, data_gb in decide_epoch(
                snapshot, self.model, self.allocation_policy):
            ctx.spawn_executor(apps[name], node_id, memory_gb, data_gb)


class LearnedPolicy(Policy):
    """Environment-side policy over the same network and decision loop.

    Deterministic (greedy argmax) unless a ``sample_rng`` is installed —
    training workers install one per episode and set ``record_trace`` to
    collect the learner's ``(features, choice)`` pairs in
    :attr:`trace`.  ``make_scheduler`` mounts a
    :class:`LearnedScheduler` as the simulator's mechanism hook, so
    profiling delays (none) and live executor-cap re-derivation under
    churn match the native path exactly; ``act`` reads the hook's
    ``allocation_policy`` each epoch for the same reason.
    """

    name = "learned"
    obs_mode = "features"

    def __init__(self, checkpoint: str | Path | None = None, *,
                 model: PolicyNetwork | None = None,
                 sample_rng: np.random.Generator | None = None,
                 record_trace: bool = False) -> None:
        self.model = model if model is not None else load_policy_model(
            checkpoint)
        self.sample_rng = sample_rng
        self.record_trace = record_trace
        #: Per-episode (features, choice) pairs when ``record_trace``;
        #: grouped per step by :attr:`step_marks` (decision count after
        #: each ``act``).
        self.trace: list[tuple[np.ndarray, int]] = []
        self.step_marks: list[int] = []
        self._scheduler: LearnedScheduler | None = None

    def reset(self, seed: int) -> None:
        self.trace = []
        self.step_marks = []
        self._scheduler = None

    def make_scheduler(self, allocation_policy):
        self._scheduler = LearnedScheduler(
            self.model, allocation_policy=allocation_policy)
        return self._scheduler

    def act(self, observation) -> Action:
        if self._scheduler is None:
            raise RuntimeError(
                "LearnedPolicy has no mounted scheduler for this episode; "
                "drive it through repro.env.rollout()/Session.rollout() so "
                "make_scheduler() is called at reset")
        allocation_policy = self._scheduler.allocation_policy
        snapshot = getattr(observation, "snapshot", None)
        if snapshot is None:
            # Dataclass observation (a caller driving the environment
            # with typed views): derive the snapshot from them.  The
            # declared feature observation already carries it.
            snapshot = snapshot_from_observation(observation,
                                                 allocation_policy)
        trace = self.trace if self.record_trace else None
        placements = decide_epoch(snapshot, self.model, allocation_policy,
                                  rng=self.sample_rng, trace=trace)
        if self.record_trace:
            self.step_marks.append(len(self.trace))
        return Action(tuple(
            Placement(app=name, node_id=node_id, memory_gb=memory_gb,
                      data_gb=data_gb)
            for name, node_id, memory_gb, data_gb in placements))


def build_learned_scheduler(artefacts, *, checkpoint: str | Path | None = None,
                            allocation_policy=None, **kwargs,
                            ) -> LearnedScheduler:
    """Registry builder behind ``@register_scheme("learned")``.

    ``artefacts`` (the suite) is unused — the scheme's artefact is its
    checkpoint, resolved via :func:`resolve_checkpoint` and served from
    the process-wide model cache.
    """
    model = load_policy_model(checkpoint)
    return LearnedScheduler(model, allocation_policy=allocation_policy,
                            **kwargs)
