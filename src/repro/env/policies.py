"""Scheduling policies for the environment: baselines and the adapter.

Three shipped policies:

* :class:`RandomPolicy` — seeded random valid placements; the sanity
  floor every learned or engineered policy must beat.
* :class:`GreedyPolicy` — deterministic best-fit: every ready job gets
  one executor per wake-point on the node with the most unreserved
  memory that can absorb its CPU demand.
* :class:`PolicyAdapter` — mounts any scheme registered in
  :mod:`repro.scheduling.registry` and delegates every epoch to it
  natively (:meth:`repro.env.Action.native`), reproducing the native
  engine path bit-for-bit.

:func:`make_policy` resolves a policy name the way the CLI and
:meth:`repro.api.Session.rollout` do: ``"random"``, ``"greedy"``, any
registered scheme name, or a ``learned:<checkpoint>`` spec naming a
trained policy-network checkpoint to serve through
:class:`repro.env.train.LearnedPolicy`.
"""

from __future__ import annotations

import numpy as np

from repro.env.actions import Action, Placement
from repro.env.observations import Observation
from repro.scheduling.registry import (
    UnknownSchemeError,
    is_registered,
    scheme_names,
)

__all__ = ["Policy", "RandomPolicy", "GreedyPolicy", "PolicyAdapter",
           "POLICY_BASELINES", "make_policy"]

#: Names of the built-in (scheme-free) baseline policies.
POLICY_BASELINES: tuple[str, ...] = ("random", "greedy")


class Policy:
    """Base class of environment policies.

    ``act`` maps an observation to an :class:`~repro.env.Action`;
    ``reset`` re-seeds per-episode state; ``make_scheduler`` lets a
    policy install a native :class:`~repro.scheduling.base.Scheduler`
    into the simulator's mechanism-hook slot (profiling delays, live
    executor caps) — baselines return ``None`` and get the default
    hook scheduler.  ``obs_mode`` declares the observation ``act``
    reads (see :class:`~repro.env.SchedulingEnv`); :func:`repro.env.rollout`
    builds the environment with it.
    """

    name = "policy"
    obs_mode = "dataclass"

    def reset(self, seed: int) -> None:
        """Reset per-episode state (e.g. reseed the generator)."""

    def make_scheduler(self, allocation_policy):
        """Native scheduler to install, or ``None`` for the default."""
        return None

    def act(self, observation: Observation) -> Action:
        """Choose this epoch's action."""
        raise NotImplementedError


class RandomPolicy(Policy):
    """Seeded random valid placements.

    At every wake-point each ready job receives, with probability
    ``place_probability``, one executor on a uniformly drawn live node
    that can host it; the memory budget is drawn uniformly between
    ``min_memory_gb`` and the node's remaining unreserved memory, and
    the executor takes one gigabyte of input per gigabyte of heap.  The
    head-of-queue job is always attempted so an episode cannot stall.
    Placements are always valid at decision time (the draw respects the
    capacity earlier placements of the same batch consume).
    """

    name = "random"

    def __init__(self, seed: int | None = None, place_probability: float = 0.5,
                 min_memory_gb: float = 4.0) -> None:
        if not 0.0 < place_probability <= 1.0:
            raise ValueError("place_probability must be in (0, 1]")
        self.place_probability = place_probability
        self.min_memory_gb = min_memory_gb
        self._rng = np.random.default_rng(seed)

    def reset(self, seed: int) -> None:
        """Re-seed the generator; idempotent per seed.

        Calling ``reset(s)`` any number of times always leaves the
        policy in the same state: the subsequent action stream depends
        only on ``s``, never on how often (or with what) the policy was
        reset or acted before.  :func:`repro.env.rollout` relies on this
        to make episodes reproducible when one policy object is reused.
        """
        self._rng = np.random.default_rng(seed)

    def act(self, observation: Observation) -> Action:
        rng = self._rng
        free = {n.node_id: n.free_memory_gb for n in observation.up_nodes}
        headroom = {n.node_id: n.cpu_headroom for n in observation.up_nodes}
        placements = []
        for index, job in enumerate(observation.ready_jobs):
            if index > 0 and rng.random() > self.place_probability:
                continue
            hosts = [node_id for node_id in free
                     if free[node_id] >= self.min_memory_gb
                     and headroom[node_id] >= job.cpu_load]
            if not hosts:
                continue
            node_id = hosts[int(rng.integers(len(hosts)))]
            budget = float(rng.uniform(self.min_memory_gb, free[node_id]))
            data = min(job.unassigned_gb, budget)
            placements.append(Placement(app=job.name, node_id=node_id,
                                        memory_gb=budget, data_gb=data))
            free[node_id] -= budget
            headroom[node_id] -= job.cpu_load
        return Action(tuple(placements))


class GreedyPolicy(Policy):
    """Deterministic best-fit baseline.

    Every ready job gets one executor per wake-point on the live node
    with the most unreserved memory that can absorb the job's CPU
    demand; the executor reserves everything the node has left and takes
    as much input as the reservation covers.  Greedy saturates memory
    quickly and serves as the engineered (non-random) baseline.
    """

    name = "greedy"

    def __init__(self, min_memory_gb: float = 2.0) -> None:
        self.min_memory_gb = min_memory_gb

    def reset(self, seed: int) -> None:
        """No-op — Greedy is stateless, so reset is trivially idempotent.

        Kept explicit (rather than inheriting the base no-op) so the
        idempotency contract shared with :meth:`RandomPolicy.reset` is
        documented and tested in one obvious place.
        """

    def act(self, observation: Observation) -> Action:
        free = {n.node_id: n.free_memory_gb for n in observation.up_nodes}
        headroom = {n.node_id: n.cpu_headroom for n in observation.up_nodes}
        placements = []
        for job in observation.ready_jobs:
            hosts = [node_id for node_id in free
                     if free[node_id] >= self.min_memory_gb
                     and headroom[node_id] >= job.cpu_load]
            if not hosts:
                continue
            node_id = max(hosts, key=lambda nid: (free[nid], -nid))
            budget = free[node_id]
            data = min(job.unassigned_gb, budget)
            placements.append(Placement(app=job.name, node_id=node_id,
                                        memory_gb=budget, data_gb=data))
            free[node_id] -= budget
            headroom[node_id] -= job.cpu_load
        return Action(tuple(placements))


class PolicyAdapter(Policy):
    """Run a registered scheduling scheme through the environment.

    The adapter builds the scheme's scheduler exactly as the experiment
    session layer does — same registry builder, same topology-derived
    allocation policy — installs it as the simulator's mechanism-hook
    scheduler (so profiling delays, requested wake-ups and
    cluster-change reactions are identical), and answers every
    wake-point with :meth:`Action.native`, which invokes the scheme's
    own ``schedule()`` against the live context.  Driving an episode
    with an adapter therefore reproduces the native engine path
    bit-for-bit: same placements, same event stream, same metrics.

    Parameters
    ----------
    scheme:
        A scheme name registered in :mod:`repro.scheduling.registry`.
    suite:
        Trained-artefact provider (:class:`repro.api.SchedulerSuite`);
        a fresh lazily trained suite when omitted.  Pass a session's
        suite to reuse cached artefacts.

    The mounted scheme reads the live context, never the observation,
    so the adapter takes the cheaper ``"features"`` one.
    """

    obs_mode = "features"

    def __init__(self, scheme: str, suite=None) -> None:
        if not is_registered(scheme):
            raise UnknownSchemeError([scheme], scheme_names())
        self.scheme = scheme
        self.name = scheme
        if suite is None:
            from repro.api.suite import SchedulerSuite

            suite = SchedulerSuite()
        self._suite = suite
        self._scheduler = None

    def reset(self, seed: int) -> None:
        self._scheduler = None

    def make_scheduler(self, allocation_policy):
        """Build (and remember) a fresh native scheduler for this episode."""
        factory = self._suite.factory(self.scheme,
                                      allocation_policy=allocation_policy)
        self._scheduler = factory()
        return self._scheduler

    def act(self, observation: Observation) -> Action:
        if self._scheduler is None:
            raise RuntimeError(
                "PolicyAdapter has no scheduler for this episode; drive it "
                "through repro.env.rollout()/Session.rollout() (or pass "
                "make_scheduler to env.reset) so the native scheme is "
                "mounted")
        return Action.native(self._scheduler)


def make_policy(name: str, suite=None, seed: int | None = None) -> Policy:
    """Resolve a policy name: a baseline, a scheme, or a checkpoint spec.

    ``"random"`` and ``"greedy"`` build the baselines; a
    ``learned:<checkpoint>`` spec serves the named policy-network
    checkpoint through :class:`repro.env.train.LearnedPolicy`
    (deterministic greedy actions, the same decisions the native
    ``learned`` scheme makes); every other name must be a registered
    scheduling scheme and yields a :class:`PolicyAdapter` over it.
    Unknown names raise
    :class:`~repro.scheduling.registry.UnknownSchemeError` listing both
    the baselines and the registered schemes.
    """
    if name == "random":
        return RandomPolicy(seed=seed)
    if name == "greedy":
        return GreedyPolicy()
    if name.startswith("learned:"):
        from repro.env.train.scheme import LearnedPolicy

        checkpoint = name.split(":", 1)[1]
        if not checkpoint:
            raise ValueError("empty checkpoint path in policy spec "
                             f"{name!r}; use learned:<path.npz>")
        return LearnedPolicy(checkpoint=checkpoint)
    if is_registered(name):
        return PolicyAdapter(name, suite=suite)
    raise UnknownSchemeError([name], POLICY_BASELINES + scheme_names())
