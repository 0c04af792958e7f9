"""Scheduler scheme plugin registry.

The experiment layer refers to scheduling policies by *scheme name*
(``"pairwise"``, ``"ours"``, ...).  Historically those names were a
hardcoded tuple plus an if/else ladder inside the experiment runner, so
adding a policy meant editing core experiment code.  This module turns the
mapping into an open registry in the adaptable-middleware spirit of
policy-free cores with externally registered policies: a scheme is a
*builder* registered under a name, optionally declaring which offline
trained artefact it needs, and anything — including code living entirely
outside ``repro`` — can register one::

    from repro.scheduling import MemoryAwareCoLocationScheduler, OracleEstimator
    from repro.scheduling.registry import register_scheme

    @register_scheme("cautious_oracle")
    def build_cautious_oracle(artefacts, **kwargs):
        return MemoryAwareCoLocationScheduler(OracleEstimator(),
                                              safety_margin=1.3, **kwargs)

A builder receives an *artefacts* provider — any object exposing lazily
trained ``.dataset`` (:class:`~repro.core.training.TrainingDataset`) and
``.moe`` (:class:`~repro.core.moe.MixtureOfExperts`) attributes, in
practice a :class:`repro.api.SchedulerSuite` — plus scheduler keyword
arguments (the scenario runner passes ``allocation_policy``), and returns
a fresh scheduler instance.  Declaring ``requires="dataset"`` or
``requires="moe"`` lets the session layer train (or cache-load) exactly
the artefacts a plan needs before fanning out to worker processes.

All of the paper's schemes are registered here at import time, in the
order the old ``KNOWN_SCHEMES`` tuple listed them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.scheduling.base import Scheduler
from repro.scheduling.factories import (
    make_moe_scheduler,
    make_oracle_scheduler,
    make_quasar_scheduler,
    make_unified_scheduler,
)
from repro.scheduling.isolated import IsolatedScheduler
from repro.scheduling.online_search import OnlineSearchScheduler
from repro.scheduling.pairwise import PairwiseScheduler

__all__ = [
    "ARTEFACT_KINDS",
    "SchemeInfo",
    "UnknownSchemeError",
    "register_scheme",
    "unregister_scheme",
    "scheme_names",
    "scheme_info",
    "is_registered",
    "validate_schemes",
    "required_artefacts",
    "build_scheduler",
    "registry_snapshot",
    "merge_registry",
]

#: Trained artefacts a scheme may declare through ``requires=``.
ARTEFACT_KINDS: tuple[str, ...] = ("dataset", "moe")


@dataclass(frozen=True)
class SchemeInfo:
    """One registered scheme: its name, builder, and training needs.

    Parameters
    ----------
    name:
        The public scheme name used by plans, the CLI and result rows.
    builder:
        ``builder(artefacts, **scheduler_kwargs) -> Scheduler``; called
        once per simulated grid cell, so it must return a *fresh*
        scheduler every time.
    requires:
        ``"dataset"``, ``"moe"`` or ``None`` — the offline trained
        artefact the builder reads from ``artefacts``, if any.
    """

    name: str
    builder: Callable[..., Scheduler]
    requires: str | None = None


class UnknownSchemeError(KeyError):
    """One or more scheme names are not in the registry.

    Subclasses :class:`KeyError` so pre-registry callers that caught the
    old lookup failure keep working; the message always lists the
    registered names so a typo is a one-glance fix.
    """

    def __init__(self, unknown: Iterable[str],
                 registered: Iterable[str]) -> None:
        self.unknown = tuple(unknown)
        self.registered = tuple(registered)
        message = (f"unknown schemes: {', '.join(self.unknown)} "
                   f"(registered: {', '.join(self.registered)})")
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


#: The registry itself; insertion order is the public listing order.
_REGISTRY: dict[str, SchemeInfo] = {}


def register_scheme(name: str, requires: str | None = None, *,
                    replace: bool = False):
    """Decorator registering a scheme builder under ``name``.

    Parameters
    ----------
    name:
        Scheme name; must not collide with an existing registration
        unless ``replace=True``.
    requires:
        Trained artefact the builder needs (``"dataset"`` / ``"moe"``),
        or ``None`` for prediction-free schemes.
    replace:
        Allow overwriting an existing registration (useful for tests and
        for deliberately shadowing a built-in policy).
    """
    if not name or not isinstance(name, str):
        raise ValueError("a scheme needs a non-empty string name")
    if requires is not None and requires not in ARTEFACT_KINDS:
        raise ValueError(f"requires must be one of {ARTEFACT_KINDS} or None, "
                         f"not {requires!r}")

    def decorator(builder: Callable[..., Scheduler]):
        if name in _REGISTRY and not replace:
            raise ValueError(f"scheme {name!r} is already registered "
                             "(pass replace=True to shadow it)")
        _REGISTRY[name] = SchemeInfo(name=name, builder=builder,
                                     requires=requires)
        return builder

    return decorator


def unregister_scheme(name: str) -> SchemeInfo:
    """Remove a scheme from the registry, returning its info."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownSchemeError([name], scheme_names()) from None


def scheme_names() -> tuple[str, ...]:
    """Every registered scheme name, in registration order."""
    return tuple(_REGISTRY)


def is_registered(name: str) -> bool:
    """Whether a scheme name is registered."""
    return name in _REGISTRY


def scheme_info(name: str) -> SchemeInfo:
    """The registration record of one scheme."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSchemeError([name], scheme_names()) from None


def validate_schemes(schemes: Iterable[str]) -> None:
    """Raise :class:`UnknownSchemeError` naming every unknown scheme."""
    unknown = [s for s in schemes if s not in _REGISTRY]
    if unknown:
        raise UnknownSchemeError(unknown, scheme_names())


def required_artefacts(schemes: Iterable[str]) -> frozenset[str]:
    """The trained-artefact kinds the given schemes collectively need.

    Unknown names are ignored here — validation is a separate, eager
    concern (:func:`validate_schemes`); this helper only answers the
    training question for names that are registered.
    """
    return frozenset(
        info.requires
        for scheme in schemes
        if (info := _REGISTRY.get(scheme)) is not None and info.requires
    )


def build_scheduler(name: str, artefacts, **scheduler_kwargs) -> Scheduler:
    """Build a fresh scheduler instance for one registered scheme."""
    return scheme_info(name).builder(artefacts, **scheduler_kwargs)


def registry_snapshot(picklable_only: bool = False) -> dict[str, SchemeInfo]:
    """A copy of the current registrations, e.g. to ship to workers.

    With ``picklable_only=True``, entries whose builder cannot be pickled
    (a closure defined in a REPL, say) are left out: under a ``fork``
    start method workers inherit them anyway, and under ``spawn`` they
    could never have travelled in the first place.  Module-level builders
    — the normal plugin shape — always ship.
    """
    if not picklable_only:
        return dict(_REGISTRY)
    import pickle

    snapshot = {}
    for name, info in _REGISTRY.items():
        try:
            pickle.dumps(info)
        except (pickle.PicklingError, AttributeError, TypeError):
            continue
        snapshot[name] = info
    return snapshot


def merge_registry(snapshot: dict[str, SchemeInfo]) -> None:
    """Adopt registrations absent from this process's registry.

    Used by worker-process initialisers: under a ``spawn`` start method a
    worker only has the import-time builtins, so runtime-registered
    plugin schemes are replayed from the parent's snapshot.  Existing
    local registrations win.
    """
    for name, info in snapshot.items():
        _REGISTRY.setdefault(name, info)


# ----------------------------------------------------------------------
# Built-in schemes (Section 5.4 comparison set), registered in the order
# the pre-registry KNOWN_SCHEMES tuple listed them.
# ----------------------------------------------------------------------

@register_scheme("isolated")
def _build_isolated(artefacts, **kwargs) -> Scheduler:
    """The one-by-one exclusive-cluster baseline."""
    return IsolatedScheduler(**kwargs)


@register_scheme("pairwise")
def _build_pairwise(artefacts, **kwargs) -> Scheduler:
    """At most two applications per node, newcomer gets the free memory."""
    return PairwiseScheduler(**kwargs)


@register_scheme("online_search")
def _build_online_search(artefacts, **kwargs) -> Scheduler:
    """Runtime gradient-descent allocation search (Section 6.5)."""
    return OnlineSearchScheduler(**kwargs)


@register_scheme("quasar", requires="dataset")
def _build_quasar(artefacts, **kwargs) -> Scheduler:
    """Quasar-like classification-based co-location."""
    return make_quasar_scheduler(dataset=artefacts.dataset, **kwargs)


@register_scheme("ours", requires="moe")
def _build_ours(artefacts, **kwargs) -> Scheduler:
    """The paper's mixture-of-experts memory-aware co-location."""
    return make_moe_scheduler(moe=artefacts.moe, **kwargs)


@register_scheme("oracle")
def _build_oracle(artefacts, **kwargs) -> Scheduler:
    """Ground-truth footprints, no profiling cost."""
    return make_oracle_scheduler(**kwargs)


@register_scheme("learned")
def _build_learned(artefacts, **kwargs) -> Scheduler:
    """Trained numpy policy network served natively (PR 5 gym, reversed).

    The artefact is a checkpoint, not a dataset/MoE: resolution order is
    an explicit ``checkpoint=`` kwarg, ``$REPRO_LEARNED_CHECKPOINT``,
    then the committed package default.  The import is deferred so the
    scheduling registry never drags the environment layer in unless the
    scheme is actually built (the env layer imports this module).
    """
    from repro.env.train.scheme import build_learned_scheduler

    return build_learned_scheduler(artefacts, **kwargs)


@register_scheme("meta", requires="moe")
def _build_meta(artefacts, **kwargs) -> Scheduler:
    """Context-aware meta-policy: hot-swaps inner schemes from telemetry.

    Defaults to wrapping ``pairwise`` (primary) and the paper's ``ours``
    (fallback) — hence ``requires="moe"`` for the default fallback's
    estimator; pass ``schemes=(...)`` to wrap others (the caller then
    owns providing whatever artefacts those inners need).  The import is
    deferred like ``learned``'s: the wrapped set may pull in the
    environment layer, which imports this module.
    """
    from repro.scheduling.meta import build_meta_scheduler

    return build_meta_scheduler(artefacts, **kwargs)


@register_scheme("unified_ann", requires="dataset")
def _build_unified_ann(artefacts, **kwargs) -> Scheduler:
    """Unified neural-network regressor baseline (Figure 9)."""
    return make_unified_scheduler("ann", dataset=artefacts.dataset, **kwargs)


def _build_unified_family(artefacts, *, family: str, **kwargs) -> Scheduler:
    """Fixed-family unified baseline (Figure 9); ``family`` pre-bound."""
    return make_unified_scheduler(family, **kwargs)


for _family in ("power_law", "exponential", "napierian_log"):
    # functools.partial of a module-level function stays picklable, so
    # these registrations ship to spawn-start workers like any plugin.
    register_scheme(f"unified_{_family}")(
        functools.partial(_build_unified_family, family=_family))
del _family
