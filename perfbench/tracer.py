"""Spans and counts recorded from outside the program.

The traced run installs timing wrappers around the public functions of
each ``repro`` layer (see :data:`SPANNED` and :data:`COUNTED`), keeps every
span in memory, and removes the wrappers again when it is done.  Nothing
under ``src/`` is edited: the wrappers are attribute swaps on the classes
and modules, undone by :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent, run_id)`` with ``parent`` the
index of the enclosing span (``-1`` at the root).  A layer's *self time*
is its spans' duration minus the part of it that child spans cover; the
time no layer claims is reported as ``other``.

The always-on :class:`EventProbe` is separate from the tracer: it
subscribes to each simulation's public event bus (through
``ClusterSimulator.start``) and records event counts and per-job finish
times, which the output digests and the throughput metrics need in the
untraced run too.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

#: (module, owner, attribute, span name) of every timed wrapper.  Owner
#: ``None`` means a module-level function, swapped in every ``repro``
#: module that imported it by name.
SPANNED = (
    ("repro.core.training", None, "collect_training_data",
     "core.collect_training_data"),
    ("repro.core.moe", "MixtureOfExperts", "from_dataset", "core.moe_fit"),
    ("repro.ml.mlp", "MLPRegressor", "fit", "ml.ann_fit"),
    ("repro.scenarios.spec", "ScenarioSpec", "make_mixes",
     "scenarios.make_mixes"),
    ("repro.scenarios.spec", "ScenarioSpec", "build_cluster",
     "scenarios.build_cluster"),
    ("repro.metrics.throughput", "StreamingScheduleMetrics", "evaluate",
     "metrics.evaluate"),
    ("repro.cluster.simulator", "ClusterSimulator", "run", "cluster.run"),
    ("repro.cluster.simulator", "ClusterSimulator", "process_arrivals",
     "cluster.arrivals"),
    ("repro.cluster.simulator", "ClusterSimulator", "apply_faults",
     "cluster.faults"),
    ("repro.cluster.engine", "_EngineBase", "rerun_oom_data_in_isolation",
     "cluster.oom"),
    ("repro.cluster.engine", "FixedStepEngine", "_advance_epoch",
     "cluster.advance"),
    ("repro.cluster.engine", "EventDrivenEngine", "_advance_epoch",
     "cluster.advance"),
    ("repro.cluster.engine", "_EngineBase", "finalize_completed_apps",
     "cluster.advance"),
    ("repro.cluster.simulator", "SchedulingContext", "waiting_apps",
     "scheduling.waiting_apps"),
    ("repro.cluster.simulator", "NodeFeatures", "__init__",
     "scheduling.node_features"),
    ("repro.cluster.simulator", "SchedulingContext", "spawn_executor",
     "scheduling.spawn"),
    ("repro.env.environment", "SchedulingEnv", "reset", "env.reset"),
    ("repro.env.environment", "SchedulingEnv", "step", "env.step"),
    ("repro.env.train.workers", "EpisodeCollector", "collect",
     "train.collect"),
    ("repro.env.train.learner", "ReinforceLearner", "_update",
     "train.update"),
    ("repro.env.train.learner", "ReinforceLearner", "evaluate",
     "train.eval"),
)

#: Every class in these hierarchies that defines the method gets a span:
#: (module, base class, method, span name).
SPANNED_HIERARCHIES = (
    ("repro.scheduling.base", "Scheduler", "schedule", "scheduling.schedule"),
    ("repro.scheduling.estimators", "MemoryEstimator", "prepare",
     "scheduling.prepare"),
    ("repro.scheduling.estimators", "MemoryEstimator", "footprint_batch",
     "scheduling.footprint_batch"),
)

#: Hot properties wrapped for a call count only, never a span: a span
#: per call would cost more than the call.
COUNTED = (
    ("repro.spark.application", "SparkApplication", "remaining_gb",
     "spark.app_remaining_gb_calls"),
    ("repro.spark.executor", "Executor", "remaining_gb",
     "spark.executor_remaining_gb_calls"),
)

#: Layers whose self time is reported, in report order.  Spans are
#: assigned to a layer by the prefix of their name before the first dot.
LAYERS = ("import", "core", "ml", "scenarios", "api", "metrics", "cluster",
          "scheduling", "spark", "env", "train")


def _resolve(module: str, owner: str | None):
    mod = sys.modules.get(module)
    if mod is None:
        __import__(module)
        mod = sys.modules[module]
    return mod if owner is None else getattr(mod, owner)


def _subclasses(cls) -> list:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found


class Tracer:
    """In-memory span and count recorder with installable wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Extra per-span values (rows, spawns) keyed by span index.
        self.values: dict[int, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._names: list[str] = []
        self._swaps: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span and return its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent,
                           self.run_id))
        self._stack.append(index)
        self._names.append(name)
        return index

    def end(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        end = time.perf_counter()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans closed out of order")
        self._stack.pop()
        self._names.pop()
        name, start, _, parent, run_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, run_id)

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        return bool(self._names) and self._names[-1] == name

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap the wrappers in; :meth:`uninstall` swaps the originals back."""
        if self._swaps:
            raise RuntimeError("wrappers already installed")
        for module, owner, attr, name in SPANNED:
            target = _resolve(module, owner)
            if owner is None:
                self._swap_function(target, attr, name)
            else:
                self._swap_method(target, attr, name)
        for module, base, attr, name in SPANNED_HIERARCHIES:
            for cls in _subclasses(_resolve(module, base)):
                if attr in vars(cls):
                    self._swap_method(cls, attr, name)
        for module, owner, attr, name in COUNTED:
            cls = _resolve(module, owner)
            original = vars(cls)[attr]
            self._set(cls, attr, original, property(
                _counting(self.counts, name, original.fget)))

    def uninstall(self) -> None:
        """Restore every swapped attribute (idempotent)."""
        while self._swaps:
            owner, attr, original = self._swaps.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._swaps.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _swap_method(self, cls, attr: str, name: str) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(_timed(self, name, original.__func__))
        else:
            wrapper = _timed(self, name, original)
        self._set(cls, attr, original, wrapper)

    def _swap_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        wrapper = _timed(self, name, original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and vars(mod).get(attr) is original):
                self._set(mod, attr, original, wrapper)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def closed_spans(self) -> list[tuple]:
        """Every finished span; open ones would be a wrapper bug."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        return self.spans

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Dump the spans as Chrome trace-event JSON (complete events)."""
        spans = self.closed_spans()
        origin = min((span[1] for span in spans), default=0.0)
        events = [
            {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "pid": 1, "tid": run_id,
             "args": {"span": index, "parent": parent, "run": run_id}}
            for index, (name, start, end, parent, run_id) in enumerate(spans)]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
        return path


def span(tracer: "Tracer | None", name: str):
    """A span of ``tracer``, or a no-op context when tracing is off."""
    return nullcontext() if tracer is None else _Span(tracer, name)


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> int:
        self._index = self._tracer.begin(self._name)
        return self._index

    def __exit__(self, *exc_info) -> None:
        self._tracer.end(self._index)


def _timed(tracer: Tracer, name: str, fn):
    """A wrapper recording one span per outermost call of ``fn``.

    A call made while a span of the same name is innermost (a subclass
    delegating to ``super()``, a meta-scheduler calling its inner scheme)
    passes through, so inclusive times are never counted twice.
    """
    def wrapper(*args, **kwargs):
        if tracer.inside(name):
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if name == "scheduling.footprint_batch":
            tracer.values[index] = len(args[1])
        elif name == "scheduling.waiting_apps":
            tracer.values[index] = len(result)
        elif name == "scheduling.spawn":
            tracer.values[index] = int(result is not None)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _counting(counts: Counter, name: str, fget):
    def getter(obj):
        counts[name] += 1
        return fget(obj)

    return getter


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: list[tuple]) -> list[float]:
    """Per-span self time: duration minus the union its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_of(name: str) -> str:
    """The layer a span name belongs to; unknown prefixes are ``other``."""
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else "other"


def layer_self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time summed per layer, plus ``other`` for unclaimed time."""
    totals = {layer: 0.0 for layer in LAYERS + ("other",)}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[layer_of(name)] += own
    return totals


class EventProbe:
    """Public-bus subscriber on every simulation started while installed.

    Each ``ClusterSimulator.start`` opens a record holding the event
    counts by kind and the ``(app, time)`` of every ``app_finished``
    event, in publication order.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._original = None

    def install(self) -> None:
        from repro.cluster.simulator import ClusterSimulator

        if self._original is not None:
            raise RuntimeError("probe already installed")
        original = ClusterSimulator.start
        probe = self

        def start(sim, jobs):
            probe.attach(sim.events)
            return original(sim, jobs)

        self._original = original
        ClusterSimulator.start = start

    def uninstall(self) -> None:
        from repro.cluster.simulator import ClusterSimulator

        if self._original is not None:
            ClusterSimulator.start = self._original
            self._original = None

    def attach(self, bus) -> dict:
        """Open a record fed by ``bus`` and return it."""
        counts: Counter = Counter()
        finished: list = []
        record = {"counts": counts, "finished": finished}

        def on_event(event) -> None:
            kind = event.kind.value
            counts[kind] += 1
            if kind == "app_finished":
                finished.append((event.app, event.time))

        bus.subscribe(on_event)
        self.records.append(record)
        return record

    def take(self) -> list[dict]:
        """Return and clear the records gathered so far."""
        records, self.records = self.records, []
        return records
