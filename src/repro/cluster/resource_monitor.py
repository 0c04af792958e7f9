"""Per-node resource monitoring, fed by the cluster event bus.

Each computing node runs a daemon that periodically reports its memory
usage and CPU load to a central resource monitor; the paper's
implementation reports averages over a 5-minute window read from
``/proc`` (Section 4.2).  Because the reporting is coarse grained, the job
dispatcher may act on slightly stale information — this staleness is part
of what the simulation reproduces.

Since the event-bus refactor the monitor no longer receives direct calls
from the engines: it *subscribes* to the transient
:class:`~repro.cluster.events.ClusterSample` events both engines publish
(:meth:`ResourceMonitor.attach`).  Two sibling subscribers live here for
the same reason:

* :class:`UtilizationTraceRecorder` keeps the full per-node utilisation
  traces used by the Figure 7 heat map (opt-in, O(steps) memory — the
  one consumer that genuinely needs the matrix);
* :class:`StreamingUtilization` keeps O(nodes) running means, so
  headline utilisation numbers are available even when trace recording
  is disabled.
"""

from __future__ import annotations

import bisect
from collections import deque

import numpy as np

from repro.cluster.events import EventKind

__all__ = ["ResourceMonitor", "UtilizationTraceRecorder",
           "StreamingUtilization"]


class _Batch:
    """One sample batch: shared timestamps × per-node constant values.

    Both engines publish usage as batches — the same (ascending) grid
    timestamps for every node, with per-node values constant across the
    batch — so the monitor stores each batch *once* instead of fanning it
    out into per-node sample deques (an O(nodes) Python loop per epoch,
    the old hot spot at fleet scale).  The per-node index is built lazily
    on the first query that touches the batch; schedulers that never
    consult the monitor (e.g. pairwise, oracle) therefore pay nothing
    per node.
    """

    __slots__ = ("times", "samples", "_index")

    def __init__(self, times, samples: tuple) -> None:
        self.times = times
        self.samples = samples
        self._index: dict[int, tuple[float, float]] | None = None

    def lookup(self, node_id: int) -> tuple[float, float] | None:
        """The (memory_gb, cpu_load) this batch reports for a node."""
        if self._index is None:
            samples = self.samples
            ids = getattr(samples, "node_ids", None)
            if ids is not None:  # column-oriented SampleBatch
                self._index = dict(zip(ids, zip(samples.memory.tolist(),
                                                samples.cpu.tolist())))
            else:
                self._index = {s[0]: (s[1], s[2]) for s in samples}
        return self._index.get(node_id)


class ResourceMonitor:
    """Windowed per-node memory and CPU usage reporting.

    Parameters
    ----------
    window_min:
        Length of the averaging window in minutes (the paper uses 5).
    """

    def __init__(self, window_min: float = 5.0) -> None:
        if window_min <= 0:
            raise ValueError("window_min must be positive")
        self.window_min = window_min
        self._batches: deque[_Batch] = deque()

    def _push(self, times, samples: tuple) -> None:
        """Append a batch and drop batches entirely below the window.

        ``times`` is any ascending sequence (the event tuples are stored
        as-is — no per-batch copy).
        """
        batches = self._batches
        batches.append(_Batch(times, samples))
        cutoff = times[-1] - self.window_min
        while batches and batches[0].times[-1] < cutoff:
            batches.popleft()

    def record(self, time: float, node_id: int, memory_gb: float,
               cpu_load: float) -> None:
        """Record one usage sample for a node.

        Samples older than the averaging window are discarded.
        """
        self.record_many([time], node_id, memory_gb, cpu_load)

    def record_many(self, times: list[float], node_id: int, memory_gb: float,
                    cpu_load: float) -> None:
        """Record one usage sample per timestamp, with constant values.

        The event-driven engine uses this to backfill the uniform sampling
        grid over an interval during which a node's usage did not change;
        the window is trimmed against the newest timestamp.  ``times``
        must be ascending (both engines pass grid points).
        """
        if not times:
            return
        if memory_gb < 0 or cpu_load < 0:
            raise ValueError("usage samples cannot be negative")
        self._push(list(times), ((node_id, memory_gb, cpu_load),))

    def _node_window(self, node_id: int):
        """Yield ``(n_samples_in_window, memory_gb, cpu_load)`` per batch.

        The retained sample set is exactly what the old per-node deques
        held: every timestamp at or above ``newest - window_min``, oldest
        batch first.
        """
        batches = self._batches
        if not batches:
            return
        cutoff = batches[-1].times[-1] - self.window_min
        for batch in batches:
            entry = batch.lookup(node_id)
            if entry is None:
                continue
            times = batch.times
            n = len(times) - bisect.bisect_left(times, cutoff)
            if n:
                yield n, entry[0], entry[1]

    def reported_memory_gb(self, node_id: int) -> float:
        """Windowed average memory usage of a node (0 when never sampled)."""
        total = 0.0
        count = 0
        # Repeated addition, oldest sample first: the same summation the
        # per-node deques performed, so reports are bit-for-bit stable.
        for n, memory_gb, _ in self._node_window(node_id):
            for _ in range(n):
                total += memory_gb
            count += n
        return total / count if count else 0.0

    def reported_cpu_load(self, node_id: int) -> float:
        """Windowed average CPU load of a node (0 when never sampled)."""
        total = 0.0
        count = 0
        for n, _, cpu_load in self._node_window(node_id):
            for _ in range(n):
                total += cpu_load
            count += n
        return total / count if count else 0.0

    def has_samples(self, node_id: int) -> bool:
        """Whether any in-window sample has been recorded for the node."""
        return any(True for _ in self._node_window(node_id))

    # ------------------------------------------------------------------
    # Event-bus subscription
    # ------------------------------------------------------------------
    def attach(self, bus) -> "ResourceMonitor":
        """Subscribe to the :class:`ClusterSample` events on a bus."""
        bus.subscribe(self._on_sample, kinds=(EventKind.CLUSTER_SAMPLE,))
        return self

    def _on_sample(self, event) -> None:
        self._push(event.times, event.samples)


class UtilizationTraceRecorder:
    """Full per-node utilisation traces, recorded from the sample stream.

    Reproduces — bit for bit — the trace matrices the engines used to
    build directly: ``times[i]`` stamps sample ``i`` of every node trace,
    and a node joining mid-run (autoscale) is back-filled with zeros so
    every trace always spans the full timeline.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.trace: dict[int, list[float]] = {}

    def attach(self, bus) -> "UtilizationTraceRecorder":
        """Subscribe to the :class:`ClusterSample` events on a bus."""
        bus.subscribe(self._on_sample, kinds=(EventKind.CLUSTER_SAMPLE,))
        return self

    def ensure_node(self, node_id: int) -> None:
        """Make sure a node has a trace list (zero-padded to now)."""
        self.trace.setdefault(node_id, [0.0] * len(self.times))

    def _on_sample(self, event) -> None:
        base = len(self.times)
        self.times.extend(event.times)
        n = len(event.times)
        for node_id, _, _, utilization in event.samples:
            trace = self.trace.setdefault(node_id, [0.0] * base)
            trace.extend([utilization] * n)


class StreamingUtilization:
    """O(nodes) running utilisation statistics from the sample stream.

    The streaming counterpart of averaging the full trace matrix: per
    node it keeps only a sum, plus one global sample count, so the
    memory cost is independent of simulation length.  Per-node means
    divide by the *global* count — a node that joined mid-run is thereby
    treated as idle (zero utilisation) before its join, exactly like the
    zero-backfilled traces of :class:`UtilizationTraceRecorder`, so the
    streaming mean agrees with the trace-based reduction.

    The per-node sums live in one float64 array, ordered by first
    appearance, and each batch is accumulated with a single vectorized
    add: per node and per batch the arithmetic is the identical scalar
    ``sum += utilization * n``, so the results are bit-for-bit what the
    old per-node dict computed — without the O(nodes) Python loop per
    sample batch that dominated at fleet scale.
    """

    def __init__(self) -> None:
        self._order: list[int] = []
        self._pos: dict[int, int] = {}
        self._sums = np.zeros(0)
        self._n_samples = 0
        self._last_ids: list[int] | None = None
        self._gather: np.ndarray | None = None

    def attach(self, bus) -> "StreamingUtilization":
        """Subscribe to the :class:`ClusterSample` events on a bus."""
        bus.subscribe(self._on_sample, kinds=(EventKind.CLUSTER_SAMPLE,))
        return self

    def _on_sample(self, event) -> None:
        n = len(event.times)
        self._n_samples += n
        samples = event.samples
        ids = getattr(samples, "node_ids", None)
        if ids is not None:  # column-oriented SampleBatch: no row fan-out
            utils = samples.util
        else:
            ids = [s[0] for s in samples]
            utils = np.array([s[3] for s in samples])
        if ids != self._last_ids:
            self._reindex(ids)
        if n != 1:
            # New array, never in-place: the batch's column is shared
            # with every other subscriber (and the monitor's window).
            utils = utils * n
        self._sums[self._gather] += utils

    def _reindex(self, ids: list[int]) -> None:
        """Refresh the batch-order -> accumulator-slot gather index.

        Node sets only ever grow (joins append to the sample order), but
        the remap is general: unseen ids get fresh accumulator slots in
        first-appearance order, matching the old dict's insertion order.
        """
        pos = self._pos
        for node_id in ids:
            if node_id not in pos:
                pos[node_id] = len(pos)
                self._order.append(node_id)
        if len(self._order) > len(self._sums):
            grown = np.zeros(len(self._order))
            grown[:len(self._sums)] = self._sums
            self._sums = grown
        self._gather = np.array([pos[node_id] for node_id in ids],
                                dtype=np.intp)
        self._last_ids = list(ids)

    def mean_percent(self) -> float:
        """Mean utilisation across nodes and time (per-node means averaged)."""
        if not len(self._sums) or not self._n_samples:
            return 0.0
        means = (self._sums / self._n_samples).tolist()
        return sum(means) / len(means)
