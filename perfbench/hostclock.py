"""A clock that runs at the host's speed, not at wall-clock speed.

The benchmark shares a few cores of a busy host, and that host's speed
swings by up to 2x within seconds: the same simulation took 5.3 s and
8.9 s in consecutive runs.  No median over a run of tens of seconds
evens that out.  :class:`CalibratedClock` measures the host while the
program runs: every :data:`PERIOD_S` seconds a ``SIGALRM`` handler runs
:func:`reference_slice`, a fixed piece of pure-Python work that does not
depend on the program, and times it.  The wall time since the previous
slice is then scaled by ``(REFERENCE_S / slice time) ** ELASTICITY``, so
a stretch in which the host runs at half speed counts about half.  The
slices' own time is left out.

The clock reads in *reference seconds*: the time the program would have
taken on the reference host state, in which one slice takes
:data:`REFERENCE_S`.  A change that makes the program faster makes it
faster in reference seconds too, because the slice never changes with
the program.  The slice uses no third-party module, so starting the
clock imports nothing the program would import itself.
"""

from __future__ import annotations

import math
import signal
import time

#: Seconds between reference slices.  The host changes speed within
#: tenths of a second: slices every 20 ms took out half of the run-to-run
#: variation of a simulation, slices every 50 ms only 30%.
PERIOD_S = 0.02

#: Duration of one reference slice on the reference host state: the
#: median slice time on the two-vCPU x86-64 host this benchmark was tuned
#: on (0.69-0.70 ms), rounded.
REFERENCE_S = 0.0007

#: How much the program slows for a given slowdown of the slice: a
#: loaded host slows the program more than the slice.  Fitted on that
#: host as the exponent that left the least variation over repeated units
#: of one workload in one process (coefficient of variation 0.10 at 1.0
#: and 0.078 at 1.25 on 300-job fleet_churn runs, 0.055 and 0.030 on
#: queue_burst, 0.023 and 0.019 on paper_grid, 0.032 and 0.035 on
#: policy_train; the host times varied by 0.06-0.25).
ELASTICITY = 1.25


#: Read-only lookup table; its keys are small ints, which Python caches.
_TABLE = {key: key * 7 % 13 for key in range(61)}

#: A few MB of floats that each slice reads at a stride, so a slice also
#: pays for cache misses, as the program does.
_HEAP = [i * 0.5 for i in range(1 << 17)]
_STRIDE = 4099


def reference_slice() -> int:
    """A fixed mix of integer, float, string, dict and memory-bound work.

    It keeps nothing it creates, so its speed does not depend on how the
    program has laid out the heap, and it creates no object the garbage
    collector tracks, so a collection never starts inside a slice.
    """
    table = _TABLE
    heap = _HEAP
    mask = len(heap) - 1
    total = 0
    for i in range(500):
        total += (i * i) % 7 + len(str(i)) + table[i % 61]
        total += int(math.sqrt(heap[(i * _STRIDE) & mask] + 1.0))
    return total


def _rate(slice_s: float) -> float:
    """Reference seconds per host second, given one slice's host time."""
    return (REFERENCE_S / slice_s) ** ELASTICITY


class CalibratedClock:
    """Reference seconds since :meth:`start`; see the module docstring.

    Use as a context manager around the timed code.  Only one clock can
    run at a time, because it owns ``SIGALRM``.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: Slices run so far and the host seconds they took.
        self.slices = 0
        self.slice_s = 0.0
        # (reference seconds at `last`, host time of the last slice's
        # end, reference seconds per host second since then), replaced
        # as one object so that now() never reads half an update.
        self._state = (0.0, 0.0, 1.0)
        self._previous_handler = None

    def start(self) -> "CalibratedClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        tick = time.perf_counter()
        reference_slice()
        done = time.perf_counter()
        self._state = (0.0, done, _rate(done - tick))
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def __enter__(self) -> "CalibratedClock":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def now(self) -> float:
        """Reference seconds since :meth:`start`."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:  # no slice ran in between
                break
        reference, last, rate = state
        return reference + (now - last) * rate

    def _on_alarm(self, signum, frame) -> None:
        tick = time.perf_counter()
        reference, last, rate = self._state
        reference += (tick - last) * rate
        reference_slice()
        done = time.perf_counter()
        self.slices += 1
        self.slice_s += done - tick
        self._state = (reference, done, _rate(done - tick))
