"""Host-speed normalization: time a pass as if the host ran at a fixed speed.

The benchmark's host is a shared virtual machine whose speed drifts: within a
minute the same pass can take 30 % longer, and over an hour it has taken
2.4 times as long, with process CPU time rising with wall time.  Steal time
stays near zero, so the time is not spent descheduled; the shared cores just
run slower, and no raw host-time figure escapes it.

:class:`SpeedClock` measures that drift while a pass runs.  An interval timer
(``SIGALRM`` every :data:`INTERVAL_S`) interrupts the pass, and the handler
times :data:`KERNEL_ROUNDS` rounds of a fixed pure-Python kernel:
generator resumptions, method calls, attribute updates and small list and
dictionary stores, the interpreter work the discrete-event simulator spends
its time on.  The kernel's duration at that moment is the host's speed
there.  Each stretch of pass time between two ticks is scaled by
``REFERENCE_S / kernel time`` and the scaled stretches are summed:

    normalized = sum(dt_i * REFERENCE_S / kernel_i)

That is the pass time on a host where the kernel takes :data:`REFERENCE_S`
(about its time on a quiet host of the kind the benchmark was tuned on,
2-vCPU x86-64).  The handler's own time is left out of every stretch, so the
ticks cost the pass only their cache footprint (about 1.5 % of host time is
spent in ticks).

Normalization removes drift that slows the kernel and the pass alike; it
cannot remove slowdowns that hit only one of them.  The raw wall time is
reported beside it.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List

#: Seconds between two speed samples.
INTERVAL_S = 0.02
#: Kernel rounds per sample (about 0.2 ms on a quiet host).
KERNEL_ROUNDS = 2
#: Kernel time per sample that counts as reference speed.
REFERENCE_S = 0.0002


class _Probe:
    __slots__ = ("count", "level")

    def __init__(self) -> None:
        self.count = 0
        self.level = 1.0

    def step(self, i: int) -> int:
        self.count += i & 3
        self.level = self.level * 0.5 + i
        return self.count


def _process():
    while True:
        yield


def kernel() -> int:
    """One round of fixed interpreter work: generator resumptions, method
    calls, attribute updates and small list and dictionary stores."""
    probe = _Probe()
    process = _process()
    next(process)
    kept: List[int] = []
    table: Dict[int, int] = {}
    for i in range(300):
        process.send(i)
        value = probe.step(i)
        if value & 1:
            kept.append(value)
        table[i & 15] = value
    return len(kept) + len(table)


def sample() -> float:
    """Host seconds of one speed sample (:data:`KERNEL_ROUNDS` kernel rounds)."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_ROUNDS):
        kernel()
    return time.perf_counter() - t0


class SpeedClock:
    """Raw and speed-normalized host seconds of one timed stretch of code.

    ``start()`` and ``stop()`` bracket the stretch; ``stop()`` takes one last
    sample, so a stretch shorter than :data:`INTERVAL_S` is still scaled.
    ``lap()`` splits the stretch into phases.  Only one clock may run at a
    time in a process (it owns ``SIGALRM``).
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.normalized_s = 0.0
        self.samples = 0
        self._last = 0.0
        self._lap_mark = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a timer signal that lands inside a sample
            return
        self._busy = True
        begin = time.perf_counter()
        kernel_s = sample()
        end = time.perf_counter()
        self.wall_s += begin - self._last
        self.normalized_s += (begin - self._last) * REFERENCE_S / kernel_s
        self.samples += 1
        self._last = end
        self._busy = False

    def start(self) -> "SpeedClock":
        self.wall_s = self.normalized_s = self._lap_mark = 0.0
        self.samples = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> "SpeedClock":
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return self

    def lap(self) -> float:
        """Normalized seconds since ``start()`` or the previous lap."""
        self._tick()
        seconds = self.normalized_s - self._lap_mark
        self._lap_mark = self.normalized_s
        return seconds
