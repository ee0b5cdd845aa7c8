"""How fast the host runs Python during a run, and the scaling it implies.

The reference machine is a shared virtual machine: the same pure-Python
loop runs anywhere from 0.9 to 1.7 ms from one second to the next, and
in busy periods the hypervisor takes up to a third of each core's time,
so raw wall times of identical runs spread far wider than a regression
bound.  The benchmark therefore times a fixed calibration kernel between
ops, and prints every time at the reference speed: an op's wall time is
multiplied by the kernel's reference time over its mean time in the
samples taken within a quarter second of the op (a rate is derived from
the scaled times).  A change to the program moves the printed figures
exactly as it moves the raw ones, because the kernel does not change; a
slower host slows the kernel too, and cancels.  The mean, not the
median, because a sample the hypervisor interrupts must count, as it
does for an op.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the calibration kernel in one sample.
KERNEL_ITERATIONS = 3000
#: What a sample takes on the reference machine, in ms.
REFERENCE_MS = 1.6
#: Longest gap between two samples while a workload's loop runs.
SAMPLE_EVERY_S = 0.05
#: Samples taken before and after each set-up step (see ``timed``).
STEP_SAMPLES = 10
#: A timed interval is scaled by the samples taken within this many
#: seconds of it ...
WINDOW_S = 0.25
#: ... or by the nearest this many, when the window holds fewer.
WINDOW_MIN = 4


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Hash-consing of small tuples: dict lookups, tuple hashing, appends.

    The benchmark's own code, sharing nothing with the program, so a
    change to the program never changes how long it takes.
    """
    table: Dict[Tuple[int, int, int], int] = {}
    nodes: List[Tuple[int, int, int]] = []
    x = 1
    for i in range(iterations):
        key = (i % 13, x % 97, (x * 7 + i) % 101)
        found = table.get(key)
        if found is None:
            found = len(nodes)
            nodes.append(key)
            table[key] = found
        x = found + i
    return len(nodes)


class HostSpeed:
    """Calibration samples of one run; see the module docstring."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = []
        self.stamps: List[float] = []  # when each sample started
        self._last = 0.0
        self._steal = _steal_ticks()
        self._started = time.perf_counter()

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the kernel's time must not depend on the heap
        try:
            for _ in range(count):
                # An untimed pass first, so the timed one finds its code
                # and memory warm whatever the last op left behind.
                kernel()
                started = time.perf_counter()
                kernel()
                self.samples_ms.append((time.perf_counter() - started) * 1000.0)
                self.stamps.append(started)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def between_ops(self) -> None:
        """One sample per ``SAMPLE_EVERY_S`` since the last (at most ten)."""
        due = int((time.perf_counter() - self._last) / SAMPLE_EVERY_S)
        if due:
            self.sample(min(10, due))

    def scale(self) -> float:
        """Raw time to reference time over the whole run."""
        return REFERENCE_MS / statistics.fmean(self.samples_ms)

    def reference_s(self, start: float, end: float) -> float:
        """An interval's length at the reference speed.

        Scaled by the samples around it rather than the run's mean: the
        host's speed swings by a third from one second to the next, and
        the samples of the moment follow it.
        """
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < WINDOW_MIN:
            middle = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo = max(0, min(middle - WINDOW_MIN // 2, len(self.stamps) - WINDOW_MIN))
            hi = lo + WINDOW_MIN
        return (end - start) * REFERENCE_MS / statistics.fmean(self.samples_ms[lo:hi])

    def timed(self, step: Callable[[], T]) -> Tuple[T, Tuple[float, float]]:
        """Run a one-off set-up step between samples; its result and interval."""
        self.sample(STEP_SAMPLES)
        started = time.perf_counter()
        result = step()
        ended = time.perf_counter()
        self.sample(STEP_SAMPLES)
        return result, (started, ended)

    def summary(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "samples": len(self.samples_ms), "mean_ms": statistics.fmean(self.samples_ms),
            "median_ms": statistics.median(self.samples_ms), "scale": self.scale(),
        }
        steal = _steal_ticks()
        if steal is not None and self._steal is not None:
            # Share of the cores' time the hypervisor took, over the run.
            elapsed = (time.perf_counter() - self._started) * os.sysconf("SC_CLK_TCK")
            doc["steal_share"] = (steal - self._steal) / (elapsed * (os.cpu_count() or 1))
        return doc


def _steal_ticks() -> Optional[int]:
    """Steal time of all cores from ``/proc/stat``, in clock ticks."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


#: The one sampler of a run.
HOST = HostSpeed()
