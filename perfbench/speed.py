"""How fast the host's CPUs run, sampled while the benchmark runs.

The benchmark's host is a few vCPUs of a shared machine.  Its speed moves
under the benchmark: each vCPU slows by 10-40% in bursts of a few seconds,
independently of the others, and the whole machine can run 2-3x slower for
minutes.  A :class:`SpeedProbe` thread in the benchmark process times two
tiny fixed pieces of work (:func:`interpreted`, :func:`stream`) on each CPU
the workload runs on, every :data:`INTERVAL_S`.  The probe's times track the
workload's own speed on those CPUs at that moment (over repeated ``repro run
fig6`` invocations, the correlation between an invocation's wall time and
the mean probe time during it was 0.85-0.97), while the workload barely
notices them (about 1 ms of work per CPU per tick).

:meth:`SpeedProbe.slowdown` turns the probe times over an interval into a
multiple of their reference times; ``report.py`` divides every end-to-end
time by the slowdown of the interval it was measured in.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Time between two probe ticks.
INTERVAL_S = 0.1

#: Probe times the end-to-end times are scaled to: about the fastest time of
#: :func:`interpreted` and of :func:`stream` on a 2-vCPU Intel Xeon (Sapphire
#: Rapids) KVM guest with CPython 3.11 and numpy 2.4.  A slowdown of 1 means
#: that speed.
INTERPRETED_REFERENCE_S = 0.3e-3
STREAM_REFERENCE_S = 0.5e-3

#: Size of the array :func:`stream` sums: larger than a core's L2 cache, so
#: that it feels the shared cache and memory contention that an interpreted
#: loop does not.
ARRAY_BYTES = 4 * 1024 * 1024


def interpreted() -> int:
    """Fixed work bound by the interpreter and the core: a short loop."""
    total = 0
    for i in range(5000):
        total += i * i
    return total


def stream(array: np.ndarray) -> float:
    """Fixed work bound by the shared cache and memory: a sum over *array*."""
    return float(array.sum())


class SpeedProbe:
    """Samples both probe times on each of *cpus* until :meth:`close`.

    One thread visits the CPUs in turn, pinning itself to each (Linux pins
    the calling thread only), so samples never wait for one another.  A
    sample is the thread's CPU time for each piece of work: how fast the CPU
    ran it, not how long the workload's processes kept it waiting.

    The two kinds of contention slow workloads differently: the numpy
    decoder streams through large arrays, the native decoder and start-up
    mostly do not.  *stream_weight* is the share of the workload's time that
    follows :func:`stream` rather than :func:`interpreted`.
    """

    def __init__(self, cpus: Sequence[int], stream_weight: float) -> None:
        self.cpus = list(cpus)
        self.stream_weight = stream_weight
        self._array = np.ones(ARRAY_BYTES // 8)
        #: (time.monotonic() at the end, interpreted seconds, stream seconds)
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.thread_time()
                interpreted()
                middle = time.thread_time()
                stream(self._array)
                end = time.thread_time()
                self.samples.append((time.monotonic(), middle - start, end - middle))
            if self._stop.wait(INTERVAL_S):
                return

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def ratios(self, start: float, end: float) -> Tuple[float, float]:
        """Mean time of each piece of work in ``[start, end]`` (``time.monotonic``) over its reference.

        An interval shorter than a tick takes the sample closest to its middle.
        """
        samples = list(self.samples)
        inside = [sample for sample in samples if start <= sample[0] <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(samples, key=lambda sample: abs(sample[0] - middle))]
        interpreted_s = sum(sample[1] for sample in inside) / len(inside)
        stream_s = sum(sample[2] for sample in inside) / len(inside)
        return interpreted_s / INTERPRETED_REFERENCE_S, stream_s / STREAM_REFERENCE_S

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran in ``[start, end]``.

        :meth:`ratios` mixed by :attr:`stream_weight`.
        """
        interpreted_ratio, stream_ratio = self.ratios(start, end)
        return (1 - self.stream_weight) * interpreted_ratio + self.stream_weight * stream_ratio
