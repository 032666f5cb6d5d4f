"""The machine's speed while a round runs, to put its times on one scale.

The shared machine this benchmark was built on changes speed under the
process: for seconds at a time it runs pure-Python code about 1.7 times
slower, and how much of a 40 s run falls in that state changes from run to
run by more than any useful bound.  CPU time slows by the same factor, so
it cannot tell the two apart.

``Probe`` runs a fixed pure-Python kernel in a side thread every
``EVERY_S`` seconds and records the kernel's thread CPU time.  The worker
pins itself, both threads, to one CPU, so the probe measures the CPU the
job runs on.  ``Probe.scale(a, b)`` is ``REFERENCE_S`` over the mean probe
time in ``[a - WINDOW_S, b + WINDOW_S]``; a time measured over ``[a, b]``
times that scale is the time at the reference speed, the speed at which
the kernel takes ``REFERENCE_S``, this machine's speed when not slowed.  On
this machine that cut the quartile spread of a 2.5 s library build over
forty repeats from 0.27 to 0.04 of its median.

The probe takes the GIL for about 0.4 ms every 25 ms, a steady cost of a
few per cent that the parent and a change under test both pay.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

EVERY_S = 0.025
WINDOW_S = 0.25
#: fewest probe samples a scale is taken from; a short window is widened
MIN_SAMPLES = 5
#: the kernel's thread CPU time at the reference speed: its time on this
#: machine (a shared 2-vCPU Xeon guest, Python 3.11.7) when not slowed
REFERENCE_S = 0.0004


def kernel() -> int:
    """Integer arithmetic and dict updates, the interpreter work the
    package does most."""
    acc: dict[int, int] = {}
    x = 1
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x1FFFFFFFFFFFFFFF
        k = x & 255
        acc[k] = acc.get(k, 0) + (x >> 7)
    return len(acc)


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts, on one CPU."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {min(cpus)})


class Probe:
    """Samples the kernel's CPU time from a daemon thread until ``stop``."""

    def __init__(self) -> None:
        self.at: list[float] = []  # time.perf_counter() at each sample's end
        self.cpu: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(EVERY_S):
            t = time.thread_time()
            kernel()
            self.cpu.append(time.thread_time() - t)
            self.at.append(time.perf_counter())

    def start(self) -> "Probe":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling, once there are enough samples for a scale."""
        while len(self.cpu) < MIN_SAMPLES and self._thread.is_alive():
            time.sleep(EVERY_S)
        self._stop.set()
        self._thread.join()

    def scale(self, a: float, b: float) -> float:
        """The factor that puts a time measured over ``[a, b]`` (in
        ``time.perf_counter`` seconds) at the reference speed."""
        lo = bisect.bisect_left(self.at, a - WINDOW_S)
        hi = bisect.bisect_right(self.at, b + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.at, (a + b) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = min(len(self.at), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no probe samples were taken")
        return REFERENCE_S / statistics.fmean(self.cpu[lo:hi])
