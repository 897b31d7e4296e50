"""Host metadata and a fixed pure-python calibration kernel.

Every run records both next to its metrics, so two sets of runs made on
different hosts, or on one host whose speed drifted, can be told apart
instead of being compared silently (see ``compare.py``).

The same kernel, sampled all through a run by a :class:`Meter`, gives
the host's speed during that run; the end-to-end times are reported at
the reference speed it defines (see :data:`REF_SAMPLE_MS`).
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_metadata() -> dict:
    """What the host is: CPU, core count, OS and interpreter."""
    meta = {
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
    }
    # The fingerprint leaves out the kernel patch level on purpose: it
    # changes under a running fleet without changing the host's speed.
    # The calibration time is what catches a speed change.
    stable = {k: meta[k] for k in ("cpu", "cpus", "machine", "system",
                                   "python", "implementation")}
    meta["fingerprint"] = hashlib.sha256(
        repr(sorted(stable.items())).encode()).hexdigest()[:16]
    return meta


def _kernel(n: int) -> int:
    """Integer LCG, dict and list traffic: the interpreter's hot paths."""
    x = 12345
    table: dict[int, int] = {}
    out: list[int] = []
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + i
        if x & 7 == 0:
            out.append(x >> 3)
    return x ^ len(out) ^ sum(table.values())


KERNEL_N = 100_000


def calibrate(repeats: int = 5) -> float:
    """Median milliseconds of the fixed calibration kernel."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel(KERNEL_N)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


#: Kernel size of one :class:`Meter` sample.
SAMPLE_N = 50_000
#: A sample's time on the reference host: 2-vCPU Intel Xeon VM, CPython
#: 3.11, the median over many runs.  End-to-end times are reported as the
#: seconds that host would take at that speed.
REF_SAMPLE_MS = 29.0
#: Samples taken right before and right after a segment.
AROUND = 2
#: Samples taken beside work that runs in other processes: a smaller
#: kernel (scaled up to SAMPLE_N) every BESIDE_PERIOD_S, about 4% of a
#: core.
BESIDE_N = 20_000
BESIDE_PERIOD_S = 0.25


class Meter:
    """The host's speed, sampled around or beside the timed segments of
    a run.

    On a shared host the speed drifts by up to 2x over a run, and a run
    that meets a slow stretch reads slow on every metric at once.  The
    kernel is the benchmark's own code, so it drifts with the host but
    not with the program: scaling a segment by the kernel's time around
    it takes out most of the host's drift and none of the program's
    own change.
    """

    def __init__(self) -> None:
        #: Sample times, in ms of a SAMPLE_N kernel.
        self.samples: list[float] = []

    def sample(self, n: int = SAMPLE_N, clock=time.perf_counter) -> None:
        t0 = clock()
        _kernel(n)
        self.samples.append((clock() - t0) * 1000.0 * SAMPLE_N / n)

    def segment(self, fn, *args, **kwargs):
        """Run ``fn`` between samples: (its result, its wall seconds, the
        span of samples that :meth:`factor` takes)."""
        i = len(self.samples)
        for _ in range(AROUND):
            self.sample()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        for _ in range(AROUND):
            self.sample()
        return out, seconds, (i, len(self.samples))

    def beside(self, fn, *args, **kwargs):
        """``segment`` for an ``fn`` that waits on other processes, such as
        a worker pool: the samples come from a thread while it runs, so
        they see the host as loaded by that work.  They are timed in the
        thread's CPU time, which leaves out the waits for a core that the
        work's own processes cause: those are the program's time."""
        i = len(self.samples)
        stop = threading.Event()

        def sampler() -> None:
            self.sample(BESIDE_N, time.thread_time)
            while not stop.wait(BESIDE_PERIOD_S):
                self.sample(BESIDE_N, time.thread_time)

        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            stop.set()
            thread.join()
        return out, seconds, (i, len(self.samples))

    def factor(self, span: tuple[int, int]) -> float:
        """Reference over actual speed in a segment's ``span``: multiply
        the times measured in it by this."""
        return REF_SAMPLE_MS / statistics.median(self.samples[slice(*span)])

    def median_ms(self) -> float:
        return statistics.median(self.samples)
