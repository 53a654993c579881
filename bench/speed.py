"""Machine-speed sampling, to scale timings to one fixed speed.

The speed of the machine the benchmark was tuned on (a 2-vCPU container on
a shared host) drifts over seconds to minutes.  The same round took 18 s in
one run and 31 s in a run ten minutes later, and a fixed loop moved the same
way.  So while operations run, a SIGALRM handler runs a small fixed kernel
every ``INTERVAL_S`` seconds and records its time.  A timing is scaled by
``KERNEL_NOMINAL_S / mean(kernel times taken during it)``: that is its
length at the speed where the kernel takes ``KERNEL_NOMINAL_S``.  The
handler's own time is subtracted from what it interrupts.

The kernel does not call the library, so a change to the library cannot
move it.  Python runs the handler between bytecodes of the main thread, so
it never interleaves with the library's own state.
"""

import signal
import statistics
from time import perf_counter

KERNEL_NOMINAL_S = 0.009
INTERVAL_S = 0.25


def kernel():
    """Fixed pure-Python work shaped like the library's inner loops:
    schoolbook products of F_3 coefficient lists, tuple keys in a dict and
    a big-integer product of the packed result.  Returns its seconds."""
    start = perf_counter()
    a = [(7 * i + 3) % 3 for i in range(48)]
    b = [(5 * i + 1) % 3 for i in range(48)]
    seen = {}
    for r in range(48):
        out = [0] * 95
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % 3
        key = tuple(out)
        seen[key] = seen.get(key, 0) + 1
        packed = int.from_bytes(bytes(out), "little")
        packed *= packed + r
        b = b[1:] + b[:1]
    return perf_counter() - start


def scale(samples):
    """The factor that takes seconds measured while ``samples`` were taken
    to seconds at the reference speed."""
    return KERNEL_NOMINAL_S / statistics.fmean(samples)


class Sampler:
    """Samples the kernel every ``INTERVAL_S`` seconds inside a ``with``
    block.  ``samples`` holds the kernel times; ``spent`` is the total time
    spent in the handler, to subtract from the timings it interrupted."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(kernel())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
