"""Timing that follows the speed of a shared host.

The benchmark's host shares its cores with other tenants, and how fast it
runs Python moves by up to 1.5x over seconds and minutes (README.md,
"Host").  A ``HostClock`` samples that speed while a timed section runs:
every ``INTERVAL_S`` of wall time a SIGALRM handler, which runs in the
main thread between bytecodes (no thread, no second process), times one
fixed reference kernel.  ``seconds`` then gives the section's wall time
less the time spent sampling, scaled by ``REF_S`` over the mean kernel
time: the seconds the section would take on a host that runs the kernel
in ``REF_S``.  Faster or slower program code moves that figure as it
moves wall time; a busier host hardly does.

    with HostClock() as clock:
        ...
    seconds = clock.seconds()
"""

from __future__ import annotations

import signal
import time

#: wall seconds between two samples
INTERVAL_S = 0.02
#: seconds the kernel takes on this benchmark's reference host when no
#: other tenant contends for its core (the fastest tenth of 3000 calls on
#: a 2-vCPU VM with Python 3.11.7)
REF_S = 0.00065


def kernel() -> int:
    """About a millisecond of interpreter work: a small-int loop and
    products of 1200-bit integers, the two kinds of work powerops does."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    x, y = 3 ** 400, 7 ** 350
    for i in range(250):
        s += (x * y + i) % 1000003
        x, y = y + i, x
    return s


class HostClock:
    """Samples the host's speed while one ``with`` section runs.

    Attributes after the section: ``wall`` (its wall seconds, sampling
    included), ``spent`` (seconds spent sampling) and ``samples`` (the
    kernel's time at each sample; the first is taken on entry, so there
    is at least one).
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.wall = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._start = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = time.perf_counter() - self._start
        return False

    def seconds(self) -> float:
        """The section's wall time less the sampling, in seconds of the
        reference host."""
        return corrected(self.wall, self.spent, self.samples)


def corrected(wall: float, spent: float, samples) -> float:
    """wall seconds, of which spent went to the given kernel samples, in
    seconds of the reference host."""
    return (wall - spent) * REF_S * len(samples) / sum(samples)
