"""Host speed sampling: a fixed reference kernel timed during each measurement.

The benchmark runs on a share of a busy host whose speed changes by tens of
percent from second to second and from minute to minute, so raw wall times
of the same code spread more than any useful regression bound. While a
block of work is timed, a ``SIGALRM`` handler runs a small fixed kernel
every ``INTERVAL_S`` and times it; the kernel's mean time over the block is
the host's speed during exactly that block. The block's wall time, less the
kernel's own time, is scaled by ``REFERENCE_S`` / that mean to read in
seconds on a machine where the kernel takes ``REFERENCE_S``. The kernel is
plain Python and calls no etlwatch code, so no change to etlwatch can change
its speed. Python runs the handler between bytecodes of the main thread, so
it never interrupts etlwatch inside a call into numpy.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.002  # the kernel's wall time on the baseline machine (bench/README.md)
INTERVAL_S = 0.05
LOOPS = 800

_FIELDS = tuple(f"field{i}" for i in range(12))


def kernel(loops: int = LOOPS) -> int:
    """Fixed interpreter work like etlwatch's own: small dicts and strings."""
    total = 0
    for i in range(loops):
        row = {name: i + j for j, name in enumerate(_FIELDS)}
        total += sum(row.values()) + len(str(i))
    return total


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def at_reference_speed(wall: float, kernel_mean: float) -> float:
    """``wall`` seconds measured while the kernel took ``kernel_mean`` seconds,
    expressed in seconds on the baseline machine."""
    return wall * REFERENCE_S / kernel_mean


class Sampler:
    """Times a block of work and samples the host's speed while it runs.

    The kernel is also timed just before and just after the block, so a
    block shorter than ``INTERVAL_S`` still has two samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0  # the block's wall time less the kernel's time inside it
        self._inside = 0.0  # the kernel's time inside the block so far

    def _sample(self, signum=None, frame=None) -> None:
        took = kernel_s()
        self.samples.append(took)
        if signum is not None:
            self._inside += took

    def clock(self) -> float:
        """``time.perf_counter()`` less the kernel's time inside the block so far."""
        return time.perf_counter() - self._inside

    def __enter__(self) -> Sampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._started = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = self.clock() - self._started
        self._sample()

    @property
    def seconds(self) -> float:
        """The block's time at the baseline machine's speed."""
        return at_reference_speed(self.wall, sum(self.samples) / len(self.samples))
