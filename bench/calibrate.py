"""The machine's speed, sampled while the program runs, to take its mood out.

The sandbox is a shared two-core VM whose interpreter speed flickers between
about 1.0× and 0.6× on every timescale from 10 ms to minutes (a fixed 60k-step
Python loop: 5th–95th percentile 5.1–9.2 ms over two minutes; ten-second means
6.1–8.5 ms; the two vCPUs anti-correlated).  The same `point_read` call took
0.60 s in one hour and 1.00 s in the next; ten back-to-back ten-second runs
spread 10–25 % (IQR ÷ median) however many repeats each took, because a run
sits inside one mood.

So the harness measures the mood where the work happens.  An interval timer
interrupts the process every 50 ms and the signal handler times a fixed
pure-Python kernel (~3 ms).  The clock every benchmark time is read from does
not advance while the handler runs, and a duration is reported *at reference
speed*: multiplied by ``REFERENCE_S × mean(1 / kernel seconds)`` over the
samples taken inside it.  The harmonic form is exact when the work slows by
the factor the kernel does: ``work = ∫ speed dt`` and ``1 / kernel ∝ speed``.
Per call the sampled speed correlates 0.9 with the call's wall time, and the
spread between runs falls to a third (see README, A/A).

The traced run, whose spans are as short as milliseconds, reads a second
clock that advances at the speed of the latest sample
(:meth:`SpeedSampler.reference_now`): every span is scaled by the mood it ran
in.  Raw times and the speed factor stay in every record; a change to the
repository cannot move the kernel, only the interpreter can.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from contextlib import contextmanager

#: Seconds between two samples, and the kernel's loop length.
PERIOD_S = 0.05
KERNEL_STEPS = 30_000
#: The kernel's time on the builder's box in its usual state.  It only fixes
#: the unit — "seconds of that machine" — and must never change.
REFERENCE_S = 0.0034


def speed_of(kernel_seconds: list[float]) -> float:
    """Machine speed over a stretch of kernel samples (1.0 = reference)."""
    return REFERENCE_S * statistics.fmean(1.0 / k for k in kernel_seconds)


class SpeedSampler:
    """Times a fixed kernel every :data:`PERIOD_S` from a ``SIGALRM`` handler.

    One per process (there is one real-time interval timer).  Python runs the
    handler in the main thread between two bytecodes, so the kernel's time is
    inside whatever the harness is timing — :meth:`now` takes it out again.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._stolen = 0.0
        self._sampling = False
        # The reference clock: its reading at the last sample, when that was
        # on :meth:`now`, and the speed sampled then.
        self._reference = 0.0
        self._reference_at: float | None = None
        self._rate = 1.0

    def sample(self, signum=None, frame=None) -> None:
        """Run the kernel once: dict traffic and small-int arithmetic."""
        if self._sampling:  # the timer fired inside a sample taken by hand
            return
        self._sampling = True
        started = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(KERNEL_STEPS):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        elapsed = time.perf_counter() - started
        self.kernel_s.append(elapsed)
        self._stolen += elapsed
        at = self.now()
        if self._reference_at is not None:
            self._reference += (at - self._reference_at) * self._rate
        self._reference_at, self._rate = at, REFERENCE_S / elapsed
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """``perf_counter`` less the time spent in the handler so far."""
        return time.perf_counter() - self._stolen

    def reference_now(self) -> float:
        """A clock that runs at the sampled speed: :meth:`now` integrated with
        the speed of the latest sample (at most :data:`PERIOD_S` old), so a
        difference of two readings is a wall time at reference speed however
        short the interval.  The traced run reads every span and probe from it.
        """
        if self._reference_at is None:
            self.sample()
        return self._reference + (self.now() - self._reference_at) * self._rate

    def user_cpu(self) -> float:
        """User-mode CPU seconds of this process less the handler's so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_utime - self._stolen

    def mark(self) -> int:
        """Position in the sample list, to hand to :meth:`speed` later."""
        return len(self.kernel_s)

    @contextmanager
    def timed(self):
        """Time the block: yields a dict that holds, once the block has ended,
        ``wall_s`` and ``user_s`` (wall and user-mode CPU seconds as the
        machine ran it), ``speed``, and ``reference_s`` = ``user_s × speed``:
        the block's own computing as the reference machine would have run it."""
        timing: dict[str, float] = {}
        mark, started, cpu_started = self.mark(), self.now(), self.user_cpu()
        try:
            yield timing
        finally:
            timing["wall_s"] = self.now() - started
            timing["user_s"] = self.user_cpu() - cpu_started
            timing["speed"] = self.speed(mark)
            timing["reference_s"] = timing["user_s"] * timing["speed"]

    def speed(self, since: int = 0) -> float:
        """Machine speed over the samples from ``since`` on (1.0 = reference).

        Takes one sample on the spot when the interval held none.
        """
        if len(self.kernel_s) == since:
            self.sample()
        return speed_of(self.kernel_s[since:])
