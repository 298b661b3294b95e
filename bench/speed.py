"""Machine-speed-weighted timing for a shared, noisy machine.

On the two shared cores this benchmark was tuned on, identical work took
up to 25% longer from one run to the next: the machine's speed drifts in
phases of several seconds.  ``Probe`` samples that speed while a phase
runs.  Every ``INTERVAL_S`` a timer signal runs a fixed pure-Python
reference loop and records how long it took.  Each gap of work between
samples is weighted by the speed sampled at its end, so

    seconds() = sum(gap_k * NOMINAL_NS / ref_k)

is the phase's duration at the nominal speed: the work time a machine
running the reference loop in ``NOMINAL_NS`` would have taken.  The
reference loop is benchmark code, never package code, so a change to the
package moves ``seconds()`` exactly as it moves the work itself.
``wall()`` is the plain wall time, sampling included.

The loop sampling costs about 0.2% of the phase.  It needs the main
thread, because Python runs signal handlers there.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
REF_ITERATIONS = 300
# The reference loop's duration inside the timer handler near the middle
# of its drift on the tuning machine (two shared cores, Python 3.11):
# 30 to 50 us.  Any fixed value works; it sets the scale of seconds().
NOMINAL_NS = 40_000


def reference_loop() -> int:
    s = 0
    for i in range(1, REF_ITERATIONS):
        s += (i * 2654435761) % 1000003
    return s


class Probe:
    """Context manager sampling machine speed over the phase it wraps."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (start ns, reference ns)
        self.t0 = self.t1 = 0

    def _handler(self, signum, frame):
        t = time.perf_counter_ns()
        reference_loop()
        self.samples.append((t, time.perf_counter_ns() - t))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.t0 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.t1 = time.perf_counter_ns()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def wall(self) -> float:
        return (self.t1 - self.t0) / 1e9

    def seconds(self) -> float:
        """Work time at the nominal speed; the wall time when the phase
        was too short to be sampled."""
        if not self.samples:
            return self.wall()
        total = 0.0
        last_end = self.t0
        for start, ref in self.samples:
            total += (start - last_end) * NOMINAL_NS / ref
            last_end = start + ref
        total += max(0, self.t1 - last_end) * NOMINAL_NS / self.samples[-1][1]
        return total / 1e9

    def median_reference_ns(self) -> float:
        refs = sorted(ref for _, ref in self.samples)
        return refs[len(refs) // 2] if refs else 0.0
