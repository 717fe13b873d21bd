"""Machine-speed probe that turns measured seconds into reference seconds.

On a shared virtual machine the speed of the CPU drifts: the same
deterministic job took 2.2 s in one minute and 3.9 s a few minutes later
on the 2-core machine this benchmark was written on, so raw times of
identical jobs spread by 20-45 % between their quartiles. A small fixed
pure-Python loop runs from a ``SIGALRM`` handler every 10 ms of wall time
in the measuring thread (under 1 % of its time). Its speed, 1 / duration,
sampled at even steps of wall time, estimates the machine's speed over an
interval; a time measured over the interval is multiplied by
``REFERENCE_S`` times the mean sampled speed there. The result reads in
reference seconds: seconds on a CPU that runs the probe in
``REFERENCE_S``, about its duration when this machine was least loaded.
On repeated jobs this cut the quartile spread to 3-10 %.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.01
MARGIN_S = 0.05  # probe samples this far outside an interval still count
REFERENCE_S = 40e-6
# Set-up (process start, imports, file writes) is only partly CPU-bound:
# over 64 set-ups its measured time grew with the probe's slowness to the
# power 0.62-0.66, so scaling it fully over-corrects. Set-up times are
# scaled by the probe factor to this power; it halved their spread.
SETUP_EXPONENT = 0.65


def probe_work() -> int:
    total, seen = 0, {}
    for i in range(400):
        total += i * i % 7
        seen[i & 31] = total
    return total


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.speed_sums: list[float] = [0.0]  # prefix sums of 1 / duration

    def _sample(self, signum=None, frame=None) -> None:
        t = perf_counter()
        probe_work()
        speed = 1.0 / (perf_counter() - t)
        self.times.append(t)
        self.speed_sums.append(self.speed_sums[-1] + speed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Factor from seconds measured in [start, end] (``perf_counter``
        times) to reference seconds."""
        if not self.times:
            t = perf_counter()
            probe_work()
            return REFERENCE_S / (perf_counter() - t)
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        if lo == hi:
            lo, hi = 0, len(self.times)
        sums = self.speed_sums
        return REFERENCE_S * (sums[hi] - sums[lo]) / (hi - lo)
