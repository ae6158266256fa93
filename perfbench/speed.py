"""The host's current speed, read from fixed reference work.

The benchmark shares its machine with other tenants.  On the 2-core KVM
guest it was built on, the same batch took from 2.1 s to 3.9 s depending
on the minute it ran in, and a fixed 40 ms loop took 40 to 90 ms on
either core: the host is slower or faster by up to half for minutes at a
time, with no steal time to show for it.  Timings are therefore reported
at a reference speed.  Between items the benchmark runs ``kernel()`` until
it has spent a tenth of the measured time on it, and a measured time t is
reported as t * REFERENCE_S / (mean kernel time over the same stretch).

Set-up (a fresh interpreter importing mvtool and numpy) does not follow
the kernel: it is mostly loading extension modules and unmarshalling
code.  Its reference is ``setup_probe.py --reference``, a fresh
interpreter importing a fixed set of standard-library modules, run after
each set-up probe; a probe's time t is reported as
t * REFERENCE_SETUP_S / (the reference's time).

Neither reference is mvtool code, so a change to mvtool moves the scaled
figures as much as the raw ones; the raw figures are kept in the run's
record next to the scaled ones.  In the two ten-run baselines of
``results/``, scaling cut the quartile spread (over the median) of the
batch time from 0.13-0.31 to 0.02-0.05, of the slowest item from
0.26-0.34 to 0.06-0.21, and of the set-up time from 0.05-0.41 to
0.02-0.09.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The references' times on that guest in a quiet minute: 2.9-3.3 ms seen
# for the kernel, 80-90 ms for the set-up reference.
REFERENCE_S = 0.003
REFERENCE_SETUP_S = 0.085
SHARE = 0.1


def kernel() -> float:
    """Run the fixed reference work once; return its time in seconds.

    Dicts of tuples and Fraction arithmetic, like mvtool's carriers."""
    start = time.perf_counter()
    table: dict = {}
    x = Fraction(0)
    for i in range(400):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        x = (x + Fraction(i % 5, 7)) % 3
        if x > 1:
            x -= 1
    return time.perf_counter() - start


class Speed:
    """Kernel samples taken alongside measured work."""

    def __init__(self):
        self.samples: list = []
        self.busy = 0.0
        self.spent = 0.0

    def keep_up(self, busy_s: float) -> None:
        """Count ``busy_s`` of measured time, then sample the kernel until
        it has had its share of the time."""
        self.busy += busy_s
        while self.spent < SHARE * self.busy:
            t = kernel()
            self.samples.append(t)
            self.spent += t

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken since
        ``mark()`` returned ``since`` (one more is taken if there are none)."""
        if len(self.samples) == since:
            self.samples.append(kernel())
        return REFERENCE_S / statistics.fmean(self.samples[since:])
