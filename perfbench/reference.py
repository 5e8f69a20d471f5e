"""The speed of the machine while an op runs, from a fixed reference.

The host this benchmark runs on shares its cores with other machines.
While a neighbour is busy, code on a vCPU runs at about half speed; the
two regimes alternate within seconds, on each vCPU apart, so raw seconds
from two runs differ by more than most changes to bridgevar do.  The benchmark
therefore times a small fixed piece of interpreter work, which does not
use bridgevar, every `INTERVAL` seconds from a timer signal while an
in-process workload runs, and scales each op's time by the mean speed
sampled during it: times are "seconds at reference speed", the speed at
which `reference()` takes `REF_SECONDS`.  The reference mixes the kinds
of work bridgevar does (bigint convolution, small-object and dict
traffic, Fraction arithmetic), which tracked its speed best among the
mixes tried.  It runs with the garbage collector off, so that it never
pays for a collection of the program's heap: a change to bridgevar cannot
change the reference.  The mean, not the median, of the samples is used
because the op's work is the integral of the speed over its span, and the
regime often flips inside an op: over the same 8 runs of ``large`` the
mean gave a wall_s spread of 2.2 % and the median 8.8 %.

For ``sweep`` the samples are taken in the benchmark process while the
sweep's workers run.  The speeds of the two vCPUs flip independently
within about a second, so samples taken only before and after a
3-5 s sweep tracked it poorly (wall_s spread 9.8 % over 8 seeds, against
4-6 % over 10 seeds sampled during).  Sampled during a child that kept 0, 1 or 2
vCPUs busy, in 15 interleaved triples on a 2-vCPU host, the median speed
read 0.55, 0.53 and 0.60: the program's own CPU use does not move it by
more than the host's noise.  Sampled beside a subprocess the speed reads
somewhat lower than in-process: over ten seeds each, scaled over raw
wall_s was 0.46 for ``sweep`` and 0.51 for ``grid``.  Scaled sweep times
therefore compare with sweep times only.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Fast-regime time of one reference() on a 2-vCPU Xeon host, Python 3.11.
REF_SECONDS = 0.00028
INTERVAL = 0.025

_A = [(i * 2654435761) % (1 << 61) for i in range(24)]
_B = [(i * 40503) % (1 << 59) + 1 for i in range(24)]


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def add(self, other):
        return _Poly([x + y for x, y in zip(self.c, other.c)])


def reference():
    out = [0] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            out[i + j] += a * b
    table = {}
    p = _Poly(list(range(20)))
    for i in range(40):
        q = p.add(_Poly([i] * 20))
        table[i % 13, len(q.c)] = q
        p = table.get((i % 7, 20), p)
    x = Fraction(1, 3)
    for i in range(1, 30):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    return out, x


def timed_reference():
    """Seconds one reference() takes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(window=0.01):
    """REF_SECONDS over the median time of reference() over `window`
    seconds of repeats: the speed now, relative to reference speed."""
    times = []
    end = time.perf_counter() + window
    while True:
        times.append(timed_reference())
        if time.perf_counter() >= end:
            return REF_SECONDS / statistics.median(times)


class SpeedSampler:
    """Times `reference()` every `INTERVAL` seconds while active.

    Use as a context manager around the ops, from the main thread.
    """

    def __init__(self):
        self.starts = []     # perf_counter() at each sample's start, sorted
        self.lengths = []    # seconds each sample took
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a late tick inside a sample: skip it
            return
        self._busy = True
        self.starts.append(time.perf_counter())
        self.lengths.append(timed_reference())
        self._busy = False

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0, t1):
        """Seconds at reference speed of the interval [t0, t1], less the
        time the samples inside it took.  Without a sample inside, the
        samples on either side of it give the speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.lengths[lo:hi]
        sampled = inside or self.lengths[max(lo - 1, 0):lo + 1]
        speed = statistics.fmean(REF_SECONDS / x for x in sampled)
        return (t1 - t0 - sum(inside)) * speed
