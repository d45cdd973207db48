"""The machine's current pace, so verb times can be read at a fixed pace.

The benchmark runs on a few cores of a shared host. Other tenants slow this
process by up to 2x, in spells that come and go within a second, and its CPU
time slows as much as its wall time. Calls are timed on CLOCK, the process's
CPU time, so waits on the shared disk and time spent descheduled drop out;
``Gauge`` then times a fixed piece of reference work, owned by the benchmark
and independent of snsq, on the same clock between the timed verb calls. A
call is scaled by REFERENCE_S over the reference time measured around it: it
reads in seconds at the pace where the reference work takes REFERENCE_S. The
same code in an idle and a busy spell reads nearly the same, while a change
to snsq moves the verb time and leaves the reference alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

CLOCK = time.process_time
# CPU seconds the reference work takes at the pace verb times are reported at;
# about its time on the 2.1 GHz Xeon vCPUs the benchmark was written on.
REFERENCE_S = 0.025
# Wall seconds since the last reference timing after which the next call
# is preceded by another.
BLOCK_S = 0.25

_MODULUS = 1 << 4000


def reference_work() -> int:
    """Fixed interpreter-bound work in the program's mix: small Fractions,
    4000-bit integers, str conversions and tuple-keyed dict inserts."""
    acc = Fraction(0)
    big = 3**2000
    seen = {}
    for i in range(1, 5000):
        acc += Fraction(i % 97 + 1, i % 13 + 2)
        big = (big * 7 + i) % _MODULUS
        seen[(i, i % 7)] = str(i)
    return len(seen) + int(acc) + big.bit_length()


def _reference_seconds() -> float:
    start = CLOCK()
    reference_work()
    return CLOCK() - start


class Gauge:
    """Reference timings interleaved with one round of timed calls.

    Call ``before_call`` before each timed call and ``scaled`` once the round
    is over: it returns every call's time at the reference pace, each divided
    by the mean of the two reference timings around the block it ran in.
    """

    def __init__(self) -> None:
        self.references = [_reference_seconds()]
        self.since = time.perf_counter()
        self.calls: list[tuple[int, float]] = []  # (block, seconds)

    def before_call(self) -> None:
        if time.perf_counter() - self.since >= BLOCK_S:
            self.references.append(_reference_seconds())
            self.since = time.perf_counter()

    def record(self, seconds: float) -> None:
        self.calls.append((len(self.references) - 1, seconds))

    def scaled(self) -> list[float]:
        self.references.append(_reference_seconds())
        refs = self.references
        return [
            seconds * REFERENCE_S / ((refs[block] + refs[block + 1]) / 2)
            for block, seconds in self.calls
        ]
