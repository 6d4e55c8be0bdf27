"""Host-speed calibration: fixed standard-library work timed next to the jobs.

The benchmark runs on a few cores of a shared host whose speed drifts
by a third and more in phases of seconds (CPU time drifts with it, so
it is not descheduling).  A pure-Python loop slows and speeds up with
the host much as the library does, so every time the benchmark reports
is normalised: the measured time, divided by the time of `sample`'s
fixed work measured right next to it, times `REFERENCE_S`.  Reported
times are thus seconds at the reference speed, the speed at which one
sample takes `REFERENCE_S`; a change to the library moves them in the
same proportion as it moves the raw times.

The work is what the library spends its time on (Fraction arithmetic,
dicts keyed by tuples, splitting and joining short strings) written
with the standard library only, so no change to vertexlie changes it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# A round figure near the median `sample()` time on the x86_64 host of
# the baseline (2 vCPUs, CPython 3.11.7, about 0.93 ms).  It only sets
# the scale of the reported seconds, and changing it would rescale every
# figure, so it stays fixed.
REFERENCE_S = 0.00100

_TERMS = [((i % 7, i % 5 - 2), Fraction(i % 11 - 5, i % 4 + 1)) for i in range(60)]
_LINE = "omega 3 omega : 0 omega 2, 1 omega -1/2, 3 c 1/12"


def _work() -> int:
    acc = {}
    for key, coeff in _TERMS:
        for shift in (1, 2, 3):
            k = (key[0], key[1] + shift)
            c = acc.get(k)
            acc[k] = coeff * shift if c is None else c + coeff * shift
    total = sum(acc.values())
    parts = []
    for _ in range(12):
        head, tail = _LINE.split(":")
        terms = [t.split() for t in tail.split(",")]
        parts.append(head.strip() + " : " + ", ".join(" ".join(t) for t in terms))
    return len(acc) + total.denominator + len(parts)


def sample() -> float:
    """Time of one fixed unit of calibration work, in seconds."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def factor(samples) -> float:
    """Raw seconds times this factor gives seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
