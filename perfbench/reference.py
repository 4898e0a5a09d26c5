"""A fixed reference computation that calibrates the benchmark's clock.

The benchmark runs on a few vCPUs of a shared host whose speed changes: on a
2-vCPU Xeon VM with nothing else running in it, the same `qci` calls took 1.4
to 1.8 times longer in phases lasting from a second to several minutes.  Raw
seconds from two runs a few minutes apart therefore differ by more than any
change worth detecting.

So the benchmark times `reference()`, a pure-Python computation that never
changes, between the operations it measures.  It reports an operation's time
in *reference seconds*: the seconds it took, times `REFERENCE_S` over the
median time of the reference calls around it.  On an idle machine where
`reference()` takes `REFERENCE_S`, reference seconds are seconds; when the
host slows both down alike, the factor cancels the slow-down.  The raw
seconds and the machine's speed are printed beside them.

The reference mixes the two kinds of work `qci` does, and which the host's
slow phases hit differently: a tight integer loop, and allocation-heavy work
(sparse elimination in dicts mod p, `Fraction` polynomial products).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds one reference() call takes on an idle 2-vCPU Intel Xeon VM, Python 3.11.
REFERENCE_S = 0.028

WINDOW = 3  # reference calls on each side of an operation that calibrate it


def _integer_loop():
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def _allocating():
    p = 10_007
    x = 12_345
    rows = []
    for _ in range(48):
        row = {}
        for _ in range(24):
            x = (x * 1_103_515_245 + 12_345) % 2_147_483_648
            row[x % 64] = (x >> 8) % p
        rows.append(row)
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    a = [Fraction(k + 1, k + 2) for k in range(4)]
    acc = [Fraction(1)] + [Fraction(0)] * 3
    for _ in range(60):
        prod = [Fraction(0)] * 4
        for i, u in enumerate(acc):
            for j, v in enumerate(a):
                if i + j < 4:
                    prod[i + j] += u * v
                else:
                    prod[i + j - 4] -= u * v
        acc = [t.limit_denominator(10**6) for t in prod]
    return len(pivots), acc


def reference():
    """The fixed computation; its result is not used."""
    return _integer_loop(), _allocating()


class ReferenceClock:
    """Times reference() between operations and converts their seconds.

    Call `tick()` before each operation and once after the last; an operation
    started after tick number i is calibrated by the reference calls i-WINDOW+1
    .. i+WINDOW, those nearest to it in time.
    """

    def __init__(self):
        self.refs = []  # seconds of each reference() call, in order

    def tick(self) -> int:
        start = time.perf_counter()
        reference()
        self.refs.append(time.perf_counter() - start)
        return len(self.refs) - 1

    def factor(self, i: int) -> float:
        """REFERENCE_S over the median reference time around tick i."""
        window = self.refs[max(0, i - WINDOW + 1): i + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)

    def speed(self) -> float:
        """The machine's speed over the run, relative to the idle reference machine."""
        return REFERENCE_S / statistics.median(self.refs)
