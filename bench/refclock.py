"""Reference clock: wall times scaled to a fixed machine speed.

The two-vCPU host the benchmark was tuned on is shared, and its speed
changes by up to a factor of two within seconds: one identical solve took
280 to 560 ms inside a single run, and the median of the identical solves
moved by 40 % from one run to the next.  Runs of the same code then
disagree by more than any useful bound.

So a fixed piece of work, the reference, runs right before every op, outside
the op's timing.  It is Gauss-Jordan elimination of a fixed 12 x 12 rational
matrix with the standard library's ``Fraction``: the same kind of arithmetic
that lieaff spends its time on, and no lieaff code, so no change to lieaff
can change it.  Each op's wall time is divided by the median time of the
reference runs around it and multiplied by ``REF_S``: the op's time on a host
where one reference run takes ``REF_S``.  Five runs of 40 s on that host
spread 0.16 (mean op time) and 0.21 (median) in wall time, and 0.035 and
0.065 once scaled.

Set-up is scaled the same way, by reference runs just before and after it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_S = 0.010       # seconds of one reference run on the reference host
WINDOW = 5          # reference runs on each side of an op that scale it

_N = 12
_MATRIX = [[Fraction(1, i + j + 1) + (7 * i + 3 * j) % 5 for j in range(_N)]
           for i in range(_N)]


def _eliminate():
    m = [row[:] for row in _MATRIX]
    for c in range(_N):
        pivot = m[c][c]
        for r in range(_N):
            if r != c and m[r][c]:
                f = m[r][c] / pivot
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def reference() -> float:
    """Run the reference once; return its wall time in seconds."""
    start = time.perf_counter()
    _eliminate()
    return time.perf_counter() - start


def scale(times, refs) -> list:
    """Scale times[i] by the reference runs refs[i - WINDOW .. i + WINDOW].

    refs[i] is the reference run made just before the i-th time was measured.
    """
    return [t * REF_S / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(times)]


def timed_scaled(work):
    """Run work() between reference runs; return (result, wall s, scaled s)."""
    before = [reference() for _ in range(WINDOW)]
    start = time.perf_counter()
    result = work()
    wall = time.perf_counter() - start
    after = [reference() for _ in range(WINDOW)]
    return result, wall, wall * REF_S / statistics.median(before + after)
