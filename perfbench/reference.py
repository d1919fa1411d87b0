"""A fixed reference slice of work, timed between passes to track machine speed.

On a shared machine the speed of identical passes drifts by ±15 % over
minutes, far more than the changes the benchmark has to resolve.  The slice
below does the kinds of work the workloads do — interpreter-bound integer
loops, numpy cos and gathers, ``Fraction`` arithmetic over big integers and
blake2b — in fixed amounts and without lacunaria, so it slows down with the
machine but not with the library.  :func:`nominal` rescales a measured time
by the slice timed next to it to seconds at the speed where the slice takes
``NOMINAL_S``, which keeps most of the drift out of run-to-run comparisons.
A :class:`NominalClock` does this piecewise over long passes, so that the
slices sample the machine's speed throughout the work they rescale.

Never change this code, its sizes or ``NOMINAL_S``: that would rescale
every workload's times at once.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction

import numpy as np

# one slice on the 2-core Xeon VM where the benchmark was defined
NOMINAL_S = 0.33
# inside a pass, a slice runs at a step boundary this long after the last one
TICK_EVERY_S = 1.5


def _ints() -> int:
    acc = 0
    for i in range(600_000):
        acc = (acc + i * 7) & 0xFFFFF
    return acc


def _numpy() -> float:
    # well under 1 MB in all, so a slice never sets the process's peak RSS
    angles = (np.arange(1 << 14, dtype=np.float64) * 0.7071) % 6.2831853
    gather = (np.arange(1 << 15, dtype=np.int64) * 40503) % (1 << 14)
    total = 0.0
    for _ in range(320):
        total += float(np.cos(angles).sum()) + float(angles[gather].sum())
    return total


def _fractions() -> Fraction:
    total = Fraction(0)
    for i in range(1, 12_000):
        total += Fraction(i, 3 ** (i % 50) + 1)
    return total


def _hashes() -> bytes:
    digest = b"perfbench"
    for _ in range(120_000):
        digest = hashlib.blake2b(digest, digest_size=64).digest()
    return digest


def reference_slice() -> float:
    """Seconds taken by one reference slice."""
    start = time.perf_counter()
    _ints()
    _numpy()
    _fractions()
    _hashes()
    return time.perf_counter() - start


def nominal(seconds: float, slice_seconds: float) -> float:
    """``seconds`` measured while a reference slice took ``slice_seconds``,
    rescaled to a machine where the slice takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / slice_seconds


class NominalClock:
    """Measures passes in measured and in nominal seconds.

    A slice runs when the clock starts, at the end of every pass, and at
    every ``tick()`` (a step boundary inside a pass) that comes at least
    ``TICK_EVERY_S`` after the previous slice.  Each stretch of work between
    two slices is rescaled by the mean of those two slices; slice time is
    not work time.
    """

    def __init__(self):
        self.slices = [reference_slice()]
        self.begin()

    def begin(self) -> None:
        self.work = self.nominal = 0.0
        self._stretch_start = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        stretch = time.perf_counter() - self._stretch_start
        if stretch < TICK_EVERY_S and not force:
            return
        after = reference_slice()
        self.work += stretch
        self.nominal += nominal(stretch, (self.slices[-1] + after) / 2)
        self.slices.append(after)
        self._stretch_start = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """Close the pass: (measured work seconds, nominal seconds)."""
        self.tick(force=True)
        return self.work, self.nominal
