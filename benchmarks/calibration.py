"""Host-speed references for the benchmark's times.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by tens of percent over seconds to minutes: the same
harness pass can take 1.8 s or 2.9 s a minute apart.  A raw wall-time median
over a 30 s run moves with that drift.  So the worker also times a fixed
piece of reference work, one that does not use heisenrep, before, between
and after the timed iterations, and the timed metrics are reported in
reference seconds:

    reference seconds = wall seconds * NOMINAL_S / (reference time)

where the reference time is the same statistic (median, mean or trimmed
mean) of the reference runs of the same loop as is taken of the wall times.
A change to heisenrep changes the iteration times and leaves the reference
alone, so it shows in full.

Work of different kinds slows down by different amounts when the host is
busy, so there are two references.  `arrays` (FFTs and elementwise
arithmetic at N = 2^16) follows the FFT-bound spectral-large chain.  `mixed`
(interpreter-bound Python, both arithmetic in a loop and calls on small
objects, plus a share of `arrays`) follows the interpreter-bound workloads
and importing.  Each was chosen by timing candidate references between the
iterations of each workload for several minutes and keeping the one whose
ratio to the iteration time moved least between 30 s windows.  NOMINAL_S is
close to the typical time of either reference on the machine the benchmark
was written on, so there a reference second reads close to a wall second.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.1        # reference seconds of one run of any reference
EVERY_S = 1.0          # least wall time between two reference points in a loop
RUNS_PER_POINT = 2     # reference runs at each point; each is one sample
TRIM = 0.2             # share of samples trimmed at each end for a trimmed mean

_LARGE = np.exp(2j * np.pi * 5.0 * np.arange(2 ** 16) / 2 ** 16)
_X_LARGE = np.linspace(-8.0, 8.0, 2 ** 16)


class _Piece:
    __slots__ = ("lo", "hi", "coef")

    def __init__(self, lo, hi, coef):
        self.lo, self.hi, self.coef = lo, hi, coef

    def moment(self, n):
        return sum(c * (self.hi ** (n + k + 1) - self.lo ** (n + k + 1)) / (n + k + 1)
                   for k, c in enumerate(self.coef))


def _objects_work(rounds: int) -> float:
    total = 0.0
    table = {}
    for i in range(rounds):
        piece = _Piece(0.1 * (i % 7), 1.0 + 0.1 * (i % 5), (1.0, -0.5, 0.25, math.sqrt(i + 1.0)))
        total += piece.moment(i % 4)
        table[i & 255] = (piece.lo, total)
    return total + len(table)


def _loop_work(rounds: int) -> float:
    total = 0.0
    table = {}
    for i in range(rounds):
        total += math.sqrt(i + 1.0) * 0.5
        table[i & 255] = total
    return total + len(table)


def _array_work(rounds: int) -> float:
    total = 0.0
    z = _LARGE
    for _ in range(rounds):
        z = np.fft.ifft(np.fft.fft(z) * _LARGE)
        g = np.exp(-0.5 * _X_LARGE * _X_LARGE) * (1.0 + _X_LARGE * (0.5 - _X_LARGE))
        total += float(np.linalg.norm(z)) + float(np.abs(g).sum())
    return total


_WORK = {
    "arrays": lambda: _array_work(24),
    "mixed": lambda: _objects_work(11_000) + _loop_work(70_000) + _array_work(9),
}
KINDS = tuple(_WORK)
_warm = set()


def reference_s(kind: str, repeats: int = 1) -> float:
    """Wall time of one run of the `kind` reference, the median of `repeats` runs."""
    work = _WORK[kind]
    if kind not in _warm:  # the first run in a process pays for FFT plans and page faults
        work()
        _warm.add(kind)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def trimmed_mean(values: list[float], share: float = TRIM) -> float:
    """Mean of the values left after dropping `share` of them at each end."""
    values = sorted(values)
    k = int(len(values) * share)
    return statistics.fmean(values[k:len(values) - k])


def scale(ref_s: list[float], centre=statistics.median) -> float:
    """Reference seconds per wall second, for a stretch whose reference runs
    took ref_s; `centre` must be the statistic taken of the wall times."""
    return NOMINAL_S / centre(ref_s)


def central_s(wall_s: list[float], ref_s: list[float]) -> float:
    """The typical iteration of a loop, in reference seconds.

    The host's speed has modes: stretches of seconds in which everything runs
    30-40% faster.  A median of a few dozen samples jumps between modes when a
    run spends about half its time in each, so iterations and reference runs
    both use trimmed means, which move smoothly with the share of time spent
    in each mode.
    """
    return trimmed_mean(wall_s) * scale(ref_s, trimmed_mean)
