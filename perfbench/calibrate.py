"""Reference kernel: how fast the host runs the kind of code mfquad runs.

On a small shared host the speed of one core moves by a third as other
tenants load the physical core and its caches, and it stays in one state
for a fraction of a second to minutes.  That moves every timing of a run
together.  The worker runs this kernel before each command, after each
command, and inside a command after a unit of work (an epoch, a trial, a
count) once ``EVERY_S`` has passed since the last run.  Each stretch of a
command between two kernel runs is then scaled by ``REF_KERNEL_S`` over
the mean of the two kernel times at its ends (``reference_seconds``).  The
kernel's own time is in no stretch.

The kernel is fixed code of the benchmark's own, so its time moves with the
host's state and never with a change to the package.  Its four parts are
the kinds of work mfquad's hot paths do: interpreted Python arithmetic,
numpy calls on small arrays, a list comprehension, and a stable argsort of a
vector as long as the MLP's parameter vector.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# About the kernel's median time on the 2-core Xeon host the bounds were
# sized on; it only sets the scale of the adjusted times.
REF_KERNEL_S = 0.008
REPEATS = 3
EVERY_S = 0.5

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.random((64, 16))
_LONG = _RNG.standard_normal(25_000)


def _python() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * 3 % 7


def _small_arrays() -> None:
    acc = 0.0
    for i in range(400):
        v = _SMALL[i & 63]
        if np.any(v > 0.5):
            acc += float(v @ v)


def _list_comprehension() -> None:
    sum([x * 2 for x in range(20_000)])


def _argsort() -> None:
    np.argsort(_LONG, kind="stable")


PARTS = (_python, _small_arrays, _list_comprehension, _argsort)


def kernel_s() -> float:
    """Sum over the parts of each part's median time over ``REPEATS`` runs."""
    total = 0.0
    for part in PARTS:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        total += median(times)
    return total


def mark() -> tuple[float, float, float]:
    """Runs the kernel; returns the clock before and after it, and its time."""
    begin = time.perf_counter()
    k = kernel_s()
    return begin, time.perf_counter(), k


def reference_seconds(marks: list, start: float, end: float) -> float:
    """The interval [start, end] in reference seconds.

    ``marks`` are the ``mark()`` results around and inside the interval, in
    time order.  The stretch between two kernel runs counts at
    ``REF_KERNEL_S`` over the mean of their times.
    """
    total = 0.0
    for (_, s, k0), (e, _, k1) in zip(marks, marks[1:]):
        overlap = min(end, e) - max(start, s)
        if overlap > 0:
            total += overlap * 2.0 * REF_KERNEL_S / (k0 + k1)
    return total
