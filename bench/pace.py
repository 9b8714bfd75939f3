"""Core-speed sensor: converts wall time into seconds at a reference speed.

The machines this benchmark runs on give it cores of a shared host, and a
core's speed changes by up to about 1.7x within seconds as other tenants come
and go.  Passes last seconds, so their wall times carry that drift.  While a
``Pacer`` runs, a timer signal fires every ``period_s`` seconds and times
``kernel`` in the thread being measured: a fixed mix of small numpy
matrix-vector products and dictionary updates, the kinds of work the
library's inner loops do, that uses no sftlearn code.  Each stretch of time
between two readings is scaled by ``REF_KERNEL_S`` over the mean of the two
kernel times, and the kernel's own time is left out.  The sum is the
interval's length in seconds of a core that runs the kernel in
``REF_KERNEL_S``; on a steady core it is the wall time times a constant.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
REF_KERNEL_S = 100e-6  # about the kernel's time on a quiet core of the 2-core host
# A fresh interpreter's import of the library runs the kernel slower than a
# pass does (cold caches), so set-up launches have a reference of their own,
# and a shorter period to get enough readings in an import of ~0.1 s.
IMPORT_PERIOD_S = 0.01
REF_IMPORT_KERNEL_S = 250e-6

_MATRIX = np.random.default_rng(0).random((9, 9))
_KEYS = list(range(150))


def kernel() -> int:
    v = np.ones(9)
    for _ in range(15):
        v = _MATRIX @ v
        v = v / v.sum()
    counts: dict = {}
    for i in _KEYS:
        counts[i & 31] = counts.get(i & 31, 0) + int(str(i))
    return len(counts)


class Pacer:
    """Usage: ``p = Pacer(); p.start(); ...; p.stop()``, then read ``wall_s``
    (the interval, kernel time included), ``work_s`` (kernel time left out),
    ``ref_s`` (``work_s`` at the reference speed) and ``kernel_s``."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.readings: list[tuple[float, float]] = []  # (start, duration)

    def _read(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        self.readings.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self.readings.clear()
        kernel()  # warm-up, untimed
        self._read()
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._read()
        (first, _), (last, took) = self.readings[0], self.readings[-1]
        self.wall_s = last + took - first
        self.kernel_s = [d for _, d in self.readings]
        self.work_s = self.wall_s - sum(self.kernel_s)
        self.ref_s = sum((t1 - t0 - d0) * 2 * REF_KERNEL_S / (d0 + d1)
                         for (t0, d0), (t1, d1) in zip(self.readings, self.readings[1:]))
