"""Samples how fast the host runs while a round or a set-up is timed.

The benchmark shares a host whose speed drifts by up to 2x, over times from
under a second to minutes (see README.md, "Host noise").  Process CPU time
drifts with wall time, so the slowdown is not time taken from the process
but slower execution.  While a round or a set-up runs, ``Sampler``
interrupts it every ``PERIOD_S`` of wall time (``SIGALRM``) and times a fixed
reference slice made of the ``PARTS`` that match the work's hot paths: an
interpreter-bound Python loop, many NumPy calls on 13-dim arrays, two 169-dim
complex matrix products.  The slice uses none of the program's code.  The
work's own time is its wall time less the slices, and it is rescaled to a
host on which each part takes its ``NOMINAL_S``::

    corrected = (wall - slices) * sum of NOMINAL_S / mean slice time

A change to the program leaves the slice as it is, so the corrected time
moves with the program and not with the host.  The host's slow states do not
slow all code alike, hence the choice of parts: the sweep's matrix products
slowed by half in one state in which the first two parts did not, and in
another the products slowed while the pure-Python ``pair_trapping`` round
did not.  321-dim dense matvecs tracked the host worse than the first two
parts, on every workload, four_site included.
"""
from __future__ import annotations

import signal
import statistics
import time

#: wall time between two slices; a slice takes about a tenth of it
PERIOD_S = 0.1

_OPERANDS = None


def _operands():
    """The NumPy parts' inputs, made on first use: set-up is sampled from
    process start, before NumPy loads."""
    global _OPERANDS
    if _OPERANDS is None:
        import numpy as np
        rng = np.random.default_rng(12345)
        small = (rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))) / 4.0
        small_v = rng.standard_normal(13) + 0j
        gemm = (rng.standard_normal((169, 169)) + 1j * rng.standard_normal((169, 169))) / 13.0
        _OPERANDS = (small, small_v, gemm)
    return _OPERANDS


def _python_part(n: int = 20_000) -> float:
    acc, table = 0.0, {}
    for i in range(n):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    return acc + len(table)


def _small_numpy_part(n: int = 500) -> complex:
    import numpy as np
    small, x, _ = _operands()
    for _ in range(n):
        x = small @ x
        x = x / np.sqrt(np.vdot(x, x).real)
    return complex(x[0])


def _gemm_part(n: int = 2) -> complex:
    _, _, gemm = _operands()
    x = gemm
    for _ in range(n):
        x = gemm @ x
    return complex(x[0, 0])


PARTS = {"python": _python_part, "small_numpy": _small_numpy_part, "gemm": _gemm_part}
#: the host speed corrected times are quoted at: each part's median time on a
#: shared 2-vCPU Xeon at 2.1 GHz, one BLAS thread
NOMINAL_S = {"python": 0.0045, "small_numpy": 0.0031, "gemm": 0.0026}


class Sampler:
    """Times a slice of ``parts`` every ``PERIOD_S`` while the block runs."""

    def __init__(self, parts=tuple(PARTS)):
        self._parts = [PARTS[name] for name in parts]
        if parts != ("python",):
            _operands()
        self.nominal = sum(NOMINAL_S[name] for name in parts)
        self.slices: list[tuple[float, float]] = []
        self._busy = False
        self._old = None

    def _slice(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        for part in self._parts:
            part()
        self.slices.append((start, time.perf_counter()))
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.slices:          # a block shorter than one period
            self._slice()
        return False

    def within(self, start: float, end: float) -> float:
        """Slice time that fell inside [start, end]."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.slices)

    def scale(self) -> float:
        """Nominal over mean slice time: the host's mean speed over the block."""
        return self.nominal / statistics.fmean(b - a for a, b in self.slices)
