"""Machine speed, measured by a fixed calibration kernel around and during jobs.

On a shared VM the speed of the machine drifts by 20-40 % within seconds
and from minute to minute, and CPU time drifts with it: the same job takes
60 ms in one second and 105 ms in the next.  The kernel below does a fixed
amount of the kinds of work the program does (elementwise numpy passes over
a few MB of complex arrays, a small batched Hermitian eigensolve and a
Python loop) and imports nothing of hexband, so a change to the program
cannot change its cost.  Of the kernels tried, memory-bound array work
tracked the jobs best and a pure Python loop alone worst; the mix is meant
to follow the short, interpreter-bound jobs and the long, array-bound ones.

``Meter.run`` times one job: the kernel runs before and after it and, from
a SIGALRM handler, every ``TICK_S`` while it runs, so that a job of several
seconds is scaled by the speed the machine had while it ran.  The job's
wall time, less the time spent in the handler, is scaled by ``REFERENCE_S``
/ (median kernel time): the benchmark reports seconds at the reference
speed, at which one kernel round takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# one kernel round takes about this long on a shared 2-core Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS); it only sets the scale of the figures
REFERENCE_S = 0.004
ROUNDS = 3          # kernel rounds per measurement between jobs (median kept)
TICK_S = 0.25       # one kernel round per tick while a job runs

_rng = np.random.default_rng(20240515)
_Z = _rng.standard_normal(50_000) + 1j * _rng.standard_normal(50_000)
_M = _rng.standard_normal((200, 4, 4)) + 1j * _rng.standard_normal((200, 4, 4))
_M = _M + np.conj(np.swapaxes(_M, 1, 2))


def _round() -> float:
    """Seconds of one kernel round."""
    start = time.perf_counter()
    acc = float(np.abs(np.exp(1j * _Z.real) + _Z).sum())
    acc += float(np.linalg.eigvalsh(_M)[0, 0])
    for i in range(1000):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - start


def measure() -> float:
    """Seconds of one kernel round now (median of ``ROUNDS``)."""
    return statistics.median(_round() for _ in range(ROUNDS))


class Meter:
    """Times calls one after another, each scaled to the reference speed."""

    def __init__(self) -> None:
        self.before = measure()

    def run(self, call):
        """``call()`` returns a dict with its wall ``seconds``; they become
        ``wall_seconds``, and ``seconds`` the scaled time of the work."""
        ticks: list[float] = []
        spent = 0.0

        def on_tick(signum, frame) -> None:
            nonlocal spent
            start = time.perf_counter()
            ticks.append(_round())
            spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        after = measure()
        kernel = statistics.median([self.before, after, *ticks])
        self.before = after
        result["wall_seconds"] = result["seconds"]
        result["seconds"] = (result["seconds"] - spent) * REFERENCE_S / kernel
        result["kernel_s"] = kernel
        return result
