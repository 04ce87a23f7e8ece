"""Machine speed: timings reported against a fixed reference kernel.

A shared benchmark machine changes speed: another tenant's load can
make a core 1.5-1.9x slower for a fraction of a second or for a whole
run.  CPU time does not remove it (the core itself is slower, not
descheduled), and neither does a minimum over repeats when the slow
spell outlasts the run.  So the benchmark runs a fixed reference kernel
right before every unit of timed work and reports the work's time at
the speed the kernel saw:

    reported = measured * REFERENCE_S / kernel time

The open loop cannot put the kernel before each window, so the serve
host runs it on its worker thread right after each fix it emits, and
only the part of a window's read-to-fix time that the machine's speed
sets is scaled (see :mod:`bench.serve`).  A set-up is one long call, so
the kernel is sampled evenly while it runs: by a timer signal in the
same thread, or, while the serve host builds, by the waiting benchmark
process (both vCPUs of the VM speed up and slow down together).

The kernel is NumPy only, shaped like the program's own work: a small
Hermitian eigendecomposition and a MUSIC-style pseudospectrum per pair.
No change to ``src/`` can change it.  A slower program is slower against
the same kernel, so a regression still shows; a slower machine slows
both, and the ratio stays.  ``bench/README.md`` gives the measurements
behind the choice of kernel.  :data:`REFERENCE_S` is the kernel's median
time in that VM's fast mode, so reported numbers read close to its wall
times.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable, List, Sequence, Tuple, TypeVar

import numpy as np

_clock = time.perf_counter

T = TypeVar("T")

#: Median kernel time on the 2-vCPU VM of ``bench/README.md``, fast mode.
REFERENCE_S = 0.85e-3

#: Seconds between the kernel samples taken while a set-up runs.
SAMPLE_EVERY_S = 0.05

_rng = np.random.default_rng(0)
_noise = _rng.standard_normal((24, 8, 8)) + 1j * _rng.standard_normal((24, 8, 8))
_MATRICES = _noise @ np.conj(np.transpose(_noise, (0, 2, 1)))
_STEERING = np.exp(
    1j * np.pi * np.outer(np.arange(8), np.cos(np.linspace(0.0, np.pi, 181)))
)


def kernel() -> float:
    """One run of the reference work; returns a checksum."""
    total = 0.0
    for matrix in _MATRICES:
        _, vectors = np.linalg.eigh(matrix)
        noise = vectors[:, :6]
        spectrum = 1.0 / np.sum(np.abs(noise.conj().T @ _STEERING) ** 2, axis=0)
        total += float(spectrum.max())
    return total


def time_kernel() -> float:
    """Seconds one kernel run takes now."""
    started = _clock()
    kernel()
    return _clock() - started


def at_reference(seconds: float, kernels: Sequence[float]) -> float:
    """``seconds`` of work at the reference speed.

    ``kernels`` are kernel times sampled evenly over those seconds.  The
    work a stretch of time does is inversely proportional to how slow
    the machine was then, hence the mean of the reciprocals.
    """
    return seconds * REFERENCE_S * statistics.fmean(1.0 / k for k in kernels)


def timed_set_up(build: Callable[[], T]) -> Tuple[float, T]:
    """``(reference seconds, result)`` of one ``build()`` call.

    Set-up is one long call, so a timer signal samples the kernel inside
    it every :data:`SAMPLE_EVERY_S` (at the next bytecode boundary, on
    this thread); the samples' own time is taken out.  Main thread only.
    """
    samples: List[float] = []

    def sample(signum: int, frame: Any) -> None:
        samples.append(time_kernel())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        started = _clock()
        built = build()
        elapsed = _clock() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    work = elapsed - sum(samples)
    return at_reference(work, samples or [time_kernel()]), built
