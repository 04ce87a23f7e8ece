"""Bartlett (align-and-sum) power estimation — Eq. 12-13 of the paper.

Applying the conjugate steering weights ``exp(+j*omega(m, theta))`` to
the per-antenna samples makes the signal arriving from ``theta`` add
constructively (amplitude grows ``M``-fold) while signals from other
directions add with pseudo-random phases and average out.  The squared
magnitude of the aligned sum, scaled by ``1/M^2``, therefore estimates
the signal *power* arriving from ``theta``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.contracts import check_shapes
from repro.dsp.covariance import sample_covariance
from repro.dsp.spectrum import AngularSpectrum, default_angle_grid
from repro.errors import EstimationError
from repro.rf.array import cached_steering_matrix
from repro.utils.arrays import ArrayLike, FloatArray


@check_shapes(covariance="M,M", angle_grid="G")
def bartlett_spectrum_from_covariance(
    covariance: ArrayLike,
    spacing_m: float,
    wavelength_m: float,
    angle_grid: Optional[FloatArray] = None,
) -> AngularSpectrum:
    """Per-direction power ``a(theta)^H R a(theta) / M^2`` from ``R``.

    The covariance-domain form of Eq. 13, behind
    :func:`bartlett_power_spectrum`; P-MUSIC uses the stacked form
    :func:`repro.dsp.batch.batched_bartlett_spectra`.
    """
    r = np.asarray(covariance, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise EstimationError("covariance must be a square (M, M) matrix")
    m = r.shape[0]
    grid = default_angle_grid() if angle_grid is None else np.asarray(angle_grid)
    a = cached_steering_matrix(grid, m, spacing_m, wavelength_m)  # (M, G)
    # GEMM for R a, then one contraction for sum_m conj(a) * (R a).
    # The quadratic form a^H R a of a Hermitian R is mathematically real;
    # np.real only strips round-off in the imaginary storage.
    product = r @ a  # (M, G)
    values = np.real(np.einsum("mg,mg->g", a.conj(), product)) / (m * m)  # reprolint: disable=RL003
    return AngularSpectrum(grid, np.clip(values, 0.0, None))


@check_shapes(snapshots="M,N", angle_grid="G")
def bartlett_power_spectrum(
    snapshots: ArrayLike,
    spacing_m: float,
    wavelength_m: float,
    angle_grid: Optional[FloatArray] = None,
) -> AngularSpectrum:
    """Per-direction power ``PB(theta)`` from raw snapshots (Eq. 13).

    The snapshot average of ``|sum_m x_m(t) e^{j omega(m, theta)}|^2 / M^2``
    equals ``a(theta)^H R a(theta) / M^2`` for the sample covariance
    ``R``, which is how it is computed here (one matrix product for the
    whole grid instead of a per-angle loop).
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2:
        raise EstimationError("snapshots must be 2-D (M, N)")
    return bartlett_spectrum_from_covariance(
        sample_covariance(x), spacing_m, wavelength_m, angle_grid
    )


def bartlett_power_at(
    snapshots: ArrayLike,
    theta: float,
    spacing_m: float,
    wavelength_m: float,
) -> float:
    """Bartlett power estimate for a single direction ``theta``."""
    spectrum = bartlett_power_spectrum(
        snapshots, spacing_m, wavelength_m, np.asarray([theta, theta + 1e-9])
    )
    return float(spectrum.values[0])
