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
from repro.dsp.batch import batched_bartlett_spectra
from repro.dsp.covariance import sample_covariance
from repro.dsp.spectrum import AngularSpectrum, default_angle_grid
from repro.utils.arrays import ArrayLike, FloatArray


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
    whole grid instead of a per-angle loop): a one-item call of
    :func:`repro.dsp.batch.batched_bartlett_spectra`.
    """
    grid = default_angle_grid() if angle_grid is None else np.asarray(angle_grid)
    r = sample_covariance(snapshots)
    return AngularSpectrum(
        grid, batched_bartlett_spectra(r[None], spacing_m, wavelength_m, grid)[0]
    )
