"""The MUSIC AoA estimator (Schmidt 1986), as described in Section 2.2.

MUSIC eigendecomposes the array covariance, splits eigenvectors into a
signal and a noise subspace, and scans a steering vector over the angle
grid; orthogonality between steering vectors at true arrival angles and
the noise subspace produces sharp pseudo-spectrum peaks (Eq. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis.contracts import check_shapes, ensure_finite
from repro.constants import DEFAULT_WAVELENGTH_M, MAX_DOMINANT_PATHS
from repro.dsp.covariance import sample_covariance
from repro.dsp.peaks import find_spectrum_peaks
from repro.dsp.smoothing import default_subarray_size, spatially_smoothed_covariance
from repro.dsp.spectrum import AngularSpectrum, SpectrumPeak, default_angle_grid
from repro.errors import EstimationError
from repro.rf.array import cached_steering_matrix
from repro.utils.arrays import ArrayLike, ComplexArray, FloatArray


def sorted_eigh(matrices: ComplexArray) -> Tuple[FloatArray, ComplexArray]:
    """Descending eigendecomposition of Hermitian matrices (stacked ok).

    The one place the eigh-then-sort sequence lives: the scalar
    reference (:func:`eigendecompose`) and the batched kernel
    (:func:`repro.dsp.batch.batched_eigendecompose`) both call it, so
    the two orderings cannot drift.  Accepts a single ``(L, L)`` matrix
    or an ``(N, L, L)`` stack; the reorder is a pure gather along the
    trailing axes, so per-item results are identical either way.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(matrices)
    order = np.argsort(eigenvalues, axis=-1)[..., ::-1]
    values = np.take_along_axis(eigenvalues, order, axis=-1)
    vectors = np.take_along_axis(eigenvectors, order[..., None, :], axis=-1)
    # eigh of a Hermitian matrix returns mathematically real eigenvalues;
    # .real only strips the zero imaginary storage.
    return values.real, vectors  # reprolint: disable=RL003


@check_shapes(covariance="M,M")
@ensure_finite
def eigendecompose(covariance: ArrayLike) -> Tuple[FloatArray, ComplexArray]:
    """Eigenvalues (descending) and matching eigenvectors of ``R``."""
    r = np.asarray(covariance, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise EstimationError("covariance must be a square matrix")
    return sorted_eigh(r)


def estimate_num_sources(
    eigenvalues: ArrayLike,
    threshold_ratio: float = 0.03,
    max_sources: Optional[int] = None,
) -> int:
    """Count signal eigenvalues by thresholding against the largest.

    The paper chooses ``P`` as the number of eigenvalues "larger than a
    threshold"; the default ratio marks everything within roughly 15 dB
    of the dominant eigenvalue as signal.
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    if values.size == 0:
        raise EstimationError("no eigenvalues supplied")
    if values.size == 1:
        # Without this guard a single-element array would count one
        # source and send noise_subspace into the baffling
        # "num_sources must be in (0, 1)" failure.
        raise EstimationError(
            "a single-element array leaves no noise subspace; "
            "MUSIC needs at least two antennas"
        )
    peak = values.max()
    if peak <= 0.0:
        return 0
    count = int(np.sum(values > threshold_ratio * peak))
    ceiling = values.size - 1 if max_sources is None else min(max_sources, values.size - 1)
    return max(1, min(count, ceiling))


def mdl_num_sources(eigenvalues: ArrayLike, num_snapshots: int) -> int:
    """Minimum-description-length source count (Wax & Kailath 1985).

    Provided as an alternative to plain thresholding; useful when the
    SNR is unknown.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=np.float64))[::-1]
    lam = np.clip(lam, 1e-18, None)
    m = lam.size
    if num_snapshots < 1:
        raise EstimationError("MDL requires at least one snapshot")
    best_k, best_score = 0, math.inf
    for k in range(m):
        tail = lam[k:]
        geometric = np.exp(np.mean(np.log(tail)))
        arithmetic = np.mean(tail)
        ratio = geometric / arithmetic
        score = -num_snapshots * (m - k) * math.log(max(ratio, 1e-18)) + 0.5 * k * (
            2 * m - k
        ) * math.log(num_snapshots)
        if score < best_score:
            best_k, best_score = k, score
    return max(1, min(best_k, m - 1))


@check_shapes(returns="complex:M,*", covariance="M,M")
def noise_subspace(covariance: ArrayLike, num_sources: int) -> ComplexArray:
    """The noise-subspace eigenvector matrix ``U_N``, shape ``(M, M - P)``."""
    eigenvalues, eigenvectors = eigendecompose(covariance)
    m = eigenvalues.size
    if not 0 < num_sources < m:
        raise EstimationError(
            f"num_sources must be in (0, {m}) to leave a noise subspace"
        )
    return eigenvectors[:, num_sources:]


@check_shapes(un="complex:M,*", angle_grid="G")
def music_spectrum_from_subspace(
    un: ComplexArray,
    spacing_m: float,
    wavelength_m: float,
    angle_grid: Optional[FloatArray] = None,
) -> AngularSpectrum:
    """MUSIC pseudo-spectrum ``1 / ||U_N^H a(theta)||^2`` over the grid."""
    grid = default_angle_grid() if angle_grid is None else np.asarray(angle_grid)
    m = un.shape[0]
    a = cached_steering_matrix(grid, m, spacing_m, wavelength_m)  # (M, G)
    projected = un.conj().T @ a  # (M - P, G)
    denom = np.sum(np.abs(projected) ** 2, axis=0)
    values = 1.0 / np.clip(denom, 1e-15, None)
    return AngularSpectrum(grid, values)


@dataclass
class MusicEstimator:
    """Configurable MUSIC front end operating on raw array snapshots.

    Parameters
    ----------
    spacing_m:
        Element spacing of the physical array.
    wavelength_m:
        Carrier wavelength.
    num_sources:
        Fixed model order ``P``; ``None`` selects it per call via
        eigenvalue thresholding (the paper's approach).
    subarray_size:
        Spatial-smoothing subarray length ``L``; ``None`` picks a
        default from the array size.  Set equal to ``M`` to disable
        smoothing (used by the ablation benchmark).
    angle_grid:
        Scan grid over ``[0, pi]``; defaults to 0.5 degree steps.
    forward_backward:
        Whether smoothing uses forward-backward averaging.
    """

    spacing_m: float
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    num_sources: Optional[int] = None
    subarray_size: Optional[int] = None
    angle_grid: Optional[FloatArray] = None
    forward_backward: bool = True
    source_threshold_ratio: float = 0.03

    def _resolve_subarray(self, num_antennas: int) -> int:
        if self.subarray_size is not None:
            return self.subarray_size
        return default_subarray_size(num_antennas, MAX_DOMINANT_PATHS)

    def smoothed_covariance(self, snapshots: ArrayLike) -> ComplexArray:
        """The (possibly smoothed) covariance this estimator works on."""
        with obs.span("music.covariance"):
            x = np.asarray(snapshots, dtype=np.complex128)
            sub_len = self._resolve_subarray(x.shape[0])
            if sub_len >= x.shape[0]:
                return sample_covariance(x)
            return spatially_smoothed_covariance(x, sub_len, self.forward_backward)

    def noise_subspace(self, snapshots: ArrayLike) -> ComplexArray:
        """Noise subspace ``U_N`` for these snapshots."""
        covariance = self.smoothed_covariance(snapshots)
        with obs.span("music.eigendecomposition", size=covariance.shape[0]):
            eigenvalues, _ = eigendecompose(covariance)
            p = self.num_sources
            if p is None:
                p = estimate_num_sources(
                    eigenvalues,
                    self.source_threshold_ratio,
                    max_sources=covariance.shape[0] - 1,
                )
            obs.count("music.sources_detected", p)
            return noise_subspace(covariance, p)

    def spectrum(self, snapshots: ArrayLike) -> AngularSpectrum:
        """MUSIC pseudo-spectrum of the snapshots."""
        with obs.span("music.spectrum"):
            un = self.noise_subspace(snapshots)
            return music_spectrum_from_subspace(
                un, self.spacing_m, self.wavelength_m, self.angle_grid
            )

    def estimate_aoas(
        self, snapshots: ArrayLike, max_peaks: Optional[int] = None
    ) -> List[SpectrumPeak]:
        """Arrival angles as spectrum peaks, strongest first."""
        peaks = find_spectrum_peaks(self.spectrum(snapshots))
        if max_peaks is not None:
            peaks = peaks[:max_peaks]
        return peaks
