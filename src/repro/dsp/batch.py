"""P-MUSIC (Eq. 14) over N problems at once: the one implementation.

Every fix runs the Section 4.2 chain (covariance → smoothing →
eigendecomposition → MUSIC → ``Nor(·)`` → Bartlett → P-MUSIC,
Eqs. 8/13/14) for each of the ~100 (reader, tag) pairs.  Each problem
is tiny — an 8×8 ``eigh``, a handful of small matmuls — so a per-pair
loop would cost Python/NumPy dispatch, not arithmetic.

:func:`batched_pmusic_from_covariances` runs the chain over an
``(N, M, M)`` covariance stack: diagonal-block smoothing of the full
``R``, one batched Hermitian ``eigh`` whose eigenvalues also count the
sources, one masked projection per source count for the noise
subspaces, the per-lobe ``Nor(·)`` as one fused ``(N, G)`` division
(peak detection stays per item), and Bartlett power ``a^H R a / M^2``
from the unsmoothed ``R``.  Every P-MUSIC caller goes through it:
snapshot callers (:func:`batched_pmusic_spectra`,
:class:`repro.dsp.pmusic.PMusicEstimator`,
:class:`repro.wifi.WidebandPMusic`) compute the sample covariance
first, and the streaming runner passes its incrementally maintained
covariances directly.

``tests/test_property_batch.py`` checks the kernel against the
textbook Eq. 14 in ``tests/pmusic_oracle.py`` (snapshot-domain
smoothing, per-item loops) to a tolerance scaled to each spectrum's
peak, and checks that a stack equals the same items run one by one
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.constants import MAX_DOMINANT_PATHS
from repro.dsp.music import sorted_eigh
from repro.dsp.peaks import candidate_peak_indices, region_starts_from_indices
from repro.dsp.smoothing import default_subarray_size
from repro.dsp.spectrum import (
    AngularSpectrum,
    default_angle_grid,
    spectrum_from_validated,
)
from repro.errors import EstimationError
from repro.rf.array import cached_steering_matrix
from repro.utils.arrays import ArrayLike, ComplexArray, FloatArray, IntArray


@dataclass(frozen=True)
class BatchPMusicConfig:
    """The knobs of one P-MUSIC configuration.

    The union of :class:`repro.dsp.pmusic.PMusicEstimator` and its inner
    :class:`repro.dsp.music.MusicEstimator` knobs;
    :func:`repro.dsp.pmusic.config_from_estimator` builds one from an
    estimator.
    """

    spacing_m: float
    wavelength_m: float
    num_sources: Optional[int] = None
    subarray_size: Optional[int] = None
    forward_backward: bool = True
    source_threshold_ratio: float = 0.03
    peak_min_relative_height: float = 0.02
    peak_min_separation: float = 0.05
    angle_grid: Optional[FloatArray] = None

    def grid(self) -> FloatArray:
        """The scan grid this configuration evaluates on."""
        if self.angle_grid is None:
            return default_angle_grid()
        return np.asarray(self.angle_grid, dtype=np.float64)

    def resolve_subarray(self, num_antennas: int) -> int:
        """Subarray length ``L``, defaulted from the array size."""
        if self.subarray_size is not None:
            return self.subarray_size
        return default_subarray_size(num_antennas, MAX_DOMINANT_PATHS)


def _as_stack(arrays: ArrayLike, kind: str) -> ComplexArray:
    stack = np.asarray(arrays, dtype=np.complex128)
    if stack.ndim != 3:
        raise EstimationError(f"{kind} stack must be 3-D, got shape {stack.shape}")
    return stack


def batched_sample_covariance(snapshots: ArrayLike) -> ComplexArray:
    """Stacked ``R_i = X_i X_i^H / N`` over an ``(N, M, S)`` snapshot stack.

    The stacked form of :func:`repro.dsp.covariance.sample_covariance`,
    Hermitian-symmetrized the same way.
    """
    x = _as_stack(snapshots, "snapshot")
    if x.shape[2] < 1:
        raise EstimationError("need at least one snapshot")
    r = np.matmul(x, x.conj().transpose(0, 2, 1)) / x.shape[2]
    return (r + r.conj().transpose(0, 2, 1)) / 2.0


def _batched_forward_backward(covariances: ComplexArray) -> ComplexArray:
    length = covariances.shape[1]
    j = np.fliplr(np.eye(length))
    return (covariances + np.matmul(np.matmul(j, covariances.conj()), j)) / 2.0


def batched_smoothed_from_full(
    covariances: ArrayLike,
    subarray_size: int,
    forward_backward: bool = True,
) -> ComplexArray:
    """Spatial smoothing computed from full ``(N, M, M)`` covariances.

    The average of the snapshot-domain subarray covariances
    (:func:`repro.dsp.smoothing.spatially_smoothed_covariance`) equals
    the average of the ``(L, L)`` diagonal blocks of the full
    covariance, so smoothing needs no snapshots.  Each block is
    Hermitian-symmetrized before it is summed.
    """
    r = _as_stack(covariances, "covariance")
    m = r.shape[1]
    if r.shape[2] != m:
        raise EstimationError("covariances must be square (N, M, M)")
    if not 2 <= subarray_size <= m:
        raise EstimationError(
            f"subarray size must be in [2, {m}], got {subarray_size}"
        )
    num_subarrays = m - subarray_size + 1
    accum = np.zeros(
        (r.shape[0], subarray_size, subarray_size), dtype=np.complex128
    )
    for start in range(num_subarrays):
        block = r[:, start : start + subarray_size, start : start + subarray_size]
        accum += (block + block.conj().transpose(0, 2, 1)) / 2.0
    smoothed = accum / num_subarrays
    if forward_backward:
        smoothed = _batched_forward_backward(smoothed)
    return smoothed


def batched_eigendecompose(covariances: ArrayLike) -> Tuple[FloatArray, ComplexArray]:
    """Descending eigenvalues/vectors of an ``(N, L, L)`` Hermitian stack.

    The eigh-then-sort sequence is :func:`repro.dsp.music.sorted_eigh`,
    shared with plain MUSIC so the two orderings cannot drift.
    """
    r = _as_stack(covariances, "covariance")
    if r.shape[1] != r.shape[2]:
        raise EstimationError("covariances must be square (N, L, L)")
    return sorted_eigh(r)


def batched_estimate_num_sources(
    eigenvalues: ArrayLike,
    threshold_ratio: float = 0.03,
    max_sources: Optional[int] = None,
) -> IntArray:
    """Vectorized :func:`repro.dsp.music.estimate_num_sources` over rows.

    Applies the same threshold/clamp arithmetic per row, including the
    ``M == 1`` guard that the one-row function raises up front.
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] == 0:
        raise EstimationError("no eigenvalues supplied")
    if values.shape[1] == 1:
        raise EstimationError(
            "a single-element array leaves no noise subspace; "
            "MUSIC needs at least two antennas"
        )
    size = values.shape[1]
    peak = values.max(axis=1)
    count = np.sum(values > threshold_ratio * peak[:, None], axis=1)
    ceiling = size - 1 if max_sources is None else min(max_sources, size - 1)
    result = np.maximum(1, np.minimum(count, ceiling))
    result[peak <= 0.0] = 0
    return result.astype(np.int64)


def batched_music_spectra(
    eigenvectors: ComplexArray,
    num_sources: IntArray,
    spacing_m: float,
    wavelength_m: float,
    angle_grid: FloatArray,
) -> FloatArray:
    """All N MUSIC pseudo-spectra from a descending eigenvector stack.

    Items are grouped by their source count ``P`` and each group runs
    one stacked ``(L - P, L) @ (L, G)`` projection onto its noise
    subspaces: ``1 / ||U_N^H a(theta)||^2`` per item (Eq. 8).
    """
    vectors = _as_stack(eigenvectors, "eigenvector")
    length = vectors.shape[1]
    p = np.asarray(num_sources, dtype=np.int64)
    if np.any((p <= 0) | (p >= length)):
        bad = int(p[np.argmax((p <= 0) | (p >= length))])
        raise EstimationError(
            f"num_sources must be in (0, {length}) to leave a noise subspace"
            f" (got {bad})"
        )
    a = cached_steering_matrix(angle_grid, length, spacing_m, wavelength_m)
    result = np.empty((vectors.shape[0], a.shape[1]), dtype=np.float64)
    for count in np.unique(p):
        idx = np.nonzero(p == count)[0]
        un_t = vectors[idx][:, :, count:].conj().transpose(0, 2, 1)
        projected = np.matmul(un_t, a)  # (K, L - P, G)
        denom = np.sum(np.abs(projected) ** 2, axis=1)
        result[idx] = 1.0 / np.clip(denom, 1e-15, None)
    return result


def batched_bartlett_spectra(
    covariances: ArrayLike,
    spacing_m: float,
    wavelength_m: float,
    angle_grid: FloatArray,
) -> FloatArray:
    """All N Bartlett power spectra ``a^H R_i a / M^2`` (Eq. 13).

    Split into a stacked GEMM (``R_i a``, the flops) and one
    two-operand contraction (``sum_m conj(a) * (R_i a)``); a single
    three-operand einsum computes the same values at roughly 3x the
    cost of letting BLAS do the inner product.
    """
    r = _as_stack(covariances, "covariance")
    m = r.shape[1]
    if r.shape[2] != m:
        raise EstimationError("covariances must be square (N, M, M)")
    a = cached_steering_matrix(angle_grid, m, spacing_m, wavelength_m)
    product = np.matmul(r, a)  # (N, M, G)
    # The quadratic form a^H R a of a Hermitian R is mathematically real;
    # np.real only strips round-off in the imaginary storage.
    values = np.real(np.einsum("mg,nmg->ng", a.conj(), product)) / (m * m)  # reprolint: disable=RL003
    return np.clip(values, 0.0, None)


def nor_divisors(
    music_values: FloatArray,
    angle_grid: FloatArray,
    min_relative_height: float,
    min_separation: float,
) -> FloatArray:
    """The ``(N, G)`` per-lobe divisor stack behind ``Nor(·)``.

    The paper's ``Nor(·)`` scales every spectral lobe to unit height:
    the angle axis is split into one region per detected peak (at the
    minima between adjacent peaks), and each grid point's divisor is
    its region's maximum (1.0 where that maximum is non-positive).
    Raises on the first item, in item order, with no detectable peaks.
    """
    divisors = np.empty_like(music_values)
    grid_step = float(np.mean(np.diff(angle_grid)))
    distance = max(1, int(round(min_separation / grid_step)))
    size = music_values.shape[1]
    # One vectorized pass for the per-row peak heights.
    peak_values = music_values.max(axis=1)
    total_peaks = 0
    for i in range(music_values.shape[0]):
        row = music_values[i]
        peak_value = peak_values[i]
        indices = (
            candidate_peak_indices(
                row, min_relative_height * peak_value, distance
            )
            if peak_value > 0.0
            else []
        )
        starts = region_starts_from_indices(row, indices)
        if starts is None:
            raise EstimationError("cannot normalize a spectrum with no peaks")
        total_peaks += len(indices)
        # Per-region maxima; a non-positive lobe maximum divides by 1.0.
        region_max = np.maximum.reduceat(row, starts)
        if region_max.size == 1:
            divisors[i] = region_max[0] if region_max[0] > 0.0 else 1.0
            continue
        lengths = np.diff(np.append(starts, size))
        divisors[i] = np.repeat(
            np.where(region_max > 0.0, region_max, 1.0), lengths
        )
    # One aggregated count event for the whole stack.
    obs.count("pmusic.peaks_found", total_peaks)
    return divisors


def batched_pmusic_spectra(
    snapshots: ArrayLike,
    config: BatchPMusicConfig,
) -> List[AngularSpectrum]:
    """All N P-MUSIC spectra ``Omega_i(theta)`` from an ``(N, M, S)`` snapshot stack."""
    covariances = batched_sample_covariance(snapshots)
    return batched_pmusic_from_covariances(covariances, config)


def batched_pmusic_from_covariances(
    covariances: ArrayLike,
    config: BatchPMusicConfig,
) -> List[AngularSpectrum]:
    """All N P-MUSIC spectra ``Omega_i(theta)`` from an ``(N, M, M)`` stack (Eq. 14).

    MUSIC over the smoothed covariances, ``Nor(·)``, times Bartlett
    power from the *unsmoothed* covariances.  Raises
    :class:`~repro.errors.EstimationError` when any item has no noise
    subspace or no detectable peak.
    """
    r = _as_stack(covariances, "covariance")
    n, m = r.shape[0], r.shape[1]
    if r.shape[2] != m:
        raise EstimationError("covariances must be square (N, M, M)")
    if n == 0:
        return []
    grid = config.grid()
    with obs.span("batch.pmusic", batch=n, size=m):
        with obs.span("batch.covariance"):
            sub_len = config.resolve_subarray(m)
            if sub_len >= m:
                smoothed = (r + r.conj().transpose(0, 2, 1)) / 2.0
            else:
                smoothed = batched_smoothed_from_full(
                    r, sub_len, config.forward_backward
                )
        length = smoothed.shape[1]
        with obs.span("batch.eigendecomposition", size=length):
            eigenvalues, eigenvectors = batched_eigendecompose(smoothed)
            if config.num_sources is not None:
                p = np.full(n, config.num_sources, dtype=np.int64)
            else:
                p = batched_estimate_num_sources(
                    eigenvalues, config.source_threshold_ratio, length - 1
                )
            obs.count("music.sources_detected", int(p.sum()))
        with obs.span("batch.spectrum"):
            music_values = batched_music_spectra(
                eigenvectors, p, config.spacing_m, config.wavelength_m, grid
            )
        with obs.span("batch.bartlett"):
            power = batched_bartlett_spectra(
                r, config.spacing_m, config.wavelength_m, grid
            )
        with obs.span("batch.normalize"):
            divisors = nor_divisors(
                music_values,
                grid,
                config.peak_min_relative_height,
                config.peak_min_separation,
            )
            omega = power * (music_values / divisors)
    # The shared scan grid is already validated (strictly increasing
    # float64), so the per-item constructor can skip re-validation —
    # at hall-scene batch sizes that check is a measurable slice of
    # the whole normalize stage.  Every spectrum of the batch shares
    # ONE read-only axis object (the memoized default grid when the
    # config has none): baseline and online spectra then satisfy the
    # detector's ``angles is grid`` identity fast path instead of an
    # elementwise comparison per pair, and nothing can mutate the axis
    # under a sibling spectrum.
    if grid.flags.writeable:
        grid = grid.copy()
        grid.setflags(write=False)
    return [spectrum_from_validated(grid, omega[i]) for i in range(n)]
