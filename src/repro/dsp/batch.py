"""Batched spectral kernels: N P-MUSIC problems as one stacked pass.

Every fix runs the Section 4.2 chain (covariance → smoothing →
eigendecomposition → MUSIC → ``Nor(·)`` → Bartlett → P-MUSIC,
Eqs. 8/13/14) for each of the ~100 (reader, tag) pairs.  Each problem
is tiny — an 8×8 ``eigh``, a handful of small matmuls — so the scalar
path's cost is dominated by Python/NumPy dispatch, not arithmetic.

This module restates every stage over an ``(N, M, S)`` snapshot stack
(or an ``(N, M, M)`` covariance stack for the streaming engine): one
stacked matmul for the covariances, one batched Hermitian ``eigh``,
one masked projection for all noise subspaces, and one stacked
GEMM-plus-contraction for all Bartlett powers.  Peak detection stays
per-item (scipy), but the per-lobe ``Nor(·)`` division is applied as a
single fused ``(N, G)`` operation.

**Equivalence contract.** Every kernel reproduces the scalar reference
(:class:`repro.dsp.pmusic.PMusicEstimator`,
:func:`repro.stream.covariance.pmusic_spectrum_from_covariance`)
*bit for bit*: stacked BLAS/LAPACK calls process each item with the
same kernels as the scalar calls, masked reductions prepend exact
zeros (``0.0 + x == x``), and every elementwise op is applied in the
scalar order.  ``tests/test_dsp_batch.py`` and
``tests/test_property_batch.py`` pin this with exact equality, and the
scalar estimators remain the readable reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.constants import MAX_DOMINANT_PATHS
from repro.dsp.music import sorted_eigh
from repro.dsp.peaks import candidate_peak_indices, region_starts_from_indices
from repro.dsp.pmusic import PMusicEstimator
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
    """Everything the batched kernels need to mirror one scalar estimator.

    Mirrors the union of :class:`repro.dsp.pmusic.PMusicEstimator` and
    its inner :class:`repro.dsp.music.MusicEstimator` knobs; build one
    with :func:`config_from_estimator` to guarantee the fields match.
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
        """Subarray length ``L``, defaulted exactly like the scalar path."""
        if self.subarray_size is not None:
            return self.subarray_size
        return default_subarray_size(num_antennas, MAX_DOMINANT_PATHS)


def config_from_estimator(estimator: PMusicEstimator) -> BatchPMusicConfig:
    """Extract a :class:`BatchPMusicConfig` from a scalar estimator."""
    music = estimator.music
    assert music is not None  # set by PMusicEstimator.__post_init__
    return BatchPMusicConfig(
        spacing_m=estimator.spacing_m,
        wavelength_m=estimator.wavelength_m,
        num_sources=music.num_sources,
        subarray_size=music.subarray_size,
        forward_backward=music.forward_backward,
        source_threshold_ratio=music.source_threshold_ratio,
        peak_min_relative_height=estimator.peak_min_relative_height,
        peak_min_separation=estimator.peak_min_separation,
        angle_grid=music.angle_grid if music.angle_grid is not None else estimator.angle_grid,
    )


def _as_stack(arrays: ArrayLike, kind: str) -> ComplexArray:
    stack = np.asarray(arrays, dtype=np.complex128)
    if stack.ndim != 3:
        raise EstimationError(f"{kind} stack must be 3-D, got shape {stack.shape}")
    return stack


def batched_sample_covariance(snapshots: ArrayLike) -> ComplexArray:
    """Stacked ``R_i = X_i X_i^H / N`` over an ``(N, M, S)`` snapshot stack.

    Bit-identical to mapping :func:`repro.dsp.covariance.sample_covariance`
    over the stack: the stacked matmul runs the same GEMM per item, and
    the Hermitian symmetrization is the same elementwise expression.
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


def batched_smoothed_covariance(
    snapshots: ArrayLike,
    subarray_size: int,
    forward_backward: bool = True,
) -> ComplexArray:
    """Stacked spatial smoothing over an ``(N, M, S)`` snapshot stack.

    Accumulates the per-subarray sample covariances in the scalar loop
    order so the floating-point sum matches
    :func:`repro.dsp.smoothing.spatially_smoothed_covariance` exactly.
    """
    x = _as_stack(snapshots, "snapshot")
    m = x.shape[1]
    if not 2 <= subarray_size <= m:
        raise EstimationError(
            f"subarray size must be in [2, {m}], got {subarray_size}"
        )
    num_subarrays = m - subarray_size + 1
    accum = np.zeros(
        (x.shape[0], subarray_size, subarray_size), dtype=np.complex128
    )
    for start in range(num_subarrays):
        accum += batched_sample_covariance(x[:, start : start + subarray_size, :])
    smoothed = accum / num_subarrays
    if forward_backward:
        smoothed = _batched_forward_backward(smoothed)
    return smoothed


def batched_smoothed_from_full(
    covariances: ArrayLike,
    subarray_size: int,
    forward_backward: bool = True,
) -> ComplexArray:
    """Stacked covariance-domain smoothing over an ``(N, M, M)`` stack.

    The batched twin of
    :func:`repro.stream.covariance.smoothed_covariance_from_full`:
    averages the Hermitian-symmetrized ``(L, L)`` diagonal blocks in the
    same order.
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

    One LAPACK call per item either way — batching removes only the
    Python dispatch.  The eigh-then-sort sequence itself is
    :func:`repro.dsp.music.sorted_eigh`, shared with the scalar
    reference so the two orderings cannot drift.
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

    Applies the identical threshold/clamp arithmetic per row, including
    the ``M == 1`` guard that the scalar function raises up front.
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
    one stacked matmul whose per-item shape — ``(L - P, L) @ (L, G)``,
    with the same memory layout — matches the scalar
    ``un.conj().T @ a`` exactly, so BLAS dispatches the identical
    kernel and every spectrum equals
    :func:`repro.dsp.music.music_spectrum_from_subspace` bit for bit.
    (Projecting all ``L`` rows once and masking the signal rows is
    faster still, but small-row GEMMs can take a different BLAS path
    than the full square product, which breaks bit-equality.)
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
    two-operand contraction (``sum_m conj(a) * (R_i a)``): the GEMM's
    per-item shape ``(M, M) @ (M, G)`` matches the scalar ``r @ a``
    call exactly, and the contraction sums the same ``M`` products in
    the same order as the scalar ``"mg,mg->g"`` einsum — so each row
    is bit-identical to
    :func:`repro.dsp.bartlett.bartlett_spectrum_from_covariance`,
    which is written as the same two steps.  (The historical
    three-operand ``"mg,nmk,kg->ng"`` einsum computed identical values
    through einsum's own loop nest at roughly 3x the cost of letting
    BLAS do the inner product.)
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


def batched_normalize_peaks(
    music_values: FloatArray,
    angle_grid: FloatArray,
    min_relative_height: float = 0.02,
    min_separation: float = 0.05,
) -> FloatArray:
    """Per-lobe ``Nor(·)`` over all N spectra as one fused division.

    Peak detection and lobe segmentation stay per item (scipy), but the
    per-lobe maxima are collected into an ``(N, G)`` divisor array and
    applied in a single elementwise division — the same scalar value
    divides the same slice, so every quotient matches
    :func:`repro.dsp.pmusic.normalize_peaks` bit for bit.  Items are
    scanned in order and the first failure raises, exactly like the
    scalar per-pair loop.
    """
    values = np.asarray(music_values, dtype=np.float64)
    if values.ndim != 2:
        raise EstimationError("music spectra must be a 2-D (N, G) stack")
    grid = np.asarray(angle_grid, dtype=np.float64)
    divisors = _batched_nor_divisors(
        values, grid, min_relative_height, min_separation
    )
    return values / divisors


def _batched_nor_divisors(
    music_values: FloatArray,
    angle_grid: FloatArray,
    min_relative_height: float,
    min_separation: float,
) -> FloatArray:
    """The ``(N, G)`` per-lobe divisor stack behind ``Nor(·)``.

    Mirrors :func:`repro.dsp.pmusic.normalize_peaks` region by region:
    each grid point's divisor is its lobe's maximum (1.0 where the lobe
    maximum is non-positive, matching the scalar guard).  Raises on the
    first item with no detectable peaks, in item order, with the scalar
    error message.
    """
    divisors = np.empty_like(music_values)
    grid_step = float(np.mean(np.diff(angle_grid)))
    distance = max(1, int(round(min_separation / grid_step)))
    size = music_values.shape[1]
    # One vectorized pass for the per-row peak heights: max is exact
    # (no rounding), so each entry equals the scalar row.max().
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
        # Exact per-region maxima (max involves no rounding, so the
        # reduceat fill matches the scalar per-slice loop bit for bit);
        # a non-positive lobe maximum keeps the scalar guard's 1.0.
        region_max = np.maximum.reduceat(row, starts)
        if region_max.size == 1:
            divisors[i] = region_max[0] if region_max[0] > 0.0 else 1.0
            continue
        lengths = np.diff(np.append(starts, size))
        divisors[i] = np.repeat(
            np.where(region_max > 0.0, region_max, 1.0), lengths
        )
    # One aggregated count event: same counter total as the scalar
    # per-spectrum emissions, and nothing is double-counted when a
    # failed batch is replayed by the scalar fallback (the scalar loop
    # then emits its own events).
    obs.count("pmusic.peaks_found", total_peaks)
    return divisors


def batched_pmusic_spectra(
    snapshots: ArrayLike,
    config: BatchPMusicConfig,
) -> List[AngularSpectrum]:
    """All N P-MUSIC spectra ``Omega_i(theta)`` from a snapshot stack.

    The batched twin of
    :meth:`repro.dsp.pmusic.PMusicEstimator.spectrum` (Eq. 14): MUSIC
    over the smoothed covariances, ``Nor(·)``, times Bartlett power
    from the *unsmoothed* sample covariances.
    """
    x = _as_stack(snapshots, "snapshot")
    n, m = x.shape[0], x.shape[1]
    if n == 0:
        return []
    grid = config.grid()
    with obs.span("batch.pmusic", batch=n, size=m):
        with obs.span("batch.covariance"):
            full = batched_sample_covariance(x)
            sub_len = config.resolve_subarray(m)
            if sub_len >= m:
                smoothed = full
            else:
                smoothed = batched_smoothed_covariance(
                    x, sub_len, config.forward_backward
                )
        music_values = _batched_music_values(smoothed, config, grid)
        with obs.span("batch.bartlett"):
            power = batched_bartlett_spectra(
                full, config.spacing_m, config.wavelength_m, grid
            )
        return _finish_pmusic(music_values, power, grid, config)


def batched_pmusic_from_covariances(
    covariances: ArrayLike,
    config: BatchPMusicConfig,
) -> List[AngularSpectrum]:
    """All N P-MUSIC spectra straight from an ``(N, M, M)`` covariance stack.

    The batched twin of
    :func:`repro.stream.covariance.pmusic_spectrum_from_covariance`,
    mirroring its exact call sequence: ``eigvalsh`` for source counting,
    a separate ``eigh`` inside the noise-subspace step, and Bartlett
    power from the *raw* (unsymmetrized) covariances.
    """
    r = _as_stack(covariances, "covariance")
    n, m = r.shape[0], r.shape[1]
    if r.shape[2] != m:
        raise EstimationError("covariances must be square (N, M, M)")
    if n == 0:
        return []
    grid = config.grid()
    with obs.span("batch.pmusic", batch=n, size=m, domain="covariance"):
        with obs.span("batch.covariance"):
            sub_len = config.resolve_subarray(m)
            if sub_len >= m:
                smoothed = (r + r.conj().transpose(0, 2, 1)) / 2.0
            else:
                smoothed = batched_smoothed_from_full(
                    r, sub_len, config.forward_backward
                )
        music_values = _batched_music_values_covariance_domain(
            smoothed, config, grid
        )
        with obs.span("batch.bartlett"):
            power = batched_bartlett_spectra(
                r, config.spacing_m, config.wavelength_m, grid
            )
        return _finish_pmusic(music_values, power, grid, config)


def _batched_music_values(
    smoothed: ComplexArray,
    config: BatchPMusicConfig,
    grid: FloatArray,
) -> FloatArray:
    """MUSIC spectra of a smoothed stack, snapshot-domain call sequence.

    Mirrors :meth:`repro.dsp.music.MusicEstimator.noise_subspace`: one
    ``eigh`` provides both the source-count eigenvalues and the
    subspace eigenvectors.
    """
    with obs.span("batch.eigendecomposition", size=smoothed.shape[1]):
        eigenvalues, eigenvectors = batched_eigendecompose(smoothed)
        p = _resolve_num_sources(eigenvalues, config, smoothed.shape[1])
        obs.count("music.sources_detected", int(p.sum()))
    with obs.span("batch.spectrum"):
        return batched_music_spectra(
            eigenvectors, p, config.spacing_m, config.wavelength_m, grid
        )


def _batched_music_values_covariance_domain(
    smoothed: ComplexArray,
    config: BatchPMusicConfig,
    grid: FloatArray,
) -> FloatArray:
    """MUSIC spectra of a smoothed stack, covariance-domain call sequence.

    :func:`repro.stream.covariance.pmusic_spectrum_from_covariance`
    counts sources from ``eigvalsh`` (no vectors) and then runs a
    separate ``eigh`` inside ``noise_subspace``; the two can disagree
    in the last bits, so both are reproduced here.
    """
    with obs.span("batch.eigendecomposition", size=smoothed.shape[1]):
        count_values = np.linalg.eigvalsh(smoothed)[:, ::-1]
        p = _resolve_num_sources(count_values, config, smoothed.shape[1])
        _, eigenvectors = batched_eigendecompose(smoothed)
    with obs.span("batch.spectrum"):
        return batched_music_spectra(
            eigenvectors, p, config.spacing_m, config.wavelength_m, grid
        )


def _resolve_num_sources(
    eigenvalues: FloatArray, config: BatchPMusicConfig, length: int
) -> IntArray:
    if config.num_sources is not None:
        return np.full(eigenvalues.shape[0], config.num_sources, dtype=np.int64)
    return batched_estimate_num_sources(
        eigenvalues, config.source_threshold_ratio, max_sources=length - 1
    )


def _finish_pmusic(
    music_values: FloatArray,
    power: FloatArray,
    grid: FloatArray,
    config: BatchPMusicConfig,
) -> List[AngularSpectrum]:
    with obs.span("batch.normalize"):
        divisors = _batched_nor_divisors(
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
    return [
        spectrum_from_validated(grid, omega[i])
        for i in range(omega.shape[0])
    ]
