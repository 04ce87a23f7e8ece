"""The spectral chain of Section 4.2 over N problems at once: the one implementation.

Every fix runs the chain (covariance → smoothing → eigendecomposition
→ MUSIC → ``Nor(·)`` → Bartlett → P-MUSIC, Eqs. 8/13/14) for each of
the ~100 (reader, tag) pairs.  Each problem is tiny — an 8×8 ``eigh``,
a handful of small matmuls — so a per-pair loop would cost
Python/NumPy dispatch, not arithmetic.

Each stage exists once, here, over a stack:
:func:`batched_sample_covariance` (Eq. 5), :func:`batched_smoothed_from_full`
(diagonal-block spatial smoothing of the full ``R``, with
forward-backward averaging), :func:`batched_eigendecompose` and
:func:`batched_estimate_num_sources` (one Hermitian ``eigh`` whose
eigenvalues also count the sources), :func:`batched_music_spectra`
(one masked projection per source count), :func:`batched_bartlett_spectra`
(``a^H R a / M^2`` from the unsmoothed ``R``) and :func:`nor_divisors`
(the per-lobe ``Nor(·)`` as one ``(N, G)`` division, with peak
detection and lobe segmentation in array form).
:func:`batched_music_from_covariances` chains the MUSIC stages and
:func:`batched_pmusic_from_covariances` adds Bartlett and ``Nor(·)``;
it flags an item with no noise subspace or no peak instead of raising,
so one bad pair never costs the rest of its stack.

Every caller goes through these: the streaming runner passes its
incrementally maintained covariances directly; snapshot callers
(:func:`batched_pmusic_spectra`, :class:`repro.dsp.pmusic.PMusicEstimator`,
:class:`repro.dsp.music.MusicEstimator`,
:func:`repro.dsp.bartlett.bartlett_power_spectrum`,
:class:`repro.wifi.WidebandPMusic` and wireless calibration) compute
the sample covariance first and make one-item calls.

``tests/test_property_batch.py`` checks MUSIC and P-MUSIC against the
textbook oracles in ``tests/pmusic_oracle.py`` (snapshot-domain
smoothing, per-item loops) to a tolerance scaled to each spectrum's
peak, and checks that a stack equals the same items run one by one,
in any order, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.constants import MAX_DOMINANT_PATHS
from repro.dsp.peaks import batched_candidate_peaks, batched_region_starts
from repro.dsp.spectrum import (
    AngularSpectrum,
    default_angle_grid,
    spectrum_from_validated,
)
from repro.errors import EstimationError
from repro.rf.array import cached_steering_matrix
from repro.utils.arrays import ArrayLike, BoolArray, ComplexArray, FloatArray, IntArray


@dataclass(frozen=True)
class BatchPMusicConfig:
    """The knobs of one P-MUSIC configuration.

    The union of :class:`repro.dsp.pmusic.PMusicEstimator` and its inner
    :class:`repro.dsp.music.MusicEstimator` knobs;
    :meth:`repro.dsp.music.MusicEstimator.config` and
    :func:`repro.dsp.pmusic.config_from_estimator` build one from an
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


def default_subarray_size(num_antennas: int, max_paths: int = 5) -> int:
    """A spatial-smoothing subarray length balancing aperture against decorrelation.

    Backscatter multipaths all carry the same source signal, so the
    array covariance is rank-1 and plain MUSIC collapses; averaging
    overlapping subarrays (Shan, Wax & Kailath 1985) restores the rank
    at the cost of shrinking the aperture from ``M`` elements to ``L``.
    The subarray must keep at least ``max_paths + 1`` elements so the
    noise subspace is non-empty, while leaving enough subarrays
    (``M - L + 1``) to decorrelate the coherent paths.  For the paper's
    8-element array with up to 5 dominant paths this yields ``L = 6``.
    """
    if num_antennas < 3:
        raise EstimationError("spatial smoothing needs at least three antennas")
    # Keep L as large as possible subject to a non-trivial subarray count
    # and a usable noise subspace.
    largest_useful = num_antennas - 2  # at least 3 subarrays with FB averaging
    l = min(max_paths + 1, largest_useful)
    return max(l, 3)


def _as_stack(arrays: ArrayLike, kind: str) -> ComplexArray:
    stack = np.asarray(arrays, dtype=np.complex128)
    if stack.ndim != 3:
        raise EstimationError(f"{kind} stack must be 3-D, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise EstimationError(f"{kind} stack contains non-finite values")
    return stack


def _as_covariance_stack(covariances: ArrayLike) -> ComplexArray:
    stack = _as_stack(covariances, "covariance")
    if stack.shape[1] != stack.shape[2]:
        raise EstimationError("covariances must be square (N, M, M)")
    return stack


def batched_sample_covariance(snapshots: ArrayLike) -> ComplexArray:
    """Stacked ``R_i = X_i X_i^H / N`` over an ``(N, M, S)`` snapshot stack.

    Hermitian-symmetrized, because the eigendecomposition downstream
    assumes exact symmetry.  :func:`repro.dsp.covariance.sample_covariance`
    is its one-item call.
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

    The average of the snapshot-domain subarray covariances equals the
    average of the ``(L, L)`` diagonal blocks of the full covariance,
    so smoothing needs no snapshots.  Each block is
    Hermitian-symmetrized before it is summed.  ``M - L + 1`` forward
    subarrays are averaged; with ``forward_backward=True`` the result
    is averaged with its reflected conjugate ``J R* J``, decorrelating
    up to ``2 * (M - L + 1)`` coherent arrivals.
    """
    r = _as_covariance_stack(covariances)
    m = r.shape[1]
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
    """Descending eigenvalues/vectors of an ``(N, L, L)`` Hermitian stack."""
    r = _as_covariance_stack(covariances)
    eigenvalues, eigenvectors = np.linalg.eigh(r)
    order = np.argsort(eigenvalues, axis=-1)[..., ::-1]
    values = np.take_along_axis(eigenvalues, order, axis=-1)
    vectors = np.take_along_axis(eigenvectors, order[..., None, :], axis=-1)
    # eigh of a Hermitian matrix returns mathematically real eigenvalues;
    # .real only strips the zero imaginary storage.
    return values.real, vectors  # reprolint: disable=RL003


def batched_estimate_num_sources(
    eigenvalues: ArrayLike,
    threshold_ratio: float = 0.03,
    max_sources: Optional[int] = None,
) -> IntArray:
    """Count each row's signal eigenvalues by thresholding against its largest.

    The paper chooses ``P`` as the number of eigenvalues "larger than a
    threshold"; the default ratio marks everything within roughly 15 dB
    of the dominant eigenvalue as signal.  A row is clamped to
    ``[1, min(max_sources, M - 1)]`` so a noise subspace remains; a row
    whose largest eigenvalue is not positive counts zero.  ``M == 1``
    raises up front: it leaves no noise subspace at all.
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
    r = _as_covariance_stack(covariances)
    m = r.shape[1]
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
) -> Tuple[FloatArray, BoolArray]:
    """The ``(N, G)`` per-lobe divisor stack behind ``Nor(·)``, and which rows have one.

    The paper's ``Nor(·)`` scales every spectral lobe to unit height:
    the angle axis is split into one region per detected peak (at the
    minima between adjacent peaks), and each grid point's divisor is
    its region's maximum (1.0 where that maximum is non-positive).  A
    row with no detectable peak cannot be normalized: its entry of the
    returned ``(N,)`` mask is ``False`` and its divisors are
    meaningless.  Every step is an array operation over the whole stack
    (see :mod:`repro.dsp.peaks`), so each row's divisors depend on that
    row alone.
    """
    n, size = music_values.shape
    grid_step = float(np.mean(np.diff(angle_grid)))
    distance = max(1, int(round(min_separation / grid_step)))
    heights = min_relative_height * music_values.max(axis=1)
    rows, cols = batched_candidate_peaks(music_values, heights, distance)
    valid = np.bincount(rows, minlength=n) > 0
    starts = batched_region_starts(music_values, rows, cols)
    # Per-region maxima; a non-positive lobe maximum divides by 1.0.
    region_max = np.maximum.reduceat(music_values.ravel(), starts)
    lengths = np.diff(np.append(starts, n * size))
    divisors = np.repeat(np.where(region_max > 0.0, region_max, 1.0), lengths)
    # One aggregated count event for the whole stack.
    obs.count("pmusic.peaks_found", len(rows))
    return divisors.reshape(n, size), valid


def batched_pmusic_spectra(
    snapshots: ArrayLike,
    config: BatchPMusicConfig,
) -> List[AngularSpectrum]:
    """All N P-MUSIC spectra ``Omega_i(theta)`` from an ``(N, M, S)`` snapshot stack.

    Raises :class:`~repro.errors.EstimationError` when any item has no
    noise subspace or no detectable peak.
    """
    covariances = batched_sample_covariance(snapshots)
    return strict_spectra(batched_pmusic_from_covariances(covariances, config))


def _music_stage(
    r: ComplexArray, config: BatchPMusicConfig
) -> Tuple[FloatArray, BoolArray]:
    """MUSIC values of a validated stack, and which items have a noise subspace.

    An item whose largest smoothed eigenvalue is not positive (a zero
    covariance) counts no sources and has no noise subspace; its row is
    computed as if it had one source and flagged ``False``.
    """
    n, m = r.shape[0], r.shape[1]
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
    valid = p > 0
    with obs.span("batch.spectrum"):
        values = batched_music_spectra(
            eigenvectors,
            np.where(valid, p, 1),
            config.spacing_m,
            config.wavelength_m,
            config.grid(),
        )
    return values, valid


def batched_music_from_covariances(
    covariances: ArrayLike,
    config: BatchPMusicConfig,
) -> FloatArray:
    """All N MUSIC pseudo-spectra from an ``(N, M, M)`` covariance stack (Eq. 8).

    Spatial smoothing from the full ``R`` (none when the subarray spans
    the array), one ``eigh`` whose eigenvalues count the sources unless
    ``config.num_sources`` pins them, and the noise projection.  Returns
    the ``(N, G)`` values on ``config.grid()``.  Raises
    :class:`~repro.errors.EstimationError` when any item has no noise
    subspace.
    """
    values, valid = _music_stage(_as_covariance_stack(covariances), config)
    if not valid.all():
        raise EstimationError(
            "num_sources must be positive to leave a noise subspace (got 0)"
        )
    return values


def batched_pmusic_from_covariances(
    covariances: ArrayLike,
    config: BatchPMusicConfig,
) -> List[Optional[AngularSpectrum]]:
    """All N P-MUSIC spectra ``Omega_i(theta)`` from an ``(N, M, M)`` stack (Eq. 14).

    MUSIC, ``Nor(·)``, times Bartlett power from the *unsmoothed*
    covariances.  An item with no noise subspace or no detectable peak
    has no spectrum: its entry is ``None``, and the other items are
    unaffected.  A malformed stack (not ``(N, M, M)``, non-finite
    values) raises :class:`~repro.errors.EstimationError`.

    Each item's spectrum is a function of that item alone: the same
    bits alone, in any stack, in any order and from any memory layout
    (``tests/test_property_batch.py`` checks it).
    """
    r = np.ascontiguousarray(_as_covariance_stack(covariances))
    n, m = r.shape[0], r.shape[1]
    if n == 0:
        return []
    grid = config.grid()
    with obs.span("batch.pmusic", batch=n, size=m):
        music_values, valid = _music_stage(r, config)
        with obs.span("batch.bartlett"):
            power = batched_bartlett_spectra(
                r, config.spacing_m, config.wavelength_m, grid
            )
        with obs.span("batch.normalize"):
            divisors, normalizable = nor_divisors(
                music_values,
                grid,
                config.peak_min_relative_height,
                config.peak_min_separation,
            )
            omega = power * (music_values / divisors)
    valid &= normalizable
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
        spectrum_from_validated(grid, omega[i]) if valid[i] else None
        for i in range(n)
    ]


def strict_spectra(spectra: List[Optional[AngularSpectrum]]) -> List[AngularSpectrum]:
    """``spectra`` with every item present; raises if any item has none."""
    present = [spectrum for spectrum in spectra if spectrum is not None]
    if len(present) != len(spectra):
        raise EstimationError(
            "cannot compute a P-MUSIC spectrum: no noise subspace or no peaks"
        )
    return present
