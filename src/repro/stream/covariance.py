"""Incrementally maintained array covariances for the streaming path.

The batch pipeline rebuilds ``R = X X^H / N`` from every window's full
snapshot matrix.  Online, consecutive windows of the same (reader, tag)
pair are highly redundant, so the stream engine instead keeps one
exponentially-weighted covariance per pair and folds each new snapshot
column in as a rank-1 update:

.. math::  S \\leftarrow \\lambda S + x x^H, \\qquad w \\leftarrow \\lambda w + 1

with ``R = S / w``.  Decay ``1.0`` makes this *exactly* the running
sample covariance of everything seen (the tier-1 equivalence test pins
it against :func:`repro.dsp.covariance.sample_covariance` at
``atol=1e-10``); decay below one forgets old sweeps geometrically, so a
moving target stops smearing the estimate while the per-window spectra
still benefit from more than one window's worth of snapshots.

The P-MUSIC spectrum is then computed straight from ``R`` —
:func:`pmusic_spectrum_from_covariance` mirrors
:class:`repro.dsp.pmusic.PMusicEstimator` stage for stage (spatial
smoothing, eigendecomposition, peak normalization, Bartlett power) but
never touches raw snapshots again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.constants import MAX_DOMINANT_PATHS
from repro.dsp.bartlett import bartlett_spectrum_from_covariance
from repro.dsp.covariance import forward_backward_average
from repro.dsp.music import (
    estimate_num_sources,
    music_spectrum_from_subspace,
    noise_subspace,
)
from repro.dsp.pmusic import normalize_peaks
from repro.dsp.smoothing import default_subarray_size
from repro.dsp.spectrum import AngularSpectrum
from repro.errors import ConfigurationError, EstimationError
from repro.utils.arrays import ArrayLike, ComplexArray, FloatArray


def smoothed_covariance_from_full(
    covariance: ArrayLike,
    subarray_size: int,
    forward_backward: bool = True,
) -> ComplexArray:
    """Spatially smoothed covariance computed from the full ``(M, M)`` ``R``.

    The average of the snapshot-domain subarray covariances equals the
    average of the ``(L, L)`` diagonal blocks of the full covariance,
    so smoothing needs no snapshots — which is what lets the streaming
    engine stay entirely in the covariance domain.
    """
    r = np.asarray(covariance, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise EstimationError("covariance must be a square (M, M) matrix")
    m = r.shape[0]
    if not 2 <= subarray_size <= m:
        raise EstimationError(
            f"subarray size must be in [2, {m}], got {subarray_size}"
        )
    num_subarrays = m - subarray_size + 1
    accum = np.zeros((subarray_size, subarray_size), dtype=np.complex128)
    for start in range(num_subarrays):
        block = r[start : start + subarray_size, start : start + subarray_size]
        accum += (block + block.conj().T) / 2.0
    smoothed = accum / num_subarrays
    if forward_backward:
        smoothed = forward_backward_average(smoothed)
    return smoothed


def pmusic_spectrum_from_covariance(
    covariance: ArrayLike,
    spacing_m: float,
    wavelength_m: float,
    angle_grid: Optional[FloatArray] = None,
    num_sources: Optional[int] = None,
    subarray_size: Optional[int] = None,
    forward_backward: bool = True,
    peak_min_relative_height: float = 0.02,
    peak_min_separation: float = 0.05,
    source_threshold_ratio: float = 0.03,
) -> AngularSpectrum:
    """P-MUSIC spectrum ``Omega(theta)`` straight from a covariance.

    Mirrors :meth:`repro.dsp.pmusic.PMusicEstimator.spectrum` (Eq. 14)
    with the covariance substituted for the snapshots in both factors:
    the MUSIC pseudo-spectrum comes from the smoothed ``R``'s noise
    subspace and the Bartlett power from ``a^H R a / M^2``.
    """
    r = np.asarray(covariance, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise EstimationError("covariance must be a square (M, M) matrix")
    m = r.shape[0]
    with obs.span("stream.pmusic", size=m):
        sub_len = (
            subarray_size
            if subarray_size is not None
            else default_subarray_size(m, MAX_DOMINANT_PATHS)
        )
        if sub_len >= m:
            smoothed: ComplexArray = (r + r.conj().T) / 2.0
        else:
            smoothed = smoothed_covariance_from_full(r, sub_len, forward_backward)
        eigenvalues = np.linalg.eigvalsh(smoothed)[::-1]
        p = (
            num_sources
            if num_sources is not None
            else estimate_num_sources(
                eigenvalues,
                source_threshold_ratio,
                max_sources=smoothed.shape[0] - 1,
            )
        )
        un = noise_subspace(smoothed, p)
        music_spec = music_spectrum_from_subspace(
            un, spacing_m, wavelength_m, angle_grid
        )
        normalized = normalize_peaks(
            music_spec, peak_min_relative_height, peak_min_separation
        )
        power = bartlett_spectrum_from_covariance(
            r, spacing_m, wavelength_m, normalized.angles
        )
        return AngularSpectrum(
            normalized.angles.copy(), power.values * normalized.values
        )


class EwCovariance:
    """Exponentially-weighted covariance of one (reader, tag) pair.

    Parameters
    ----------
    num_antennas:
        Array size ``M``.
    decay:
        Per-column forgetting factor in ``(0, 1]``.  ``1.0`` weights
        every snapshot equally (the running sample covariance).
    """

    def __init__(self, num_antennas: int, decay: float = 1.0) -> None:
        if num_antennas < 1:
            raise ConfigurationError("covariance needs at least one antenna")
        if not 0.0 < decay <= 1.0:
            raise ConfigurationError(f"decay must be in (0, 1], got {decay}")
        self.num_antennas = num_antennas
        self.decay = decay
        self._weighted = np.zeros((num_antennas, num_antennas), dtype=np.complex128)
        self._weight = 0.0
        self.updates = 0

    @property
    def weight(self) -> float:
        """Effective number of snapshots behind the current estimate."""
        return self._weight

    def update(self, column: ArrayLike) -> None:
        """Fold one snapshot column in as a rank-1 update."""
        x = np.asarray(column, dtype=np.complex128)
        if x.shape != (self.num_antennas,):
            raise EstimationError(
                f"column must have shape ({self.num_antennas},), got {x.shape}"
            )
        if self.decay != 1.0:
            self._weighted *= self.decay
        self._weighted += np.outer(x, x.conj())
        self._weight = self.decay * self._weight + 1.0
        self.updates += 1

    def update_matrix(self, snapshots: ArrayLike) -> None:
        """Fold in every column of an ``(M, N)`` snapshot matrix, in order."""
        x = np.asarray(snapshots, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.num_antennas:
            raise EstimationError(
                f"snapshots must be ({self.num_antennas}, N), got {x.shape}"
            )
        # Inlined :meth:`update` without the per-column coercion and
        # shape check (the matrix is validated once above).  The
        # broadcast product is the same elementwise multiply
        # ``np.outer`` performs, and the column-by-column fold order is
        # preserved — sequential decayed rank-1 updates do not commute
        # in floating point, so this stays bit-identical to the loop
        # over :meth:`update`.
        weighted = self._weighted
        decay = self.decay
        weight = self._weight
        for n in range(x.shape[1]):
            column = x[:, n]
            if decay != 1.0:
                weighted *= decay
            weighted += column[:, None] * column.conj()[None, :]
            weight = decay * weight + 1.0
        self._weight = weight
        self.updates += x.shape[1]

    def covariance(self) -> ComplexArray:
        """The current Hermitian ``(M, M)`` estimate."""
        if self._weight <= 0.0:
            raise EstimationError("no snapshots folded in yet")
        r = self._weighted / self._weight
        return (r + r.conj().T) / 2.0

    def state_snapshot(self) -> Tuple[ComplexArray, float, int]:
        """Copy of the mutable accumulator state, for transactional updates.

        The streaming runner snapshots every pair before a speculative
        batched window so a failure can roll the bank back and replay
        the reference per-tag loop with its exact failure semantics.
        """
        return self._weighted.copy(), self._weight, self.updates

    def state_restore(self, state: Tuple[ComplexArray, float, int]) -> None:
        """Adopt a snapshot taken by :meth:`state_snapshot`."""
        weighted, weight, updates = state
        self._weighted = weighted.copy()
        self._weight = weight
        self.updates = updates


@dataclass
class CovarianceBank:
    """Per-(reader, tag) :class:`EwCovariance` store for a whole stream."""

    decay: float = 1.0
    _pairs: Dict[Tuple[str, str], EwCovariance] = field(default_factory=dict)

    def pair(self, reader_name: str, epc: str, num_antennas: int) -> EwCovariance:
        """Get-or-create the estimator of one (reader, tag) pair."""
        key = (reader_name, epc)
        existing = self._pairs.get(key)
        if existing is None:
            existing = EwCovariance(num_antennas, self.decay)
            self._pairs[key] = existing
        return existing

    def covariance(self, reader_name: str, epc: str) -> ComplexArray:
        """The current estimate of one pair (must have been updated)."""
        key = (reader_name, epc)
        if key not in self._pairs:
            raise EstimationError(
                f"no covariance tracked for reader {reader_name!r} / tag {epc!r}"
            )
        return self._pairs[key].covariance()

    def __len__(self) -> int:
        return len(self._pairs)
