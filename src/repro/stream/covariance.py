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

The P-MUSIC spectra are then computed straight from ``R`` by
:func:`repro.dsp.batch.batched_pmusic_from_covariances`, which never
touches raw snapshots again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError, EstimationError
from repro.utils.arrays import ArrayLike, ComplexArray


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
