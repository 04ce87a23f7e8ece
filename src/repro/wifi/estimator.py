"""Wideband P-MUSIC: subcarrier diversity as extra channel looks.

RFID backscatter gives temporal snapshots of one *coherent* channel, so
the RFID stack decorrelates paths with spatial smoothing at the cost of
aperture.  OFDM CSI offers a better decorrelator for free: each path's
delay rotates its phase differently across subcarriers, so stacking
subcarriers as "snapshots" yields a covariance whose signal subspace
spans the individual path steering vectors at full aperture.  On top of
that covariance the estimator is plain P-MUSIC without smoothing
(:func:`repro.dsp.batch.batched_pmusic_from_covariances` with
``subarray_size = M``): normalized MUSIC for angles, Bartlett for
per-direction power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dsp.batch import (
    BatchPMusicConfig,
    batched_pmusic_from_covariances,
    batched_sample_covariance,
    strict_spectra,
)
from repro.dsp.peaks import find_spectrum_peaks
from repro.dsp.spectrum import AngularSpectrum, SpectrumPeak
from repro.errors import EstimationError


@dataclass
class WidebandPMusic:
    """P-MUSIC over CSI reports of shape ``(M, K, N)``.

    Parameters
    ----------
    spacing_m, wavelength_m:
        Array geometry at the centre frequency (per-subcarrier
        wavelength deviations across a 40 MHz channel at 5 GHz are
        below 1 % and absorbed into the noise subspace).
    num_sources:
        Fixed model order; estimated from eigenvalues when ``None``.
    angle_grid:
        Scan grid; defaults to the shared 0.5-degree grid.
    """

    spacing_m: float
    wavelength_m: float
    num_sources: Optional[int] = None
    angle_grid: Optional[np.ndarray] = None
    source_threshold_ratio: float = 0.03

    def covariance(self, reports: np.ndarray) -> np.ndarray:
        """Antenna covariance with subcarriers and packets as looks."""
        return batched_sample_covariance(self._flatten(reports)[None])[0]

    def spectrum(self, reports: np.ndarray) -> AngularSpectrum:
        """The P-MUSIC spectrum of a CSI report block."""
        r = self.covariance(reports)
        config = BatchPMusicConfig(
            spacing_m=self.spacing_m,
            wavelength_m=self.wavelength_m,
            num_sources=self.num_sources,
            subarray_size=r.shape[0],
            source_threshold_ratio=self.source_threshold_ratio,
            angle_grid=self.angle_grid,
        )
        return strict_spectra(batched_pmusic_from_covariances(r[None], config))[0]

    def estimate_paths(
        self, reports: np.ndarray, max_peaks: Optional[int] = None
    ) -> List[SpectrumPeak]:
        """Per-path (angle, power) estimates, strongest first."""
        peaks = find_spectrum_peaks(self.spectrum(reports))
        if max_peaks is not None:
            peaks = peaks[:max_peaks]
        return peaks

    def _flatten(self, reports: np.ndarray) -> np.ndarray:
        x = np.asarray(reports, dtype=complex)
        if x.ndim == 2:
            return x
        if x.ndim != 3:
            raise EstimationError("CSI reports must be (M, K) or (M, K, N)")
        m = x.shape[0]
        return x.reshape(m, -1)
