"""P-MUSIC: the paper's core algorithmic contribution (Section 4.2).

Classic MUSIC locates arrival angles precisely but its peak heights are
probability-like values with no linear relation to per-path power, so a
blocked path cannot be identified from the spectrum alone (Fig. 4).
P-MUSIC combines:

* the Bartlett align-and-sum *power* estimate ``PB(theta)`` (Eq. 13),
  which reads true per-direction power but has fat lobes, and
* the MUSIC pseudo-spectrum ``B(theta)`` with all peak amplitudes
  normalized to 1 by ``Nor(.)``, which retains only MUSIC's sharp
  angular localization,

into ``Omega(theta) = PB(theta) * Nor(B(theta))`` (Eq. 14): a spectrum
with MUSIC's resolution whose peak heights track per-path signal power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro import obs
from repro.constants import DEFAULT_WAVELENGTH_M
from repro.dsp.batch import BatchPMusicConfig, batched_pmusic_spectra, nor_divisors
from repro.dsp.music import MusicEstimator
from repro.dsp.peaks import find_spectrum_peaks
from repro.dsp.spectrum import AngularSpectrum, SpectrumPeak
from repro.errors import EstimationError
from repro.utils.arrays import ArrayLike, FloatArray


def normalize_peaks(
    spectrum: AngularSpectrum,
    min_relative_height: float = 0.02,
    min_separation: float = 0.05,
) -> AngularSpectrum:
    """The paper's ``Nor(.)``: scale every spectral lobe to unit height.

    The angle axis is segmented into one region per detected peak (split
    at inter-peak minima) and each region is divided by its own maximum.
    Peaks end up at exactly 1 while the angular shape of each lobe is
    preserved, removing MUSIC's probability-valued amplitudes but
    keeping its angle information.  A one-row call of
    :func:`repro.dsp.batch.nor_divisors`.
    """
    divisors, valid = nor_divisors(
        spectrum.values[None, :],
        spectrum.angles,
        min_relative_height,
        min_separation,
    )
    if not valid[0]:
        raise EstimationError("cannot normalize a spectrum with no peaks")
    return AngularSpectrum(spectrum.angles.copy(), spectrum.values / divisors[0])


@dataclass
class PMusicEstimator:
    """P-MUSIC estimator producing power-calibrated angular spectra.

    Parameters
    ----------
    spacing_m:
        Physical element spacing of the array.
    wavelength_m:
        Carrier wavelength.
    music:
        The MUSIC estimator whose knobs (source count, subarray size,
        forward-backward averaging, threshold, grid) configure the MUSIC
        stage; constructed with matching geometry when omitted.
    peak_min_relative_height, peak_min_separation:
        Peak-detection knobs forwarded to the normalization function.
    """

    spacing_m: float
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    music: Optional[MusicEstimator] = None
    peak_min_relative_height: float = 0.02
    peak_min_separation: float = 0.05
    angle_grid: Optional[FloatArray] = None

    def __post_init__(self) -> None:
        if self.music is None:
            self.music = MusicEstimator(
                spacing_m=self.spacing_m,
                wavelength_m=self.wavelength_m,
                angle_grid=self.angle_grid,
            )

    def spectrum(self, snapshots: ArrayLike) -> AngularSpectrum:
        """P-MUSIC spectrum ``Omega(theta)`` of the snapshots (Eq. 14)."""
        x = np.asarray(snapshots, dtype=np.complex128)
        if x.ndim != 2:
            raise EstimationError("snapshots must be 2-D (M, N)")
        return batched_pmusic_spectra(x[None], config_from_estimator(self))[0]

    def estimate_paths(
        self, snapshots: ArrayLike, max_peaks: Optional[int] = None
    ) -> List[SpectrumPeak]:
        """Per-path (angle, power) estimates as spectrum peaks."""
        peaks = find_spectrum_peaks(
            self.spectrum(snapshots),
            min_relative_height=self.peak_min_relative_height,
            min_separation=self.peak_min_separation,
        )
        if max_peaks is not None:
            peaks = peaks[:max_peaks]
        obs.count("pmusic.paths_estimated", len(peaks))
        return peaks


def config_from_estimator(estimator: PMusicEstimator) -> BatchPMusicConfig:
    """The :class:`~repro.dsp.batch.BatchPMusicConfig` of an estimator."""
    music = estimator.music
    assert music is not None  # set by PMusicEstimator.__post_init__
    return replace(
        music.config(),
        spacing_m=estimator.spacing_m,
        wavelength_m=estimator.wavelength_m,
        peak_min_relative_height=estimator.peak_min_relative_height,
        peak_min_separation=estimator.peak_min_separation,
        angle_grid=music.angle_grid if music.angle_grid is not None else estimator.angle_grid,
    )
