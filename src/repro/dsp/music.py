"""The MUSIC AoA estimator (Schmidt 1986), as described in Section 2.2.

MUSIC eigendecomposes the array covariance, splits eigenvectors into a
signal and a noise subspace, and scans a steering vector over the angle
grid; orthogonality between steering vectors at true arrival angles and
the noise subspace produces sharp pseudo-spectrum peaks (Eq. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.dsp.batch import BatchPMusicConfig, batched_music_from_covariances
from repro.dsp.covariance import sample_covariance
from repro.dsp.peaks import find_spectrum_peaks
from repro.dsp.spectrum import AngularSpectrum, SpectrumPeak
from repro.utils.arrays import ArrayLike, FloatArray


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

    def config(self) -> BatchPMusicConfig:
        """The kernel configuration of this estimator's knobs."""
        return BatchPMusicConfig(
            spacing_m=self.spacing_m,
            wavelength_m=self.wavelength_m,
            num_sources=self.num_sources,
            subarray_size=self.subarray_size,
            forward_backward=self.forward_backward,
            source_threshold_ratio=self.source_threshold_ratio,
            angle_grid=self.angle_grid,
        )

    def spectrum(self, snapshots: ArrayLike) -> AngularSpectrum:
        """MUSIC pseudo-spectrum of the snapshots.

        A one-item call of
        :func:`repro.dsp.batch.batched_music_from_covariances`.
        """
        config = self.config()
        values = batched_music_from_covariances(
            sample_covariance(snapshots)[None], config
        )
        return AngularSpectrum(config.grid(), values[0])

    def estimate_aoas(
        self, snapshots: ArrayLike, max_peaks: Optional[int] = None
    ) -> List[SpectrumPeak]:
        """Arrival angles as spectrum peaks, strongest first."""
        peaks = find_spectrum_peaks(self.spectrum(snapshots))
        if max_peaks is not None:
            peaks = peaks[:max_peaks]
        return peaks
