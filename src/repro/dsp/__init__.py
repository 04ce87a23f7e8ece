"""Array signal processing: covariance, smoothing, MUSIC, P-MUSIC."""

from repro.dsp.spectrum import (
    AngularSpectrum,
    SpectrumPeak,
    default_angle_grid,
    spectrum_from_samples,
)
from repro.dsp.covariance import sample_covariance, is_hermitian
from repro.dsp.peaks import find_spectrum_peaks
from repro.dsp.music import MusicEstimator
from repro.dsp.bartlett import bartlett_power_spectrum
from repro.dsp.pmusic import PMusicEstimator, config_from_estimator, normalize_peaks
from repro.dsp.batch import (
    BatchPMusicConfig,
    batched_bartlett_spectra,
    batched_eigendecompose,
    batched_estimate_num_sources,
    batched_music_from_covariances,
    batched_pmusic_from_covariances,
    batched_pmusic_spectra,
    batched_sample_covariance,
    batched_smoothed_from_full,
    default_subarray_size,
)

__all__ = [
    "AngularSpectrum",
    "SpectrumPeak",
    "default_angle_grid",
    "spectrum_from_samples",
    "sample_covariance",
    "is_hermitian",
    "default_subarray_size",
    "find_spectrum_peaks",
    "MusicEstimator",
    "bartlett_power_spectrum",
    "PMusicEstimator",
    "normalize_peaks",
    "BatchPMusicConfig",
    "batched_bartlett_spectra",
    "batched_eigendecompose",
    "batched_estimate_num_sources",
    "batched_music_from_covariances",
    "batched_pmusic_from_covariances",
    "batched_pmusic_spectra",
    "batched_sample_covariance",
    "batched_smoothed_from_full",
    "config_from_estimator",
]
