"""Array signal processing: covariance, smoothing, MUSIC, P-MUSIC."""

from repro.dsp.spectrum import (
    AngularSpectrum,
    SpectrumPeak,
    default_angle_grid,
    spectrum_from_samples,
)
from repro.dsp.covariance import (
    sample_covariance,
    is_hermitian,
    exchange_matrix,
    forward_backward_average,
)
from repro.dsp.smoothing import spatially_smoothed_covariance, default_subarray_size
from repro.dsp.peaks import find_spectrum_peaks, peak_regions
from repro.dsp.music import (
    MusicEstimator,
    eigendecompose,
    estimate_num_sources,
    mdl_num_sources,
    noise_subspace,
    music_spectrum_from_subspace,
)
from repro.dsp.bartlett import bartlett_power_spectrum, bartlett_power_at
from repro.dsp.pmusic import PMusicEstimator, config_from_estimator, normalize_peaks
from repro.dsp.batch import (
    BatchPMusicConfig,
    batched_eigendecompose,
    batched_estimate_num_sources,
    batched_pmusic_from_covariances,
    batched_pmusic_spectra,
    batched_sample_covariance,
    batched_smoothed_from_full,
)
from repro.dsp.doppler import (
    DopplerEstimate,
    estimate_doppler,
    phase_stream,
    speed_track,
    synthesize_moving_reflection,
)

__all__ = [
    "AngularSpectrum",
    "SpectrumPeak",
    "default_angle_grid",
    "spectrum_from_samples",
    "sample_covariance",
    "is_hermitian",
    "exchange_matrix",
    "forward_backward_average",
    "spatially_smoothed_covariance",
    "default_subarray_size",
    "find_spectrum_peaks",
    "peak_regions",
    "MusicEstimator",
    "eigendecompose",
    "estimate_num_sources",
    "mdl_num_sources",
    "noise_subspace",
    "music_spectrum_from_subspace",
    "bartlett_power_spectrum",
    "bartlett_power_at",
    "PMusicEstimator",
    "normalize_peaks",
    "BatchPMusicConfig",
    "batched_eigendecompose",
    "batched_estimate_num_sources",
    "batched_pmusic_from_covariances",
    "batched_pmusic_spectra",
    "batched_sample_covariance",
    "batched_smoothed_from_full",
    "config_from_estimator",
    "DopplerEstimate",
    "estimate_doppler",
    "phase_stream",
    "speed_track",
    "synthesize_moving_reflection",
]
