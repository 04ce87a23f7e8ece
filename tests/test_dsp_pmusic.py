"""Tests for repro.dsp.pmusic — the paper's core estimator."""

import math

import numpy as np
import pytest

from repro.dsp.bartlett import bartlett_power_spectrum
from repro.dsp.batch import BatchPMusicConfig, batched_pmusic_from_covariances
from repro.dsp.music import MusicEstimator
from repro.dsp.pmusic import PMusicEstimator, normalize_peaks
from repro.dsp.peaks import find_spectrum_peaks
from repro.errors import EstimationError
from repro.rf.channel import MultipathChannel

from tests.conftest import make_path


@pytest.fixture
def estimator(array):
    return PMusicEstimator(
        spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
    )


class TestNormalizePeaks:
    def test_all_peaks_become_unity(self, array, three_path_channel):
        music = MusicEstimator(
            spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
        )
        x = three_path_channel.snapshots(60, snr_db=25, rng=0)
        normalized = normalize_peaks(music.spectrum(x))
        peaks = find_spectrum_peaks(normalized, min_relative_height=0.5)
        for peak in peaks:
            assert peak.value == pytest.approx(1.0)

    def test_flat_spectrum_rejected(self):
        from repro.dsp.spectrum import AngularSpectrum

        flat = AngularSpectrum(np.linspace(0, math.pi, 20), np.zeros(20))
        with pytest.raises(EstimationError):
            normalize_peaks(flat)


class TestPMusicPowerTracking:
    def test_angles_match_music(self, array, estimator, three_path_channel):
        x = three_path_channel.snapshots(60, snr_db=25, rng=1)
        peaks = estimator.estimate_paths(x, max_peaks=3)
        found = sorted(math.degrees(p.angle) for p in peaks)
        assert found == pytest.approx([50, 90, 130], abs=1.5)

    def test_peak_heights_track_path_power(self, array, estimator, three_path_channel):
        x = three_path_channel.snapshots(200, snr_db=30, rng=2)
        peaks = {
            round(math.degrees(p.angle) / 10) * 10: p.value
            for p in estimator.estimate_paths(x, max_peaks=3)
        }
        gains = {50: 0.010, 90: 0.008, 130: 0.006}
        for angle, gain in gains.items():
            assert peaks[angle] == pytest.approx(gain**2, rel=0.5)
        # Ordering must match exactly even where magnitudes are loose.
        assert peaks[50] > peaks[90] > peaks[130]

    def test_blocked_path_power_drops(self, array, estimator):
        paths = [
            make_path(array, 50.0, 0.010),
            make_path(array, 90.0, 0.008),
            make_path(array, 130.0, 0.006),
        ]
        baseline_channel = MultipathChannel(array=array, paths=paths)
        blocked_paths = [paths[0].attenuated(0.14), paths[1], paths[2]]
        blocked_channel = MultipathChannel(array=array, paths=blocked_paths)

        base = estimator.spectrum(baseline_channel.snapshots(60, snr_db=25, rng=3))
        after = estimator.spectrum(blocked_channel.snapshots(60, snr_db=25, rng=4))

        window = math.radians(2.5)
        blocked_drop = 1 - after.max_in_window(
            math.radians(50), window
        ) / base.max_in_window(math.radians(50), window)
        untouched_drop = 1 - after.max_in_window(
            math.radians(130), window
        ) / base.max_in_window(math.radians(130), window)
        assert blocked_drop > 0.9
        assert abs(untouched_drop) < 0.5

    def test_single_path_power_estimate(self, array, estimator):
        gain = 0.02
        channel = MultipathChannel(array=array, paths=[make_path(array, 75.0, gain)])
        x = channel.snapshots(200, snr_db=35, rng=5)
        peak = estimator.estimate_paths(x, max_peaks=1)[0]
        assert peak.value == pytest.approx(gain**2, rel=0.2)


class TestPMusicConfiguration:
    def test_builds_music_automatically(self, array):
        estimator = PMusicEstimator(
            spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
        )
        assert estimator.music is not None
        assert estimator.music.spacing_m == array.spacing_m

    def test_custom_grid_respected(self, array, three_path_channel):
        grid = np.linspace(0.1, math.pi - 0.1, 200)
        estimator = PMusicEstimator(
            spacing_m=array.spacing_m,
            wavelength_m=array.wavelength_m,
            angle_grid=grid,
        )
        x = three_path_channel.snapshots(40, rng=6)
        spectrum = estimator.spectrum(x)
        assert spectrum.angles.shape == grid.shape


class TestNonFiniteInput:
    # ContractViolation subclasses EstimationError, so these hold with
    # REPRO_DEBUG on (the contract fires first) and off (the kernel's
    # own check fires).
    def test_every_entry_point_raises_estimation_error(self, array, three_path_channel):
        x = three_path_channel.snapshots(20, rng=0)
        x[2, 5] = np.nan
        geometry = dict(spacing_m=array.spacing_m, wavelength_m=array.wavelength_m)
        config = BatchPMusicConfig(**geometry)
        r = np.full((1, 8, 8), np.nan, dtype=complex)
        calls = [
            lambda: PMusicEstimator(**geometry).spectrum(x),
            lambda: MusicEstimator(**geometry).spectrum(x),
            lambda: bartlett_power_spectrum(x, **geometry),
            lambda: batched_pmusic_from_covariances(r, config),
        ]
        for call in calls:
            with pytest.raises(EstimationError):
                call()
