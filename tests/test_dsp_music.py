"""Tests for repro.dsp.music and the batched MUSIC stages behind it."""

import math

import numpy as np
import pytest

from repro.calibration.wireless import observation_from_snapshots
from repro.dsp.batch import (
    batched_eigendecompose,
    batched_estimate_num_sources,
    batched_music_spectra,
)
from repro.dsp.covariance import sample_covariance
from repro.dsp.music import MusicEstimator
from repro.dsp.spectrum import default_angle_grid
from repro.errors import EstimationError
from repro.rf.channel import MultipathChannel

from tests.conftest import make_path
from tests.pmusic_oracle import music_oracle


def eigendecompose(covariance):
    values, vectors = batched_eigendecompose(covariance[None])
    return values[0], vectors[0]


def estimate_num_sources(eigenvalues, threshold_ratio=0.03):
    return int(batched_estimate_num_sources(eigenvalues[None], threshold_ratio)[0])


class TestEigendecompose:
    def test_descending_order(self, rng):
        x = rng.normal(size=(6, 50)) + 1j * rng.normal(size=(6, 50))
        eigenvalues, _ = eigendecompose(sample_covariance(x))
        assert list(eigenvalues) == sorted(eigenvalues, reverse=True)

    def test_eigen_identity(self, rng):
        x = rng.normal(size=(5, 40)) + 1j * rng.normal(size=(5, 40))
        r = sample_covariance(x)
        eigenvalues, eigenvectors = eigendecompose(r)
        for k in range(5):
            assert np.allclose(
                r @ eigenvectors[:, k], eigenvalues[k] * eigenvectors[:, k]
            )

    def test_rejects_rectangular(self):
        with pytest.raises(EstimationError):
            batched_eigendecompose(np.zeros((1, 2, 3)))


class TestSourceCounting:
    def test_threshold_counting(self):
        eigenvalues = np.array([10.0, 8.0, 5.0, 0.01, 0.01, 0.01])
        assert estimate_num_sources(eigenvalues, threshold_ratio=0.03) == 3

    def test_never_consumes_whole_space(self):
        eigenvalues = np.ones(4)
        assert estimate_num_sources(eigenvalues) <= 3

    def test_at_least_one_source(self):
        eigenvalues = np.array([1.0, 1e-9, 1e-9])
        assert estimate_num_sources(eigenvalues) >= 1

    def test_single_element_array_is_rejected(self):
        # M == 1 leaves no noise subspace: min(1, M-1) would otherwise
        # silently report zero sources downstream.
        with pytest.raises(EstimationError, match="single-element array"):
            estimate_num_sources(np.array([1.0]))

    def test_empty_eigenvalues_rejected(self):
        with pytest.raises(EstimationError, match="no eigenvalues"):
            estimate_num_sources(np.array([]))


class TestNoiseSubspace:
    # The noise subspace U_N that calibration (Eq. 11) reads.
    def test_shape(self, rng):
        x = rng.normal(size=(8, 40)) + 1j * rng.normal(size=(8, 40))
        un = observation_from_snapshots(x, 1.0, num_sources=3).noise_subspace
        assert un.shape == (8, 5)

    def test_orthonormal_columns(self, rng):
        x = rng.normal(size=(8, 40)) + 1j * rng.normal(size=(8, 40))
        un = observation_from_snapshots(x, 1.0, num_sources=3).noise_subspace
        assert np.allclose(un.conj().T @ un, np.eye(5), atol=1e-10)

    def test_invalid_source_count_rejected(self, rng):
        x = rng.normal(size=(4, 10)) + 1j * rng.normal(size=(4, 10))
        _, vectors = batched_eigendecompose(sample_covariance(x)[None])
        for p in (0, 4):
            with pytest.raises(EstimationError):
                batched_music_spectra(
                    vectors, np.array([p]), 0.163, 0.326, default_angle_grid()
                )


class TestMusicEstimator:
    def test_recovers_three_coherent_paths(self, array, three_path_channel):
        x = three_path_channel.snapshots(60, snr_db=25, rng=0)
        estimator = MusicEstimator(
            spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
        )
        peaks = estimator.estimate_aoas(x, max_peaks=3)
        found = sorted(math.degrees(p.angle) for p in peaks)
        assert found == pytest.approx([50, 90, 130], abs=1.5)

    def test_single_path_high_accuracy(self, array):
        channel = MultipathChannel(array=array, paths=[make_path(array, 72.0, 0.01)])
        x = channel.snapshots(60, snr_db=30, rng=1)
        estimator = MusicEstimator(
            spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
        )
        peaks = estimator.estimate_aoas(x, max_peaks=1)
        assert math.degrees(peaks[0].angle) == pytest.approx(72.0, abs=0.6)

    def test_without_smoothing_coherent_pair_grows_spurious_peaks(self, array):
        # Two equal-power fully coherent arrivals: the unsmoothed
        # covariance is rank-1, and MUSIC against its (M-1)-dimensional
        # "noise" subspace produces spurious extra peaks alongside the
        # true ones.  Smoothing restores a clean two-peak spectrum.
        channel = MultipathChannel(
            array=array,
            paths=[make_path(array, 80.0, 0.01), make_path(array, 100.0, 0.01)],
        )
        x = channel.snapshots(60, snr_db=25, rng=3)
        no_smoothing = MusicEstimator(
            spacing_m=array.spacing_m,
            wavelength_m=array.wavelength_m,
            subarray_size=8,
            forward_backward=False,
        )
        smoothed = MusicEstimator(
            spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
        )
        clean = smoothed.estimate_aoas(x)
        assert sorted(math.degrees(p.angle) for p in clean) == pytest.approx(
            [80, 100], abs=1.5
        )
        dirty = no_smoothing.estimate_aoas(x)
        spurious = [
            math.degrees(p.angle)
            for p in dirty
            if min(abs(math.degrees(p.angle) - t) for t in (80, 100)) > 5.0
        ]
        assert spurious, "expected spurious coherent-source peaks"

    def test_fixed_num_sources_respected(self, array, three_path_channel):
        x = three_path_channel.snapshots(60, snr_db=25, rng=4)
        estimator = MusicEstimator(
            spacing_m=array.spacing_m,
            wavelength_m=array.wavelength_m,
            num_sources=3,
        )
        values = estimator.spectrum(x).values
        _, pinned = music_oracle(
            x, array.spacing_m, array.wavelength_m, num_sources=3
        )
        _, other = music_oracle(
            x, array.spacing_m, array.wavelength_m, num_sources=1
        )
        np.testing.assert_allclose(values, pinned, rtol=0.0, atol=1e-8 * pinned.max())
        assert not np.allclose(values, other, rtol=0.0, atol=1e-3 * other.max())
