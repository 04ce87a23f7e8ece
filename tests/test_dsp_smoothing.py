"""Tests for spatial smoothing (coherent-source decorrelation) in repro.dsp.batch."""

import numpy as np
import pytest

from repro.dsp.batch import batched_smoothed_from_full, default_subarray_size
from repro.dsp.covariance import is_hermitian, sample_covariance
from repro.errors import EstimationError


def spatially_smoothed_covariance(x, subarray_size, forward_backward=True):
    return batched_smoothed_from_full(
        sample_covariance(x)[None], subarray_size, forward_backward
    )[0]


class TestSpatialSmoothing:
    def test_output_shape(self, three_path_channel):
        x = three_path_channel.snapshots(32, rng=0)
        smoothed = spatially_smoothed_covariance(x, subarray_size=6)
        assert smoothed.shape == (6, 6)

    def test_hermitian_output(self, three_path_channel):
        x = three_path_channel.snapshots(32, rng=1)
        assert is_hermitian(spatially_smoothed_covariance(x, 6))

    def test_restores_rank_for_coherent_sources(self, three_path_channel):
        # Coherent multipath makes the full covariance effectively
        # rank-1; smoothing must spread energy over >= 3 eigenvalues.
        x = three_path_channel.snapshots(64, snr_db=40, rng=2)
        full = x @ x.conj().T / x.shape[1]
        full_eigs = np.sort(np.linalg.eigvalsh(full))[::-1]
        assert full_eigs[1] / full_eigs[0] < 0.05  # rank-1 before

        smoothed = spatially_smoothed_covariance(x, 6)
        eigs = np.sort(np.linalg.eigvalsh(smoothed))[::-1]
        assert eigs[2] / eigs[0] > 0.01  # three signal directions after

    def test_invalid_subarray_rejected(self, three_path_channel):
        x = three_path_channel.snapshots(8, rng=3)
        with pytest.raises(EstimationError):
            spatially_smoothed_covariance(x, 1)
        with pytest.raises(EstimationError):
            spatially_smoothed_covariance(x, 9)

    def test_full_size_subarray_equals_plain_covariance(self, three_path_channel):
        x = three_path_channel.snapshots(16, rng=4)
        smoothed = spatially_smoothed_covariance(x, 8, forward_backward=False)
        plain = x @ x.conj().T / x.shape[1]
        assert np.allclose(smoothed, plain)


class TestDefaultSubarraySize:
    def test_paper_configuration(self):
        # 8 antennas, up to 5 dominant paths -> subarray of 6.
        assert default_subarray_size(8) == 6

    def test_small_array(self):
        assert default_subarray_size(4) >= 3

    def test_too_small_rejected(self):
        with pytest.raises(EstimationError):
            default_subarray_size(2)
