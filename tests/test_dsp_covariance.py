"""Tests for repro.dsp.covariance and forward-backward averaging."""

import numpy as np
import pytest

from repro.dsp.batch import batched_smoothed_from_full
from repro.dsp.covariance import is_hermitian, sample_covariance
from repro.errors import EstimationError


def forward_backward_average(covariance):
    """``(R + J R* J) / 2``: smoothing with one subarray spanning the array."""
    return batched_smoothed_from_full(covariance[None], covariance.shape[0])[0]


class TestSampleCovariance:
    def test_shape(self, rng):
        x = rng.normal(size=(8, 32)) + 1j * rng.normal(size=(8, 32))
        assert sample_covariance(x).shape == (8, 8)

    def test_hermitian(self, rng):
        x = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
        assert is_hermitian(sample_covariance(x))

    def test_positive_semidefinite(self, rng):
        x = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
        eigenvalues = np.linalg.eigvalsh(sample_covariance(x))
        assert np.all(eigenvalues >= -1e-12)

    def test_single_snapshot_has_one_nonzero_eigenvalue(self, rng):
        x = rng.normal(size=(6, 1)) + 1j * rng.normal(size=(6, 1))
        r = sample_covariance(x)
        eigenvalues = np.sort(np.linalg.eigvalsh(r))
        assert eigenvalues[-2] == pytest.approx(0.0, abs=1e-10)

    def test_white_noise_converges_to_identity(self, rng):
        x = (rng.normal(size=(4, 200_000)) + 1j * rng.normal(size=(4, 200_000))) / np.sqrt(2)
        r = sample_covariance(x)
        assert np.allclose(r, np.eye(4), atol=0.02)

    def test_rejects_1d(self):
        with pytest.raises(EstimationError):
            sample_covariance(np.zeros(8))


class TestHelpers:
    def test_is_hermitian_rejects_rectangular(self):
        assert not is_hermitian(np.zeros((2, 3)))

    def test_forward_backward_preserves_hermitian(self, rng):
        x = rng.normal(size=(5, 30)) + 1j * rng.normal(size=(5, 30))
        fb = forward_backward_average(sample_covariance(x))
        assert is_hermitian(fb)

    def test_forward_backward_is_persymmetric(self, rng):
        x = rng.normal(size=(5, 30)) + 1j * rng.normal(size=(5, 30))
        fb = forward_backward_average(sample_covariance(x))
        j = np.fliplr(np.eye(5))
        assert np.allclose(fb, j @ fb.conj() @ j)

    def test_forward_backward_rejects_rectangular(self):
        with pytest.raises(EstimationError):
            batched_smoothed_from_full(np.zeros((1, 2, 3)), 2)
