"""Property-based tests (hypothesis) for the DSP substrate."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.dsp.batch import batched_smoothed_from_full
from repro.dsp.covariance import is_hermitian, sample_covariance
from repro.dsp.spectrum import AngularSpectrum
from repro.rf.array import steering_vector
from repro.utils.angles import wrap_to_pi

HALF_WAVE = DEFAULT_WAVELENGTH_M / 2.0

angles = st.floats(min_value=0.0, max_value=math.pi)
antenna_counts = st.integers(min_value=2, max_value=16)
seeds = st.integers(min_value=0, max_value=2**31)


class TestSteeringVectorProperties:
    @given(angles, antenna_counts)
    def test_unit_modulus(self, theta, m):
        vec = steering_vector(theta, m, HALF_WAVE, DEFAULT_WAVELENGTH_M)
        assert np.allclose(np.abs(vec), 1.0)

    @given(angles, antenna_counts)
    def test_geometric_progression(self, theta, m):
        # Consecutive element ratios must all equal the first ratio.
        vec = steering_vector(theta, m, HALF_WAVE, DEFAULT_WAVELENGTH_M)
        if m < 3:
            return
        ratios = vec[1:] / vec[:-1]
        assert np.allclose(ratios, ratios[0])

    @given(angles, antenna_counts)
    def test_mirror_angle_conjugates(self, theta, m):
        vec = steering_vector(theta, m, HALF_WAVE, DEFAULT_WAVELENGTH_M)
        mirrored = steering_vector(
            math.pi - theta, m, HALF_WAVE, DEFAULT_WAVELENGTH_M
        )
        assert np.allclose(mirrored, vec.conj())

    @given(angles)
    def test_norm_is_sqrt_m(self, theta):
        vec = steering_vector(theta, 8, HALF_WAVE, DEFAULT_WAVELENGTH_M)
        assert math.isclose(float(np.linalg.norm(vec)), math.sqrt(8))


class TestCovarianceProperties:
    @settings(max_examples=40)
    @given(seeds, st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=50))
    def test_sample_covariance_hermitian_psd(self, seed, m, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        r = sample_covariance(x)
        assert is_hermitian(r)
        assert np.all(np.linalg.eigvalsh(r) >= -1e-10)

    @settings(max_examples=40)
    @given(seeds, st.integers(min_value=2, max_value=8))
    def test_forward_backward_trace_preserved(self, seed, m):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, 20)) + 1j * rng.normal(size=(m, 20))
        r = sample_covariance(x)
        fb = batched_smoothed_from_full(r[None], m)[0]
        assert np.isclose(np.trace(fb).real, np.trace(r).real)

    @settings(max_examples=40)
    @given(seeds, st.integers(min_value=2, max_value=8))
    def test_scaling_equivariance(self, seed, m):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, 25)) + 1j * rng.normal(size=(m, 25))
        assert np.allclose(sample_covariance(3.0 * x), 9.0 * sample_covariance(x))


class TestSpectrumProperties:
    @settings(max_examples=40)
    @given(seeds)
    def test_drop_is_nonnegative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0, math.pi, 64)
        base = AngularSpectrum(grid, rng.uniform(0.1, 1.0, size=64))
        online = AngularSpectrum(grid, rng.uniform(0.0, 1.0, size=64))
        drop = online.drop_relative_to(base)
        assert np.all(drop.values >= 0.0)
        assert np.all(drop.values <= base.values + 1e-12)

    @settings(max_examples=40)
    @given(seeds)
    def test_max_in_window_dominates_point_value(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0, math.pi, 128)
        spectrum = AngularSpectrum(grid, rng.uniform(0.0, 1.0, size=128))
        angle = float(rng.uniform(0.1, math.pi - 0.1))
        # The windowed max can only exceed (or match) any interior grid
        # sample's interpolated value.
        window_max = spectrum.max_in_window(angle, 0.2)
        assert window_max >= spectrum.value_at(angle) - 1e-9


class TestWrapProperties:
    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_wrap_idempotent(self, angle):
        once = wrap_to_pi(angle)
        assert math.isclose(float(wrap_to_pi(once)), float(once), abs_tol=1e-12)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_wrap_preserves_angle_mod_2pi(self, angle):
        wrapped = float(wrap_to_pi(angle))
        assert math.isclose(
            math.cos(wrapped), math.cos(angle), abs_tol=1e-9
        )
        assert math.isclose(
            math.sin(wrapped), math.sin(angle), abs_tol=1e-9
        )
