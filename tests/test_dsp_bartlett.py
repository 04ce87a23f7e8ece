"""Tests for repro.dsp.bartlett (align-and-sum power, Eq. 12-13)."""

import math

import numpy as np
import pytest

from repro.dsp.bartlett import bartlett_power_spectrum
from repro.errors import EstimationError
from repro.rf.channel import MultipathChannel

from tests.conftest import make_path


def bartlett_power_at(snapshots, theta, spacing_m, wavelength_m):
    grid = np.array([theta, theta + 1e-9])
    return bartlett_power_spectrum(snapshots, spacing_m, wavelength_m, grid).values[0]


class TestBartlettPower:
    def test_single_path_power_recovered(self, array):
        gain = 0.01
        channel = MultipathChannel(array=array, paths=[make_path(array, 80.0, gain)])
        x = channel.snapshots(200, snr_db=40, rng=0)
        power = bartlett_power_at(
            x, math.radians(80.0), array.spacing_m, array.wavelength_m
        )
        assert power == pytest.approx(gain**2, rel=0.1)

    def test_matches_direct_equation(self, array, three_path_channel):
        # The covariance formulation must equal the paper's literal
        # "weight, sum, square, average" form.
        x = three_path_channel.snapshots(20, snr_db=25, rng=1)
        theta = math.radians(64.0)
        m = x.shape[0]
        omega = (
            np.arange(m)
            * (2 * math.pi * array.spacing_m / array.wavelength_m)
            * math.cos(theta)
        )
        aligned = (x * np.exp(1j * omega)[:, None]).sum(axis=0)
        direct = float(np.mean(np.abs(aligned) ** 2)) / m**2
        assert bartlett_power_at(
            x, theta, array.spacing_m, array.wavelength_m
        ) == pytest.approx(direct, rel=1e-9)

    def test_power_ordering_tracks_gain_ordering(self, array, three_path_channel):
        x = three_path_channel.snapshots(200, snr_db=30, rng=2)
        spectrum = bartlett_power_spectrum(x, array.spacing_m, array.wavelength_m)
        p50 = spectrum.max_in_window(math.radians(50), math.radians(3))
        p90 = spectrum.max_in_window(math.radians(90), math.radians(3))
        p130 = spectrum.max_in_window(math.radians(130), math.radians(3))
        assert p50 > p90 > p130

    def test_nonnegative_everywhere(self, array, three_path_channel):
        x = three_path_channel.snapshots(30, rng=3)
        spectrum = bartlett_power_spectrum(x, array.spacing_m, array.wavelength_m)
        assert np.all(spectrum.values >= 0.0)

    def test_rejects_1d_input(self, array):
        with pytest.raises(EstimationError):
            bartlett_power_spectrum(
                np.zeros(8), array.spacing_m, array.wavelength_m
            )
