"""Tests for repro.dsp.peaks."""

import math

import numpy as np
import pytest

from repro.dsp.peaks import find_spectrum_peaks, region_starts_from_indices
from repro.dsp.spectrum import AngularSpectrum


def gaussian_mix_spectrum(centers_deg, amplitudes, width_deg=3.0):
    angles = np.linspace(0, math.pi, 721)
    values = np.zeros_like(angles)
    for center, amplitude in zip(centers_deg, amplitudes):
        values += amplitude * np.exp(
            -0.5 * ((angles - math.radians(center)) / math.radians(width_deg)) ** 2
        )
    return AngularSpectrum(angles, values)


class TestFindSpectrumPeaks:
    def test_finds_all_gaussians(self):
        spectrum = gaussian_mix_spectrum([40, 90, 140], [1.0, 0.8, 0.6])
        peaks = find_spectrum_peaks(spectrum)
        found = sorted(math.degrees(p.angle) for p in peaks)
        assert len(found) == 3
        assert found == pytest.approx([40, 90, 140], abs=0.5)

    def test_sorted_by_value(self):
        spectrum = gaussian_mix_spectrum([40, 90, 140], [0.6, 1.0, 0.8])
        peaks = find_spectrum_peaks(spectrum)
        values = [p.value for p in peaks]
        assert values == sorted(values, reverse=True)

    def test_min_height_filters_weak_peaks(self):
        spectrum = gaussian_mix_spectrum([40, 140], [1.0, 0.02])
        peaks = find_spectrum_peaks(spectrum, min_relative_height=0.05)
        assert len(peaks) == 1

    def test_min_separation_merges_close_peaks(self):
        spectrum = gaussian_mix_spectrum([88, 92], [1.0, 1.0])
        peaks = find_spectrum_peaks(spectrum, min_separation=math.radians(10))
        assert len(peaks) == 1

    def test_boundary_peak_detected(self):
        angles = np.linspace(0, math.pi, 181)
        values = np.exp(-angles / 0.1)  # maximum exactly at angle 0
        peaks = find_spectrum_peaks(AngularSpectrum(angles, values))
        assert any(p.index == 0 for p in peaks)

    def test_flat_zero_spectrum_has_no_peaks(self):
        spectrum = AngularSpectrum(np.linspace(0, math.pi, 10), np.zeros(10))
        assert find_spectrum_peaks(spectrum) == []


def peak_regions(spectrum, peaks):
    """Half-open ``(start, end)`` regions, one per peak, in grid order."""
    indices = sorted(p.index for p in peaks)
    starts = region_starts_from_indices(spectrum.values, indices)
    if starts is None:
        return []
    ends = list(starts[1:]) + [len(spectrum.values)]
    return list(zip(starts, ends))


class TestPeakRegions:
    def test_regions_partition_grid(self):
        spectrum = gaussian_mix_spectrum([40, 90, 140], [1.0, 0.8, 0.6])
        peaks = find_spectrum_peaks(spectrum)
        regions = peak_regions(spectrum, peaks)
        assert regions[0][0] == 0
        assert regions[-1][1] == len(spectrum.values)
        for (_, end_a), (start_b, _) in zip(regions, regions[1:]):
            assert end_a == start_b

    def test_each_region_contains_its_peak(self):
        spectrum = gaussian_mix_spectrum([40, 90, 140], [1.0, 0.8, 0.6])
        peaks = find_spectrum_peaks(spectrum)
        regions = peak_regions(spectrum, peaks)
        ordered = sorted(peaks, key=lambda p: p.index)
        for peak, (start, end) in zip(ordered, regions):
            assert start <= peak.index < end

    def test_no_peaks_no_regions(self):
        spectrum = AngularSpectrum(np.linspace(0, math.pi, 10), np.zeros(10))
        assert peak_regions(spectrum, []) == []
