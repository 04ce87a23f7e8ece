"""Tests for repro.core.detector."""

import math

import numpy as np
import pytest

from repro.core.detector import BlockedPath, DropDetector, _evidence_from_events
from repro.dsp.spectrum import AngularSpectrum, default_angle_grid


def lobe_spectrum(centers_deg, powers, width_deg=1.0):
    angles = default_angle_grid(721)
    values = np.zeros_like(angles)
    for center, power in zip(centers_deg, powers):
        values += power * np.exp(
            -0.5 * ((angles - math.radians(center)) / math.radians(width_deg)) ** 2
        )
    return AngularSpectrum(angles, values)


class TestDetectPair:
    def test_detects_blocked_peak(self):
        detector = DropDetector()
        baseline = lobe_spectrum([50, 90, 130], [1.0, 0.8, 0.6])
        online = lobe_spectrum([50, 90, 130], [0.02, 0.8, 0.6])
        events = detector.detect_pair("r", "epc", baseline, online)
        assert len(events) == 1
        assert math.degrees(events[0].angle) == pytest.approx(50, abs=1)
        assert events[0].relative_drop > 0.9

    def test_tolerates_peak_jitter(self):
        detector = DropDetector()
        baseline = lobe_spectrum([90], [1.0])
        shifted = lobe_spectrum([91.0], [1.0])  # same power, 1 deg drift
        assert detector.detect_pair("r", "epc", baseline, shifted) == []

    def test_multiple_blocks_reported(self):
        detector = DropDetector()
        baseline = lobe_spectrum([50, 130], [1.0, 0.9])
        online = lobe_spectrum([50, 130], [0.02, 0.02])
        events = detector.detect_pair("r", "epc", baseline, online)
        assert len(events) == 2

    def test_endfire_peaks_ignored(self):
        detector = DropDetector()
        baseline = lobe_spectrum([1.5, 90], [1.0, 0.9])
        online = lobe_spectrum([1.5, 90], [0.001, 0.001])
        events = detector.detect_pair("r", "epc", baseline, online)
        assert len(events) == 1
        assert math.degrees(events[0].angle) == pytest.approx(90, abs=1)

    def test_weak_baseline_peaks_not_monitored(self):
        detector = DropDetector(min_peak_relative_height=0.2)
        baseline = lobe_spectrum([50, 130], [1.0, 0.05])
        online = lobe_spectrum([50, 130], [1.0, 0.0001])
        assert detector.detect_pair("r", "epc", baseline, online) == []

    def test_unstable_peak_confidence_zeroed(self):
        detector = DropDetector()
        baseline = lobe_spectrum([90], [1.0])
        wobbly_confirmation = lobe_spectrum([90], [0.2])  # self-drop of 0.8
        online = lobe_spectrum([90], [0.001])
        events = detector.detect_pair(
            "r", "epc", baseline, online, [wobbly_confirmation]
        )
        assert events == []

    def test_stable_confirmation_keeps_confidence(self):
        detector = DropDetector()
        baseline = lobe_spectrum([90], [1.0])
        stable = lobe_spectrum([90], [0.98])
        online = lobe_spectrum([90], [0.001])
        events = detector.detect_pair("r", "epc", baseline, online, [stable])
        assert len(events) == 1
        assert events[0].confidence > 0.9


class TestEvidenceAggregation:
    def _sets(self, baseline_spec, online_spec):
        from repro.core.baseline import SpectrumSet

        base = SpectrumSet(spectra={"r": {"epc": baseline_spec}})
        online = SpectrumSet(spectra={"r": {"epc": online_spec}})
        return base, online

    def test_evidence_kernel_peaks_at_event(self):
        detector = DropDetector()
        base, online = self._sets(
            lobe_spectrum([70], [1.0]), lobe_spectrum([70], [0.02])
        )
        evidence = detector.evidence(base, online)
        assert len(evidence) == 1
        assert evidence[0].has_detection
        assert math.degrees(evidence[0].drop.dominant_angle()) == pytest.approx(
            70, abs=1
        )

    def test_silent_tag_counts_as_blocked(self):
        from repro.core.baseline import SpectrumSet

        detector = DropDetector()
        base = SpectrumSet(spectra={"r": {"epc": lobe_spectrum([70], [1.0])}})
        online = SpectrumSet(spectra={"r": {}})
        evidence = detector.evidence(base, online)
        assert evidence[0].has_detection
        assert evidence[0].events[0].relative_drop == 1.0

    def test_missing_reader_raises(self):
        from repro.core.baseline import SpectrumSet
        from repro.errors import LocalizationError

        detector = DropDetector()
        base = SpectrumSet(spectra={"r": {"epc": lobe_spectrum([70], [1.0])}})
        online = SpectrumSet(spectra={})
        with pytest.raises(LocalizationError):
            detector.evidence(base, online)

    def test_rebuilt_evidence_keeps_the_detector_kernels(self):
        detector = DropDetector()
        base, online = self._sets(
            lobe_spectrum([50, 130], [1.0, 0.9]),
            lobe_spectrum([50, 130], [0.02, 0.02]),
        )
        evidence = detector.evidence(base, online)[0]
        rebuilt = _evidence_from_events(
            evidence.reader_name, evidence.events, evidence.drop.angles
        )
        assert len(rebuilt.events) == 2
        assert np.array_equal(rebuilt.drop.values, evidence.drop.values)


class TestBlockedPathWeight:
    def test_weight_combines_drop_and_confidence(self):
        event = BlockedPath(
            reader_name="r",
            epc="e",
            angle=1.0,
            relative_drop=0.9,
            baseline_power=1.0,
            online_power=0.1,
            confidence=0.5,
        )
        assert event.weight == pytest.approx(0.45)
