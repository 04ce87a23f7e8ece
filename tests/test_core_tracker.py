"""Tests for repro.core.tracker."""

import numpy as np
import pytest

from repro.core.tracker import KalmanTracker
from repro.errors import ConfigurationError
from repro.geometry.point import Point


def straight_line_fixes(n, speed=0.5, dt=0.1, noise=0.0, rng=None):
    points = []
    for i in range(n):
        x = i * speed * dt
        if rng is not None and noise > 0:
            points.append(Point(x + rng.normal(0, noise), rng.normal(0, noise)))
        else:
            points.append(Point(x, 0.0))
    return points


def l_walk_with_deadzone(rng):
    """60 steps of an L-shaped walk with noisy fixes; the turn at step 30
    falls inside a one-second gap (steps 30-39) where every fix is missing."""
    truth, fixes = [], []
    for step in range(60):
        if step < 30:
            position = Point(1.0 + step * 0.1, 1.0)
        else:
            position = Point(4.0, 1.0 + (step - 30) * 0.1)
        truth.append(position)
        if 30 <= step < 40:
            fixes.append(None)
        else:
            fixes.append(
                Point(
                    position.x + rng.normal(0, 0.12),
                    position.y + rng.normal(0, 0.12),
                )
            )
    return truth, fixes


class TestInitialization:
    def test_first_update_requires_fix(self):
        tracker = KalmanTracker()
        with pytest.raises(ConfigurationError):
            tracker.update(0.0, None)

    def test_first_fix_passes_through(self):
        tracker = KalmanTracker()
        point = tracker.update(0.0, Point(1.0, 2.0))
        assert point.position == Point(1.0, 2.0)
        assert not point.predicted_only

    def test_reset_forgets_state(self):
        tracker = KalmanTracker()
        tracker.update(0.0, Point(1.0, 2.0))
        tracker.reset()
        assert not tracker.initialized

    def test_time_must_advance(self):
        tracker = KalmanTracker()
        tracker.update(1.0, Point(0, 0))
        with pytest.raises(ConfigurationError):
            tracker.update(0.5, Point(0, 0))

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            KalmanTracker(process_noise=0.0)


class TestSmoothing:
    def test_reduces_noise_on_straight_track(self, rng):
        truth = straight_line_fixes(60)
        noisy = straight_line_fixes(60, noise=0.15, rng=rng)
        tracker = KalmanTracker(process_noise=0.8, measurement_noise=0.15)
        times = [i * 0.1 for i in range(60)]
        track = tracker.track(times, noisy)
        raw_error = np.mean(
            [n.distance_to(t) for n, t in zip(noisy[30:], truth[30:])]
        )
        smoothed_error = np.mean(
            [
                point.position.distance_to(t)
                for point, t in zip(track[30:], truth[30:])
            ]
        )
        assert smoothed_error < raw_error

    def test_velocity_learned(self):
        tracker = KalmanTracker(measurement_noise=0.01)
        fixes = straight_line_fixes(40, speed=1.0)
        times = [i * 0.1 for i in range(40)]
        tracker.track(times, fixes)
        assert tracker._state[2] == pytest.approx(1.0, abs=0.15)


class TestDeadzoneBridging:
    def test_prediction_through_gap(self):
        tracker = KalmanTracker(measurement_noise=0.01)
        fixes = straight_line_fixes(30, speed=1.0)
        times = [i * 0.1 for i in range(30)]
        # Two seconds of fixes, then a deadzone epoch.
        tracker.track(times, fixes)
        gap_point = tracker.update(3.05, None)
        assert gap_point.predicted_only
        assert gap_point.position.x == pytest.approx(3.05, abs=0.25)

    def test_keeps_track_through_turn_in_gap(self):
        # The Section 8 mobility mitigation: coast through a deadzone
        # on the motion model and re-acquire after the turn.
        errors = []
        for seed in range(700, 706):
            truth, fixes = l_walk_with_deadzone(np.random.default_rng(seed))
            tracker = KalmanTracker(process_noise=1.2)
            track = tracker.track([i * 0.1 for i in range(len(fixes))], fixes)
            offset = len(fixes) - len(track)
            errors.extend(
                point.position.distance_to(truth[i + offset])
                for i, point in enumerate(track[10:], start=10)
            )
        assert float(np.mean(errors)) < 0.5

    def test_track_skips_leading_deadzone(self):
        tracker = KalmanTracker()
        track = tracker.track([0.0, 0.1], [None, Point(1.0, 1.0)])
        assert len(track) == 1
        assert track[0].position == Point(1.0, 1.0)

    def test_mismatched_lengths_rejected(self):
        tracker = KalmanTracker()
        with pytest.raises(ConfigurationError):
            tracker.track([0.0], [None, None])
