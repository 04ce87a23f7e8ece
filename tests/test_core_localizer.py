"""Tests for repro.core.localizer (consensus + outlier rejection)."""

import math

import pytest

from repro.core.detector import BlockedPath, _evidence_from_events
from repro.core.likelihood import LikelihoodMap
from repro.core.localizer import DWatchLocalizer
from repro.dsp.spectrum import default_angle_grid
from repro.errors import LocalizationError
from repro.geometry.point import Point

from tests.test_core_likelihood import ROOM, evidence_for_target, make_reader


@pytest.fixture
def readers():
    return {
        "south": make_reader("south", Point(3.0, 0.05), 0.0),
        "west": make_reader("west", Point(0.05, 3.0), math.pi / 2.0),
        "north": make_reader("north", Point(3.0, 5.95), math.pi),
    }


@pytest.fixture
def localizer(readers):
    return DWatchLocalizer(
        likelihood_map=LikelihoodMap(room=ROOM, readers=readers, cell_size=0.05)
    )


def add_event(evidence, readers, reader_name, angle, drop=0.95):
    for item in evidence:
        if item.reader_name == reader_name:
            events = item.events + [
                BlockedPath(
                    reader_name=reader_name,
                    epc="F" * 24,
                    angle=angle,
                    relative_drop=drop,
                    baseline_power=1.0,
                    online_power=1.0 - drop,
                )
            ]
            replacement = _evidence_from_events(
                reader_name, events, item.drop.angles
            )
            evidence[evidence.index(item)] = replacement
            return


class TestCleanLocalization:
    def test_three_reader_fix(self, readers, localizer):
        target = Point(2.2, 3.1)
        estimate = localizer.localize(evidence_for_target(readers, target))
        assert estimate.position.distance_to(target) < 0.2

    def test_two_reader_fix(self, readers, localizer):
        target = Point(4.0, 4.0)
        evidence = evidence_for_target(
            {k: readers[k] for k in ("south", "west")}, target
        )
        estimate = localizer.localize(evidence)
        assert estimate.position.distance_to(target) < 0.2


class TestMinReaders:
    def test_single_reader_rejected(self, readers, localizer):
        target = Point(2.0, 2.0)
        evidence = evidence_for_target({"south": readers["south"]}, target)
        with pytest.raises(LocalizationError):
            localizer.localize(evidence)

    def test_no_detection_rejected(self, localizer):
        empty = [_evidence_from_events("south", [], default_angle_grid())]
        with pytest.raises(LocalizationError):
            localizer.localize(empty)

    def test_no_detection_rejected_without_reader_minimum(self, localizer):
        # No candidate at all must still be a LocalizationError, not a
        # failed comparison on an empty consensus.
        lenient = DWatchLocalizer(
            likelihood_map=localizer.likelihood_map, min_readers=0
        )
        empty = [_evidence_from_events("south", [], default_angle_grid())]
        with pytest.raises(LocalizationError):
            lenient.localize(empty)


class TestWrongAngleRejection:
    def test_extra_wrong_angle_does_not_break_fix(self, readers, localizer):
        target = Point(2.5, 3.5)
        evidence = evidence_for_target(readers, target)
        # A pre-bounce blocked reflection points the south reader at a
        # reflector 40 degrees away from the truth.
        wrong = readers["south"].array.angle_to(target) + math.radians(40)
        add_event(evidence, readers, "south", wrong)
        estimate = localizer.localize(evidence)
        assert estimate.position.distance_to(target) < 0.25

    def test_two_wrong_angles_on_different_readers(self, readers, localizer):
        target = Point(3.2, 2.4)
        evidence = evidence_for_target(readers, target)
        add_event(
            evidence,
            readers,
            "south",
            readers["south"].array.angle_to(target) + math.radians(35),
        )
        add_event(
            evidence,
            readers,
            "west",
            readers["west"].array.angle_to(target) - math.radians(30),
        )
        estimate = localizer.localize(evidence)
        assert estimate.position.distance_to(target) < 0.25


class TestSupportScoring:
    def test_support_counts_consistent_readers(self, readers, localizer):
        target = Point(2.0, 3.0)
        evidence = evidence_for_target(readers, target)
        estimate = localizer.likelihood_map.estimate_at(target, evidence)
        support_readers, weight = localizer._support(estimate, evidence)
        assert support_readers == 3
        assert weight > 2.0

    def test_support_zero_far_away(self, readers, localizer):
        target = Point(2.0, 3.0)
        evidence = evidence_for_target(readers, target)
        decoy = localizer.likelihood_map.estimate_at(Point(5.5, 0.5), evidence)
        support_readers, _ = localizer._support(decoy, evidence)
        assert support_readers < 2
