"""Tests for repro.core.multitarget."""

import math

import pytest

from repro.core.detector import _evidence_from_events
from repro.core.likelihood import LikelihoodMap
from repro.core.localizer import DWatchLocalizer
from repro.core.multitarget import MultiTargetLocalizer
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
def multi(readers):
    localizer = DWatchLocalizer(
        likelihood_map=LikelihoodMap(room=ROOM, readers=readers, cell_size=0.05)
    )
    return MultiTargetLocalizer(localizer=localizer)


def merged_evidence(readers, targets):
    per_target = [evidence_for_target(readers, t) for t in targets]
    combined = []
    for items in zip(*per_target):
        events = [event for item in items for event in item.events]
        combined.append(
            _evidence_from_events(
                items[0].reader_name, events, items[0].drop.angles
            )
        )
    return combined


class TestMultiTarget:
    def test_two_sparse_targets_found(self, readers, multi):
        targets = [Point(1.5, 4.5), Point(4.5, 1.5)]
        estimates = multi.localize(merged_evidence(readers, targets))
        assert len(estimates) == 2
        for target in targets:
            assert any(
                e.position.distance_to(target) < 0.3 for e in estimates
            )

    def test_three_targets_triangle(self, readers, multi):
        targets = [Point(1.5, 1.5), Point(4.5, 1.8), Point(3.0, 4.5)]
        estimates = multi.localize(merged_evidence(readers, targets))
        found = sum(
            1
            for target in targets
            if any(e.position.distance_to(target) < 0.4 for e in estimates)
        )
        assert found >= 2

    def test_close_targets_merge(self, readers, multi):
        # Closer than min_separation: the paper's 20 cm failure case.
        targets = [Point(3.0, 3.0), Point(3.1, 3.1)]
        estimates = multi.localize(merged_evidence(readers, targets))
        assert len(estimates) == 1

    def test_single_target_single_estimate(self, readers, multi):
        estimates = multi.localize(
            merged_evidence(readers, [Point(2.0, 4.0)])
        )
        assert len(estimates) == 1

    def test_no_evidence_no_targets(self, readers, multi):
        from repro.dsp.spectrum import default_angle_grid

        empty = [
            _evidence_from_events(name, [], default_angle_grid())
            for name in readers
        ]
        assert multi.localize(empty) == []

    def test_respects_max_targets(self, readers, multi):
        targets = [Point(1.5, 4.5), Point(4.5, 1.5)]
        estimates = multi.localize(merged_evidence(readers, targets), max_targets=1)
        assert len(estimates) == 1
