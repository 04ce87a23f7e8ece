"""Tests for repro.core.likelihood."""

import math

import numpy as np
import pytest

from repro.core.detector import BlockedPath, _evidence_from_events
from repro.core.likelihood import LikelihoodMap
from repro.dsp.spectrum import default_angle_grid
from repro.errors import LocalizationError
from repro.geometry.point import Point
from repro.geometry.shapes import Rectangle
from repro.rf.array import UniformLinearArray
from repro.rfid.reader import Reader


ROOM = Rectangle(0.0, 0.0, 6.0, 6.0)


def make_reader(name, midpoint, orientation):
    probe = UniformLinearArray(reference=midpoint, orientation=orientation)
    half = (probe.num_antennas - 1) * probe.spacing_m / 2.0
    array = UniformLinearArray(
        reference=midpoint - probe.axis * half,
        orientation=orientation,
        num_antennas=8,
        name=name,
    )
    return Reader(array=array, name=name, rng=1)


@pytest.fixture
def readers():
    south = make_reader("south", Point(3.0, 0.05), 0.0)
    west = make_reader("west", Point(0.05, 3.0), math.pi / 2.0)
    return {"south": south, "west": west}


def evidence_for_target(readers, target, drop=1.0):
    items = []
    grid = default_angle_grid()
    for name, reader in readers.items():
        angle = reader.array.angle_to(target)
        event = BlockedPath(
            reader_name=name,
            epc="E" * 24,
            angle=angle,
            relative_drop=drop,
            baseline_power=1.0,
            online_power=1.0 - drop,
        )
        items.append(_evidence_from_events(name, [event], grid))
    return items


class TestEvaluate:
    def test_peak_near_true_target(self, readers):
        target = Point(2.0, 4.0)
        lmap = LikelihoodMap(room=ROOM, readers=readers, cell_size=0.05)
        xs, ys, likelihood = lmap.evaluate(evidence_for_target(readers, target))
        iy, ix = np.unravel_index(np.argmax(likelihood), likelihood.shape)
        peak = Point(float(xs[ix]), float(ys[iy]))
        assert peak.distance_to(target) < 0.25

    def test_no_detection_yields_zero_surface(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        empty = [_evidence_from_events("south", [], default_angle_grid())]
        _, _, likelihood = lmap.evaluate(empty)
        assert np.all(likelihood == 0.0)


class TestBestEstimate:
    def test_refined_estimate_close(self, readers):
        target = Point(4.2, 2.7)
        lmap = LikelihoodMap(room=ROOM, readers=readers, cell_size=0.05)
        estimate = lmap.best_estimate(evidence_for_target(readers, target))
        assert estimate.position.distance_to(target) < 0.2
        assert estimate.likelihood > 0.0
        assert set(estimate.per_reader_angles) == {"south", "west"}

    def test_no_evidence_raises(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        with pytest.raises(LocalizationError):
            lmap.best_estimate(
                [_evidence_from_events("south", [], default_angle_grid())]
            )

    @pytest.mark.parametrize(
        "target",
        [(4.215, 2.73), (1.33, 4.41), (2.012, 3.988), (5.07, 1.21)],
    )
    def test_sub_cell_precision(self, readers, target):
        # Noiseless evidence for an off-node target: both the best
        # estimate and the strongest mode must resolve it well inside
        # one grid cell.
        target = Point(*target)
        cell = 0.05
        lmap = LikelihoodMap(room=ROOM, readers=readers, cell_size=cell)
        evidence = evidence_for_target(readers, target)
        best = lmap.best_estimate(evidence)
        mode = lmap.top_modes(evidence)[0]
        assert best.position.distance_to(target) < 0.4 * cell
        assert mode.position.distance_to(target) < 0.4 * cell

    def test_unknown_reader_rejected(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        target = Point(3.0, 3.0)
        items = evidence_for_target(readers, target)
        items[0].reader_name = "mystery"
        with pytest.raises(LocalizationError):
            lmap.best_estimate(items)


class TestTopModes:
    def test_two_targets_two_modes(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers, cell_size=0.05)
        target_a, target_b = Point(1.5, 4.5), Point(4.5, 1.5)
        combined = []
        for item_a, item_b in zip(
            evidence_for_target(readers, target_a),
            evidence_for_target(readers, target_b),
        ):
            merged = _evidence_from_events(
                item_a.reader_name,
                item_a.events + item_b.events,
                item_a.drop.angles,
            )
            combined.append(merged)
        modes = lmap.top_modes(combined, max_modes=6, min_separation=0.5)
        hits = 0
        for target in (target_a, target_b):
            if any(m.position.distance_to(target) < 0.4 for m in modes):
                hits += 1
        assert hits == 2

    def test_mode_count_bounded(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        target = Point(3.0, 3.0)
        modes = lmap.top_modes(
            evidence_for_target(readers, target), max_modes=3
        )
        assert len(modes) <= 3


class TestRayIntersections:
    def test_true_position_among_intersections(self, readers):
        target = Point(2.4, 3.6)
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        crossings = lmap.ray_intersections(evidence_for_target(readers, target))
        assert any(c.distance_to(target) < 0.15 for c in crossings)

    def test_no_intersections_without_detection(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        empty = [_evidence_from_events("south", [], default_angle_grid())]
        assert lmap.ray_intersections(empty) == []

    def test_duplicate_events_do_not_change_candidates(self, readers):
        # The ray dedupe keys on (reader, quantized bearing): repeating
        # the same blocked angle must not inflate the candidate set or
        # shift any crossing.
        target = Point(2.4, 3.6)
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        unique = evidence_for_target(readers, target)
        grid = default_angle_grid()
        duplicated = [
            _evidence_from_events(item.reader_name, list(item.events) * 3, grid)
            for item in unique
        ]
        got = lmap.ray_intersections(duplicated)
        want = lmap.ray_intersections(unique)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.distance_to(b) == 0.0

    def test_ray_cap_keeps_true_target_candidate(self, readers):
        # Flood one reader with distinct ghost angles so the ray list
        # crosses _MAX_RAYS; the true-target crossing from the leading
        # events must survive the cap.
        target = Point(2.4, 3.6)
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        grid = default_angle_grid()

        def event(name, angle):
            return BlockedPath(
                reader_name=name,
                epc="E" * 24,
                angle=angle,
                relative_drop=1.0,
                baseline_power=1.0,
                online_power=0.0,
            )

        # True detections first, then a flood of distinct ghost angles
        # on one reader that pushes the ray count past _MAX_RAYS.
        items = [
            _evidence_from_events(
                name, [event(name, reader.array.angle_to(target))], grid
            )
            for name, reader in readers.items()
        ]
        ghosts = [
            event("south", 0.2 + 0.01 * k)
            for k in range(lmap._MAX_RAYS)
        ]
        items.append(_evidence_from_events("south", ghosts, grid))
        crossings = lmap.ray_intersections(items)
        assert any(c.distance_to(target) < 0.15 for c in crossings)


class TestLikelihoodAt:
    def test_higher_at_target_than_elsewhere(self, readers):
        target = Point(2.0, 2.0)
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        evidence = evidence_for_target(readers, target)
        at_target = lmap.likelihood_at(target, evidence)
        away = lmap.likelihood_at(Point(5.0, 5.0), evidence)
        assert at_target > away * 10.0

    def test_grid_nodes_equal_evaluated_surface(self, readers):
        # The point evaluator (np.interp) and the grid's precomputed
        # interpolation table must agree exactly at every grid node.
        lmap = LikelihoodMap(room=ROOM, readers=readers, cell_size=0.1)
        evidence = evidence_for_target(readers, Point(2.43, 3.61))
        xs, ys, likelihood = lmap.evaluate(evidence)
        at_nodes = np.array(
            [
                [lmap.likelihood_at(Point(float(x), float(y)), evidence) for x in xs]
                for y in ys
            ]
        )
        assert np.array_equal(at_nodes, likelihood)
