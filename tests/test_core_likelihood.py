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


def distance(row, point):
    """Distance from an ``(x, y)`` array row to a point."""
    return Point(*row.tolist()).distance_to(point)


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
        mode = lmap.peel_modes(lmap.evaluate(evidence), evidence).estimates()[0]
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
        modes = lmap.peel_modes(
            lmap.evaluate(combined), combined, max_modes=6, min_separation=0.5
        ).estimates()
        hits = 0
        for target in (target_a, target_b):
            if any(m.position.distance_to(target) < 0.4 for m in modes):
                hits += 1
        assert hits == 2

    def test_mode_count_bounded(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        target = Point(3.0, 3.0)
        evidence = evidence_for_target(readers, target)
        modes = lmap.peel_modes(
            lmap.evaluate(evidence), evidence, max_modes=3
        ).estimates()
        assert len(modes) <= 3


class TestRayIntersections:
    def test_true_position_among_intersections(self, readers):
        target = Point(2.4, 3.6)
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        crossings = lmap.ray_intersections(evidence_for_target(readers, target))
        assert any(distance(c, target) < 0.15 for c in crossings)

    def test_no_intersections_without_detection(self, readers):
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        empty = [_evidence_from_events("south", [], default_angle_grid())]
        assert lmap.ray_intersections(empty).shape == (0, 2)

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
            assert distance(a, Point(*b.tolist())) == 0.0

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
        assert any(distance(c, target) < 0.15 for c in crossings)


    def test_crossing_dedupe_is_greedy(self, readers):
        # One west ray (y = 3) crossed by four south rays, in event
        # order at x = 2.0, 2.05, 4.5 and 1.0.  The third crossing lies
        # within the radius of a mode and the second within the radius
        # of the first, the earlier kept crossing: only the first and
        # the fourth become candidates.
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        grid = default_angle_grid()

        def event(name, target):
            return BlockedPath(
                reader_name=name,
                epc="E" * 24,
                angle=readers[name].array.angle_to(target),
                relative_drop=1.0,
                baseline_power=1.0,
                online_power=0.0,
            )

        south = [event("south", Point(x, 3.0)) for x in (2.0, 2.05, 4.5, 1.0)]
        items = [
            _evidence_from_events("south", south, grid),
            _evidence_from_events("west", [event("west", Point(2.0, 3.0))], grid),
        ]
        crossings = lmap.ray_intersections(items)
        assert len(crossings) == 4
        mode = lmap.score(np.array([[4.55, 3.0]]), items)
        kept = lmap.crossing_candidates(items, mode, 0.15)
        assert kept.positions.tolist() == [crossings[0].tolist(), crossings[3].tolist()]


    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_loop(self, readers, seed):
        # The vectorized crossing against the scalar reference, on
        # random events with repeated angles and, for the larger seeds,
        # more rays than _MAX_RAYS.
        rng = np.random.default_rng(seed)
        lmap = LikelihoodMap(room=ROOM, readers=readers)
        grid = default_angle_grid()
        items = []
        for name in readers:
            angles = rng.uniform(0.05, math.pi - 0.05, size=4 + 12 * seed)
            angles[::3] = angles[0]
            events = [
                BlockedPath(name, "E" * 24, float(a), 1.0, 1.0, 0.0) for a in angles
            ]
            items.append(_evidence_from_events(name, events, grid))
        got = lmap.ray_intersections(items)
        want = pairwise_loop_crossings(lmap, items)
        assert len(want) > 0
        assert got.shape == (len(want), 2)
        # NumPy's cos and sin may differ from math's in the last bit.
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def pairwise_loop_crossings(lmap, evidence, min_range=0.3):
    """Ray crossings one pair at a time in Point arithmetic: the reference."""
    rays, seen = [], set()
    for item in evidence:
        array = lmap.readers[item.reader_name].array
        for event in item.events:
            for sign in (1.0, -1.0):
                bearing = array.orientation + sign * event.angle
                key = (item.reader_name, round(bearing / lmap._RAY_BEARING_QUANTUM))
                if key in seen:
                    continue
                seen.add(key)
                direction = Point(math.cos(bearing), math.sin(bearing))
                if lmap.room.contains(array.centroid + direction * min_range):
                    rays.append((item.reader_name, array.centroid, direction))
    rays = rays[: lmap._MAX_RAYS]
    crossings = []
    for i, (name_a, origin_a, dir_a) in enumerate(rays):
        for name_b, origin_b, dir_b in rays[i + 1 :]:
            denom = dir_a.cross(dir_b)
            if name_a == name_b or abs(denom) < 1e-9:
                continue
            delta = origin_b - origin_a
            t, s = delta.cross(dir_b) / denom, delta.cross(dir_a) / denom
            crossing = origin_a + dir_a * t
            if t >= min_range and s >= min_range and lmap.room.contains(crossing):
                crossings.append((crossing.x, crossing.y))
    return crossings


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
