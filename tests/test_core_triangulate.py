"""Tests for repro.core.triangulate."""

import math

import pytest

from repro.core.triangulate import Bearing, triangulate
from repro.errors import EstimationError
from repro.geometry.point import Point

from tests.test_core_likelihood import make_reader


@pytest.fixture
def arrays():
    south = make_reader("south", Point(3.0, 0.05), 0.0).array
    west = make_reader("west", Point(0.05, 3.0), math.pi / 2.0).array
    north = make_reader("north", Point(3.0, 5.95), math.pi).array
    return south, west, north


def exact_bearings(arrays, target):
    return [
        Bearing(array=array, angle=array.angle_to(target)) for array in arrays
    ]


class TestTriangulate:
    def test_converges_to_truth_from_offset_start(self, arrays):
        target = Point(2.4, 3.6)
        result = triangulate(
            exact_bearings(arrays, target), initial=Point(2.0, 3.0)
        )
        assert result.position.distance_to(target) < 1e-4
        assert result.rms_residual_rad < 1e-5

    def test_two_bearings_sufficient(self, arrays):
        south, west, _ = arrays
        target = Point(4.2, 2.1)
        result = triangulate(
            exact_bearings((south, west), target), initial=Point(3.5, 2.5)
        )
        assert result.position.distance_to(target) < 1e-3

    def test_noisy_bearings_small_residual(self, arrays, rng):
        target = Point(3.1, 4.4)
        noisy = [
            Bearing(array=a.array if hasattr(a, "array") else a,
                    angle=a.angle_to(target) + rng.normal(0, math.radians(0.5)))
            for a in arrays
        ]
        result = triangulate(noisy, initial=Point(3.0, 4.0))
        # Sub-decimeter from half-degree bearing noise at ~3 m ranges.
        assert result.position.distance_to(target) < 0.12

    def test_weights_prioritize_confident_bearings(self, arrays):
        south, west, north = arrays
        target = Point(2.0, 2.0)
        bearings = [
            Bearing(array=south, angle=south.angle_to(target), weight=1.0),
            Bearing(array=west, angle=west.angle_to(target), weight=1.0),
            # A wildly wrong bearing with negligible weight.
            Bearing(
                array=north,
                angle=north.angle_to(Point(5.0, 5.0)),
                weight=1e-6,
            ),
        ]
        result = triangulate(bearings, initial=Point(2.2, 2.2))
        assert result.position.distance_to(target) < 0.05

    def test_single_bearing_rejected(self, arrays):
        south = arrays[0]
        with pytest.raises(EstimationError):
            triangulate(
                [Bearing(array=south, angle=1.0)], initial=Point(3, 3)
            )

    def test_reports_iterations(self, arrays):
        target = Point(3.0, 3.0)
        result = triangulate(
            exact_bearings(arrays, target), initial=Point(2.9, 2.9)
        )
        assert 1 <= result.iterations <= 12


class TestLocalizerRefinement:
    def test_refinement_tightens_clean_fix(self, monkeypatch):
        from repro.core.likelihood import LikelihoodMap
        from repro.core.localizer import DWatchLocalizer
        from tests.test_core_likelihood import ROOM, evidence_for_target

        readers = {
            "south": make_reader("south", Point(3.0, 0.05), 0.0),
            "west": make_reader("west", Point(0.05, 3.0), math.pi / 2.0),
        }
        lmap = LikelihoodMap(room=ROOM, readers=readers, cell_size=0.05)
        localizer = DWatchLocalizer(likelihood_map=lmap)
        target = Point(2.43, 3.61)  # deliberately off-grid
        evidence = evidence_for_target(readers, target)
        error_refined = localizer.localize(evidence).position.distance_to(target)
        # The coarse fix: the consensus pick without the polish.
        monkeypatch.setattr(
            DWatchLocalizer,
            "_triangulate",
            lambda self, ev, events, estimate: estimate.estimates()[0],
        )
        error_coarse = localizer.localize(evidence).position.distance_to(target)
        assert error_refined <= error_coarse + 1e-9
        assert error_refined < 0.03