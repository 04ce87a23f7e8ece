"""Tests for repro.core.multitarget."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.calibration.offsets import PhaseOffsets
from repro.core.detector import _evidence_from_events
from repro.core.likelihood import Events, LikelihoodMap
from repro.core.localizer import DWatchLocalizer
from repro.core.multitarget import (
    MIN_MARGINAL_WEIGHT,
    MIN_SEPARATION,
    POOL_SIZE,
    MultiTargetLocalizer,
)
from repro.core.pipeline import DWatch
from repro.errors import LocalizationError
from repro.geometry.point import Point
from repro.sim.environments import hall_scene, table_scene
from repro.sim.measurement import MeasurementSession
from repro.sim.target import bottle_target, human_target

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


def subset_loop_assign(multi, events, pool, max_targets):
    """The subset search one subset at a time, with Python sets: the reference."""
    rows = events.within(pool.angles, multi.explain_tolerance)
    explains = [np.flatnonzero(row).tolist() for row in rows]
    weight = events.weight.tolist()
    order = sorted(
        range(len(pool)),
        key=lambda i: sum(weight[e] for e in explains[i]),
        reverse=True,
    )[:POOL_SIZE]
    points = [Point(x, y) for x, y in pool.positions.tolist()]
    best, best_score = [], 0.0
    for size in range(1, max_targets + 1):
        for subset in itertools.combinations(order, size):
            if any(
                points[a].distance_to(points[b]) < MIN_SEPARATION
                for a, b in itertools.combinations(subset, 2)
            ):
                continue
            union, score = set(), 0.0
            for index in subset:
                marginal = sum(weight[e] for e in explains[index] if e not in union)
                if marginal < MIN_MARGINAL_WEIGHT:
                    break
                union.update(explains[index])
                score += marginal * (0.05 + pool.likelihood[index])
            else:
                score -= MIN_MARGINAL_WEIGHT * 0.05 * size
                if score > best_score:
                    best, best_score = list(subset), score
    return best


class TestAssignment:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_subset_loop(self, readers, multi, seed):
        # Random targets plus random ghost events; the batched search
        # must choose exactly what the one-subset-at-a-time loop does.
        rng = np.random.default_rng(seed)
        targets = [Point(*rng.uniform(0.8, 5.2, size=2)) for _ in range(3)]
        evidence = []
        for item in merged_evidence(readers, targets):
            ghosts = [
                replace(item.events[0], angle=float(a), relative_drop=float(d))
                for a, d in zip(rng.uniform(0.2, 2.9, 4), rng.uniform(0.5, 1.0, 4))
            ]
            evidence.append(
                _evidence_from_events(
                    item.reader_name, item.events + ghosts, item.drop.angles
                )
            )
        lmap = multi.localizer.likelihood_map
        events = Events.of(evidence)
        pool = multi._candidate_pool(lmap.evaluate(evidence), evidence, events, 3)
        want = subset_loop_assign(multi, events, pool, 3)
        assert want
        assert multi._assign(events, pool, 3).tolist() == want


def _outcome(localize, evidence):
    """Positions and likelihoods of one fix, or ``None`` when uncovered."""
    try:
        estimates = localize(evidence)
    except LocalizationError:
        return None
    return [(e.position.x, e.position.y, e.likelihood) for e in estimates]


def _forwards_and_reversed(localize, evidence_sets):
    forwards = [_outcome(localize, evidence) for evidence in evidence_sets]
    backwards = [_outcome(localize, evidence) for evidence in evidence_sets[::-1]]
    return forwards, backwards[::-1]


class TestPassToPassDeterminism:
    """A fix depends only on its evidence, never on earlier calls.

    The benchmark counts a repeated input whose fix differs from its
    first computation as a failure; here every evidence set is localized
    twice, the second time in reverse order, and the outputs must match
    bit for bit.
    """

    def test_table_three_bottles(self):
        scene = table_scene(rng=19)
        dwatch = DWatch(scene, cell_size=0.02)
        dwatch.calibrate(rng=20)
        session = MeasurementSession(scene, rng=21)
        dwatch.collect_baseline([session.capture() for _ in range(3)])
        center = scene.room.center
        evidence_sets = []
        for i in range(12):
            base = Point(center.x - 0.25 + 0.3 * (i / 11 - 0.5), center.y - 0.25)
            bottles = [base, base + Point(0.0, 0.5), base + Point(0.5, 0.5)]
            capture = session.capture([bottle_target(p) for p in bottles])
            evidence_sets.append(dwatch.evidence(capture))
        forwards, backwards = _forwards_and_reversed(
            lambda evidence: dwatch.multi_localizer.localize(evidence, max_targets=3),
            evidence_sets,
        )
        assert sum(1 for fix in forwards if fix) >= 6
        assert forwards == backwards

    def test_hall_single_target(self):
        scene = hall_scene(rng=21)
        dwatch = DWatch(scene)
        dwatch.set_calibration(
            {
                reader.name: PhaseOffsets.referenced(np.asarray(reader.phase_offsets))
                for reader in scene.readers
            }
        )
        session = MeasurementSession(scene, rng=23)
        dwatch.collect_baseline([session.capture() for _ in range(2)])
        evidence_sets = []
        for tag in scene.tags[:6]:
            for reader in scene.readers[:2]:
                position = (tag.position + reader.array.centroid) / 2.0
                if scene.room.contains(position, margin=0.5):
                    capture = session.capture([human_target(position)])
                    evidence_sets.append(dwatch.evidence(capture))
        forwards, backwards = _forwards_and_reversed(
            lambda evidence: [dwatch.localizer.localize(evidence)], evidence_sets
        )
        assert sum(1 for fix in forwards if fix) >= 2
        assert forwards == backwards
