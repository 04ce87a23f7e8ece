"""Single-target localization with wrong-angle outlier rejection.

Section 4.3: a target that blocks a reflected path *before* the bounce
produces a drop at the reflector's angle, not the target's.  Since one
target cannot block two paths of the same reader at truly different
angles, a reader reporting several blocked angles has at most one
correct one.  The correct angles from different readers agree on a
nearby position while wrong ones point at scattered, often out-of-room
spots — so after the likelihood pick, events inconsistent with the
estimate are discarded and the position is re-estimated from the
survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import obs
from repro.core.detector import AngleEvidence, _evidence_from_events
from repro.core.likelihood import LikelihoodMap, LocationEstimate
from repro.errors import LocalizationError
from repro.utils.angles import deg2rad

#: Maximum reject-and-re-estimate iterations.
OUTLIER_ROUNDS = 2
#: A reader counts towards consensus only if it contributes at least
#: one consistent event with a drop this deep.  A genuine body shadow
#: collapses its path deeply (relative drop >= 0.9, or >= 0.7 when
#: grazing the Fresnel zone) whatever the path's stability confidence,
#: while the cross-term artifacts of the coherent Bartlett reading
#: produce shallow 0.5-0.7 drops; a ghost assembled purely from
#: artifacts should read as "uncovered".
SUPPORT_MIN_EVENT_DROP = 0.7
#: ...and at least this much stability confidence, so a lobe that
#: collapses on its own between empty captures cannot vouch alone.
SUPPORT_MIN_EVENT_CONFIDENCE = 0.3


@dataclass
class DWatchLocalizer:
    """Maximum-likelihood single-target localizer.

    Parameters
    ----------
    likelihood_map:
        The grid evaluator (room, readers, cell size).
    consistency_tolerance:
        Angular agreement (radians) required between a reader's blocked
        angle and the angle under which the reader sees the final
        estimate; events outside it are treated as wrong-angle outliers.
    min_readers:
        Minimum readers with blocking evidence.  A single bearing
        cannot fix a position (the likelihood is a ridge along the
        ray), so the paper triangulates "at least two non-collinear
        readers"; locations seen by fewer count as uncovered.
    """

    likelihood_map: LikelihoodMap
    consistency_tolerance: float = deg2rad(6.0)
    min_readers: int = 2

    def localize(self, evidence: Sequence[AngleEvidence]) -> LocationEstimate:
        """Locate one target, rejecting wrong-angle outliers.

        Raises
        ------
        LocalizationError
            If fewer than ``min_readers`` readers produced blocking
            evidence (the position is not identifiable).
        """
        current = list(evidence)
        detecting = sum(1 for item in current if item.has_detection)
        if detecting < self.min_readers:
            raise LocalizationError(
                f"only {detecting} reader(s) saw the target; "
                f"{self.min_readers} needed for triangulation"
            )
        with obs.span("localizer.solve", readers=detecting) as sp:
            estimate = self._consensus_estimate(current)
            rounds = 0
            for _ in range(OUTLIER_ROUNDS):
                filtered = self._reject_outliers(current, estimate)
                rejected = _event_count(current) - _event_count(filtered)
                if rejected == 0:
                    break
                if not any(e.has_detection for e in filtered):
                    break
                obs.count("localizer.outliers_rejected", rejected)
                rounds += 1
                current = filtered
                estimate = self._consensus_estimate(current)
            obs.count("localizer.outlier_rounds", rounds)
            sp.set(outlier_rounds=rounds)
            return self._triangulate(current, estimate)

    def _triangulate(
        self,
        evidence: Sequence[AngleEvidence],
        estimate: LocationEstimate,
    ) -> LocationEstimate:
        """Gauss-Newton polish over the consistent bearings; converges
        below grid resolution.

        The refined point is accepted only when it stays near the
        consensus pick and inside the room — the polish is for the last
        centimetres, never for jumping modes.
        """
        from repro.core.triangulate import bearings_from_evidence, triangulate
        from repro.errors import EstimationError

        with obs.span("localizer.triangulate"):
            bearings = bearings_from_evidence(
                evidence,
                self.likelihood_map.readers,
                estimate,
                self.consistency_tolerance,
            )
            distinct_readers = {
                id(bearing.array) for bearing in bearings
            }
            if len(bearings) < 2 or len(distinct_readers) < 2:
                return estimate
            try:
                refined = triangulate(bearings, estimate.position)
            except EstimationError:
                return estimate
            room = self.likelihood_map.room
            if not room.contains(refined.position, margin=-1e-9):
                return estimate
            if refined.position.distance_to(estimate.position) > 0.5:
                return estimate
            return self.likelihood_map.estimate_at(refined.position, evidence)

    def _consensus_estimate(
        self, evidence: Sequence[AngleEvidence]
    ) -> LocationEstimate:
        """Pick the likelihood mode agreed upon by the most readers.

        This is the paper's Section 4.3 argument operationalised: the
        correct per-reader angles intersect at one close-by position
        while wrong-angle (pre-bounce) detections scatter, so among the
        strongest likelihood modes the one *supported* by the largest
        number of readers — having an event within tolerance of the
        angle under which that reader sees the mode — is the target.
        Ties break on likelihood.
        """
        lmap = self.likelihood_map
        with obs.span("localizer.consensus") as sp:
            surface = lmap.evaluate(evidence)
            candidates = lmap.peel_modes(
                surface, evidence, max_modes=12, min_separation=0.35
            )
            # Add every cross-reader ray intersection: the true triangulated
            # position is guaranteed to be among these even when wrong-angle
            # ghost modes dominate the likelihood surface.
            candidates += lmap.crossing_candidates(evidence, candidates, 0.15)
            sp.set(candidates=len(candidates))
            best_mode, best_key = None, None
            for mode in candidates:
                readers, weight = self._support(mode, evidence)
                # Readers (consensus breadth) dominate; ties break on the
                # product of explained event weight and the kernel
                # likelihood — a ghost may collect slightly heavier events,
                # but its kernels never align as exactly as the true
                # intersection's, which the likelihood factor exposes.
                key = (readers, weight * (0.05 + mode.likelihood))
                if best_key is None or key > best_key:
                    best_mode, best_key = mode, key
            if best_key is None or best_key[0] < self.min_readers:
                raise LocalizationError(
                    "no candidate position is corroborated by "
                    f"{self.min_readers} readers; location not identifiable"
                )
            return lmap.refine(surface, evidence, [best_mode.position])[0]

    def _support(
        self, estimate: LocationEstimate, evidence: Sequence[AngleEvidence]
    ) -> "tuple[int, float]":
        """Consensus support of an estimate.

        Returns ``(readers, weight)``: the number of readers with at
        least one consistent event, and the summed relative drops of
        every consistent event.  A true target position is corroborated
        by many individual tag paths (several tags' rays graze the same
        body), while a wrong-angle ghost typically rests on one event
        per reader — the event weight separates the tie.
        """
        readers = 0
        weight = 0.0
        for item in evidence:
            angle = estimate.per_reader_angles.get(item.reader_name)
            if angle is None or not item.has_detection:
                continue
            consistent = [
                event
                for event in item.events
                if abs(event.angle - angle) <= self.consistency_tolerance
            ]
            if consistent:
                if any(
                    event.relative_drop >= SUPPORT_MIN_EVENT_DROP
                    and event.confidence >= SUPPORT_MIN_EVENT_CONFIDENCE
                    for event in consistent
                ):
                    readers += 1
                weight += sum(event.weight for event in consistent)
        return readers, weight

    def _reject_outliers(
        self,
        evidence: Sequence[AngleEvidence],
        estimate: LocationEstimate,
    ) -> List[AngleEvidence]:
        """Drop events whose angle disagrees with the estimate.

        A reader keeps its closest-agreeing event; only genuinely
        inconsistent extra events (the wrong-angle reflections) are
        removed.  When a reader's *every* event disagrees with the
        estimate, the decision depends on redundancy: with enough other
        agreeing readers the whole reader is dropped (its one detection
        is a wrong-angle reflection), otherwise its best event is kept
        because it may be an essential vantage point.
        """
        agreeing_readers = 0
        for item in evidence:
            seen_angle = estimate.per_reader_angles.get(item.reader_name)
            if seen_angle is None or not item.has_detection:
                continue
            if any(
                abs(event.angle - seen_angle) <= self.consistency_tolerance
                for event in item.events
            ):
                agreeing_readers += 1

        result: List[AngleEvidence] = []
        for item in evidence:
            if not item.has_detection:
                result.append(item)
                continue
            seen_angle = estimate.per_reader_angles.get(item.reader_name)
            if seen_angle is None:
                result.append(item)
                continue
            consistent = [
                event
                for event in item.events
                if abs(event.angle - seen_angle) <= self.consistency_tolerance
            ]
            if not consistent:
                if agreeing_readers >= self.min_readers:
                    # Redundant coverage: this reader's detections are
                    # wrong-angle reflections; discard them outright.
                    result.append(
                        _evidence_from_events(item.reader_name, [], item.drop.angles)
                    )
                    continue
                best = min(item.events, key=lambda e: abs(e.angle - seen_angle))
                consistent = [best]
            result.append(
                _evidence_from_events(
                    item.reader_name, consistent, item.drop.angles
                )
            )
        return result


def _event_count(evidence: Sequence[AngleEvidence]) -> int:
    return sum(len(item.events) for item in evidence)
