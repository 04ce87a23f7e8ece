"""Multi-target localization (Section 6.7).

Sparsely placed targets block *disjoint* subsets of paths, so each
target owns a cluster of blocking events no other target explains.
With only two readers, per-target consensus alone is not enough: two
true targets at (a, b) and (c, d) also produce phantom intersections at
(a, d) and (c, b) — the classic two-sensor ghost problem — and a ghost
can hoard both targets' event clusters.  What kills ghosts is *joint*
explanation: the target set that explains the largest total event
weight, counting every event once, is the real one, because a ghost
consumes two targets' clusters while leaving their remaining events
orphaned.

The solver therefore builds one candidate pool (likelihood modes plus
cross-reader ray intersections), then searches small candidate subsets
for the maximum-coverage assignment under a per-target parsimony
penalty and a pairwise separation constraint.  Targets closer than the
separation limit share their clusters and merge — the paper's 20 cm
failure mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro import obs
from repro.core.detector import AngleEvidence
from repro.core.likelihood import LocationEstimate, Surface
from repro.core.localizer import DWatchLocalizer
from repro.utils.angles import deg2rad

#: Reported targets must be at least this far apart (metres); the merge
#: distance for close targets.
MIN_SEPARATION = 0.2
#: Parsimony penalty: a target enters the solution only if it adds at
#: least this much uniquely explained event weight.
MIN_MARGINAL_WEIGHT = 0.8
#: Number of strongest candidates entering the subset search.
POOL_SIZE = 14


@dataclass
class MultiTargetLocalizer:
    """Joint maximum-coverage multi-target localizer.

    Parameters
    ----------
    localizer:
        Supplies the likelihood map, consistency tolerance and
        minimum-reader rule (shared with single-target operation).
    explain_tolerance:
        Events within this angle (radians) of a target's per-reader
        angle count as explained by it.
    """

    localizer: DWatchLocalizer
    explain_tolerance: float = deg2rad(8.0)

    def localize(
        self, evidence: Sequence[AngleEvidence], max_targets: int = 3
    ) -> List[LocationEstimate]:
        """Locate up to ``max_targets`` targets, strongest first."""
        active = [item for item in evidence if item.has_detection]
        if not active:
            return []
        lmap = self.localizer.likelihood_map
        with obs.span("multitarget.solve", max_targets=max_targets) as sp:
            surface = lmap.evaluate(evidence)
            candidates = self._candidate_pool(surface, evidence, max_targets)
            sp.set(candidates=len(candidates))
            obs.gauge("multitarget.pool_size", len(candidates))
            if not candidates:
                return []
            chosen = self._assign(evidence, candidates, max_targets)
            results = lmap.refine(surface, evidence, [c.position for c in chosen])
            results.sort(key=lambda estimate: estimate.likelihood, reverse=True)
            sp.set(targets=len(results))
            obs.count("multitarget.targets_found", len(results))
            return results

    def _assign(
        self,
        evidence: Sequence[AngleEvidence],
        candidates: List[LocationEstimate],
        max_targets: int,
    ) -> List[LocationEstimate]:
        """The maximum-coverage subset search over the candidate pool."""
        explains = [
            self._explained_events(candidate, evidence) for candidate in candidates
        ]
        event_weights = self._event_weights(evidence)

        order = sorted(
            range(len(candidates)),
            key=lambda i: sum(event_weights[e] for e in explains[i]),
            reverse=True,
        )[:POOL_SIZE]

        best_subset: Tuple[int, ...] = ()
        best_score = 0.0
        for size in range(1, max_targets + 1):
            for subset in itertools.combinations(order, size):
                if not self._well_separated(subset, candidates):
                    continue
                union: set = set()
                feasible = True
                score = 0.0
                for index in subset:
                    marginal = sum(
                        event_weights[e]
                        for e in explains[index]
                        if e not in union
                    )
                    if marginal < MIN_MARGINAL_WEIGHT:
                        feasible = False
                        break
                    union |= explains[index]
                    # As in single-target consensus, the kernel
                    # likelihood separates exact intersections from
                    # ghosts that merely collect heavy events.
                    score += marginal * (0.05 + candidates[index].likelihood)
                if not feasible:
                    continue
                score -= MIN_MARGINAL_WEIGHT * 0.05 * size
                if score > best_score:
                    best_subset, best_score = subset, score

        return [candidates[index] for index in best_subset]

    def _candidate_pool(
        self,
        surface: Surface,
        evidence: Sequence[AngleEvidence],
        max_targets: int,
    ) -> List[LocationEstimate]:
        """Likelihood modes plus every cross-reader ray intersection,
        screened by the single-target consensus rule."""
        lmap = self.localizer.likelihood_map
        pool = lmap.peel_modes(
            surface, evidence, max_modes=4 * max_targets, min_separation=0.25
        )
        pool += lmap.crossing_candidates(evidence, pool, 0.1)
        screened = []
        for candidate in pool:
            readers, _ = self.localizer._support(candidate, evidence)
            if readers >= self.localizer.min_readers:
                screened.append(candidate)
        return screened

    def _event_weights(
        self, evidence: Sequence[AngleEvidence]
    ) -> Dict[Tuple[str, int], float]:
        """Weight of every event, keyed by (reader, event index)."""
        return {
            (item.reader_name, index): event.weight
            for item in evidence
            for index, event in enumerate(item.events)
        }

    def _explained_events(
        self,
        candidate: LocationEstimate,
        evidence: Sequence[AngleEvidence],
    ) -> FrozenSet[Tuple[str, int]]:
        """Event ids within the explain tolerance of the candidate."""
        explained = set()
        for item in evidence:
            angle = candidate.per_reader_angles.get(item.reader_name)
            if angle is None:
                continue
            for index, event in enumerate(item.events):
                if abs(event.angle - angle) <= self.explain_tolerance:
                    explained.add((item.reader_name, index))
        return frozenset(explained)

    def _well_separated(
        self,
        subset: Sequence[int],
        candidates: List[LocationEstimate],
    ) -> bool:
        for i, a in enumerate(subset):
            for b in subset[i + 1 :]:
                distance = candidates[a].position.distance_to(
                    candidates[b].position
                )
                if distance < MIN_SEPARATION:
                    return False
        return True
