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
from typing import List, Sequence

import numpy as np

from repro import obs
from repro.core.detector import AngleEvidence
from repro.core.likelihood import (
    Candidates,
    Events,
    LocationEstimate,
    Surface,
    ordered_sum,
)
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
        if not any(item.has_detection for item in evidence):
            return []
        lmap = self.localizer.likelihood_map
        with obs.span("multitarget.solve", max_targets=max_targets) as sp:
            surface = lmap.evaluate(evidence)
            events = Events.of(evidence)
            candidates = self._candidate_pool(surface, evidence, events, max_targets)
            sp.set(candidates=len(candidates))
            obs.gauge("multitarget.pool_size", len(candidates))
            if not len(candidates):
                return []
            chosen = self._assign(events, candidates, max_targets)
            results = lmap.refine(
                surface, evidence, candidates.positions[chosen]
            ).estimates()
            results.sort(key=lambda estimate: estimate.likelihood, reverse=True)
            sp.set(targets=len(results))
            obs.count("multitarget.targets_found", len(results))
            return results

    def _assign(
        self, events: Events, candidates: Candidates, max_targets: int
    ) -> np.ndarray:
        """The maximum-coverage subset search over the candidate pool.

        Returns the chosen candidates' indices.  Subsets are scored in
        ``itertools.combinations`` order, smallest first, and the first
        strictly best one wins.  Each size is one batch: row ``i`` of
        ``union`` holds the events subset ``i`` has explained so far,
        and each slot adds the weight its candidate explains beyond it.
        """
        explains = events.within(candidates.angles, self.explain_tolerance)
        totals = ordered_sum(np.where(explains, events.weight, 0.0))
        order = np.argsort(-totals, kind="stable")[:POOL_SIZE]
        explains = explains[order]
        likelihood = candidates.likelihood[order]
        x, y = candidates.positions[order].T
        separated = np.hypot(x[:, None] - x, y[:, None] - y) >= MIN_SEPARATION

        best_subset = np.zeros(0, dtype=int)
        best_score = 0.0
        for size in range(1, max_targets + 1):
            subsets = np.array(
                list(itertools.combinations(range(order.size), size)), dtype=int
            ).reshape(-1, size)
            if not len(subsets):
                break
            feasible = np.ones(len(subsets), dtype=bool)
            for a, b in itertools.combinations(range(size), 2):
                feasible &= separated[subsets[:, a], subsets[:, b]]
            union = np.zeros((len(subsets), events.angle.size), dtype=bool)
            score = np.zeros(len(subsets))
            for slot in subsets.T:
                marginal = ordered_sum(
                    np.where(explains[slot] & ~union, events.weight, 0.0)
                )
                feasible &= marginal >= MIN_MARGINAL_WEIGHT
                union |= explains[slot]
                # As in single-target consensus, the kernel likelihood
                # separates exact intersections from ghosts that merely
                # collect heavy events.
                score += marginal * (0.05 + likelihood[slot])
            score -= MIN_MARGINAL_WEIGHT * 0.05 * size
            score[~feasible] = -np.inf
            first_best = int(np.argmax(score))
            if score[first_best] > best_score:
                best_subset, best_score = subsets[first_best], score[first_best]
        return order[best_subset]

    def _candidate_pool(
        self,
        surface: Surface,
        evidence: Sequence[AngleEvidence],
        events: Events,
        max_targets: int,
    ) -> Candidates:
        """Likelihood modes plus every cross-reader ray intersection,
        screened by the single-target consensus rule."""
        lmap = self.localizer.likelihood_map
        pool = lmap.peel_modes(
            surface, evidence, max_modes=4 * max_targets, min_separation=0.25
        )
        pool += lmap.crossing_candidates(evidence, pool, 0.1)
        readers, _ = self.localizer._support(pool, events)
        return pool[readers >= self.localizer.min_readers]
