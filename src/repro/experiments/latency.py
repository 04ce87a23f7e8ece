"""Section 8 — processing latency of one localization fix.

The paper measures 57 ms average processing time per fix on an i7-4790
and a sub-0.5 s end-to-end latency including the 0.1 s transmission
interval.  The runner times the server-side pipeline (spectra +
detection + likelihood search) over repeated fixes, and additionally
breaks the total down per pipeline stage using the observability
layer's spans: the fix loop runs inside :func:`repro.obs.observed`, so
every instrumented stage (``pipeline.evidence``, ``grid.search``,
``batch.eigendecomposition``, ...) reports its own latency histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import obs
from repro.experiments.harness import DeploymentHarness
from repro.geometry.point import Point
from repro.sim.environments import hall_scene
from repro.sim.target import human_target
from repro.obs.metrics import latency_stage_stats
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class LatencyResult:
    """Per-fix processing times plus a per-stage breakdown.

    ``stage_ms`` maps span names (``pipeline.localize``,
    ``grid.search``, ...) to their latency statistics over the run:
    ``{"count": ..., "mean": ..., "p90": ..., "max": ...}`` in
    milliseconds.
    """

    times_s: List[float]
    stage_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def mean_ms(self) -> float:
        """Mean processing time in milliseconds."""
        return float(np.mean(self.times_s) * 1e3)

    def rows(self) -> List[str]:
        """Summary rows: the headline figures, then the stage table."""
        rows = [
            "metric            value",
            f"mean_fix_ms       {self.mean_ms:8.1f}",
            f"p95_fix_ms        {float(np.percentile(self.times_s, 95)) * 1e3:8.1f}",
        ]
        if self.stage_ms:
            width = max(len(name) for name in self.stage_ms)
            rows.append("")
            rows.append(
                f"{'stage':<{width}}  {'count':>6} {'mean_ms':>9} "
                f"{'p90_ms':>9} {'max_ms':>9}"
            )
            for name in sorted(self.stage_ms):
                stats = self.stage_ms[name]
                rows.append(
                    f"{name:<{width}}  "
                    f"{int(stats['count']):>6} "
                    f"{stats['mean']:>9.2f} "
                    f"{stats['p90']:>9.2f} "
                    f"{stats['max']:>9.2f}"
                )
        return rows


def run_latency(
    fixes: int = 10,
    rng: RngLike = None,
) -> LatencyResult:
    """Time the localization pipeline over repeated fixes.

    Only the online fix loop runs under observability, so the stage
    breakdown reflects steady-state serving cost, not the one-off
    calibration and baseline setup.  (While the loop runs, metrics
    flow into the run's private registry; a globally configured
    ``--metrics`` registry resumes afterwards.)
    """
    generator = ensure_rng(rng)
    scene = hall_scene(rng=generator)
    harness = DeploymentHarness(scene, rng=generator)
    target = human_target(Point(scene.room.center.x, scene.room.center.y))
    times: List[float] = []
    with obs.observed() as state:
        for _ in range(fixes):
            capture = harness.session.capture([target])
            start = time.perf_counter()
            harness.dwatch.localize(capture)
            times.append(time.perf_counter() - start)
        stage_ms = latency_stage_stats(state.registry.snapshot())
    return LatencyResult(times_s=times, stage_ms=stage_ms)
