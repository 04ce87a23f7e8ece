"""Streaming throughput: sustained fixes/sec over a synthetic walk.

The paper's end-to-end budget is 0.5 s per fix (Section 8); a streaming
engine must additionally keep its *tail* latency inside that budget,
because a continuous tracker that stalls on one window drops the
target.  This runner streams a synthetic walk through the hall scene
and reports sustained fixes/sec plus the p50/p99 of the
``latency.stream.window`` histogram the runner's spans feed.  It is
shared by ``benchmarks/test_stream_throughput.py`` and
``scripts/bench.py`` so the gate and the recorded benchmark measure
the same workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import obs
from repro.core.pipeline import DWatch
from repro.obs.metrics import latency_stage_stats
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.stream import StreamRunner
from repro.stream.events import TagRead
from repro.stream.synthetic import SyntheticStreamConfig, synthetic_reads


@dataclass
class ThroughputResult:
    """One streaming run: fixes produced, wall time, latency tails."""

    fixes: List[object]
    reads: int
    elapsed_s: float
    p50_ms: float
    p99_ms: float
    window_count: int
    stage_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def fixes_per_s(self) -> float:
        """Sustained localization throughput."""
        return len(self.fixes) / self.elapsed_s

    @property
    def reads_per_s(self) -> float:
        """Tag-read ingest rate during the run."""
        return self.reads / self.elapsed_s

    def rows(self) -> List[str]:
        """Summary rows for CLI/benchmark output."""
        return [
            f"fixes {len(self.fixes)}  reads {self.reads}  "
            f"elapsed {self.elapsed_s:.2f}s",
            f"throughput {self.fixes_per_s:.1f} fixes/s  "
            f"({self.reads_per_s:.0f} reads/s)",
            f"window latency p50 {self.p50_ms:.1f} ms  "
            f"p99 {self.p99_ms:.1f} ms",
        ]


def build_stream_scenario(
    fixes: int = 6,
    num_tags: int = 10,
    num_antennas: int = 6,
) -> Tuple[DWatch, List[TagRead]]:
    """Calibrated runner + synthetic reads for the hall walk.

    Split out from :func:`run_stream_throughput` so callers that want
    warmup/repeat timing (``scripts/bench.py``) can pay the scene and
    calibration setup once and re-stream fresh runners over the same
    reads.
    """
    scene = hall_scene(rng=71, num_tags=num_tags, num_antennas=num_antennas)
    dwatch = DWatch(scene, cell_size=0.1)
    dwatch.calibrate(rng=72)
    session = MeasurementSession(scene, rng=73)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    reads = list(
        synthetic_reads(scene, SyntheticStreamConfig(fixes=fixes), rng=74)
    )
    return dwatch, reads


def stream_once(dwatch: DWatch, reads: List[TagRead]) -> ThroughputResult:
    """Stream one fresh runner over prepared reads and time it."""
    runner = StreamRunner(dwatch)
    with obs.observed() as state:
        started = time.perf_counter()
        fixes = list(runner.run(iter(reads)))
        elapsed = time.perf_counter() - started
        histogram = state.registry.histogram("latency.stream.window")
        result = ThroughputResult(
            fixes=fixes,
            reads=len(reads),
            elapsed_s=elapsed,
            p50_ms=histogram.percentile(50.0),
            p99_ms=histogram.percentile(99.0),
            window_count=histogram.count,
            stage_ms=latency_stage_stats(state.registry.snapshot()),
        )
    return result


def run_stream_throughput(
    fixes: int = 6,
    num_tags: int = 10,
    num_antennas: int = 6,
) -> ThroughputResult:
    """End-to-end streaming run on the hall scene (setup + stream)."""
    dwatch, reads = build_stream_scenario(
        fixes=fixes, num_tags=num_tags, num_antennas=num_antennas
    )
    return stream_once(dwatch, reads)
