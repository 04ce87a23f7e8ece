"""The benchmark workloads: parameters and seeded input generation.

A workload is a deployment plus an input stream.  The deployment is
fixed (its scene, calibration and baseline seeds never change, so every
set-up does the same work) and the run's ``--seed`` draws the
measurement noise of every capture.  Target paths are fixed too, so two
seeds differ only the way two repeats of one experiment would.

The benchmark process and the serve host both import this module: the
host serves :data:`HALL_SPEC`, the benchmark generates the reads it
publishes with :func:`stream_windows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.serve import DeploymentSpec
from repro.sim.environments import hall_scene
from repro.sim.measurement import Measurement, MeasurementConfig, MeasurementSession
from repro.sim.scene import Scene
from repro.sim.target import bottle_target, human_target
from repro.stream.events import TagRead
from repro.stream.synthetic import (
    SyntheticStreamConfig,
    measurement_reads,
    target_positions,
)

#: Sweeps per fix window (the paper's 10 packets per fix).
SWEEPS_PER_WINDOW = 10

#: The hall deployment of ``replay-hall`` and ``serve-hall-10hz``:
#: 4 readers x 6 antennas, 10 tags, 0.1 m grid, and the seeds of
#: ``repro.experiments.throughput.build_stream_scenario``.
HALL_SPEC = DeploymentSpec(
    deployment_id="hall-0",
    environment="hall",
    seed=71,
    num_tags=10,
    num_antennas=6,
    num_readers=4,
    cell_size=0.1,
    description="benchmark hall deployment",
)

#: ``table-3t``: scene seed (calibration and baseline use the next two),
#: grid cell, and three bottles in Fig. 19's L, 50 cm apart, translated
#: 30 cm along x over the captures.
TABLE_SEED = 19
TABLE_CELL_M = 0.02
TABLE_TARGETS = 3
TABLE_SEPARATION_M = 0.5
TABLE_PATH_M = 0.3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects how it runs: ``stream`` (closed-loop
    ``StreamRunner`` replay), ``table`` (closed-loop ``DWatch.localize``
    of multi-target captures) or ``serve`` (open-loop TCP load against a
    host process).
    """

    name: str
    kind: str
    #: Windows (or captures) excluded from every statistic at the start.
    warmup: int = 20
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Distinct windows (``stream``) or captures (``table``) per pass;
    #: small enough that a run makes several passes.
    inputs: int = 0
    #: ``serve``: offered windows per second.
    rate_hz: float = 10.0

    def params(self) -> Dict[str, Any]:
        """The parameters a record carries (and ``compare`` matches on)."""
        params: Dict[str, Any] = {
            "kind": self.kind,
            "warmup": self.warmup,
            "setups": self.setups,
        }
        if self.kind == "table":
            params.update(
                captures=self.inputs,
                scene_seed=TABLE_SEED,
                cell_size=TABLE_CELL_M,
                targets=TABLE_TARGETS,
                separation_m=TABLE_SEPARATION_M,
                path_m=TABLE_PATH_M,
            )
        else:
            params["spec"] = HALL_SPEC.to_dict()
            if self.kind == "stream":
                params["windows"] = self.inputs
            else:
                params["rate_hz"] = self.rate_hz
        return params


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(name="replay-hall", kind="stream", inputs=150),
        Workload(name="table-3t", kind="table", inputs=200),
        Workload(name="serve-hall-10hz", kind="serve", rate_hz=10.0),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload shrunk for a quick end-to-end check."""
    return replace(workload, warmup=5, setups=1, inputs=min(workload.inputs, 30))


def hall_deployment_scene() -> Scene:
    """The scene ``build_runner(HALL_SPEC)`` builds."""
    return hall_scene(
        rng=HALL_SPEC.seed,
        num_tags=HALL_SPEC.num_tags,
        num_antennas=HALL_SPEC.num_antennas,
        num_readers=HALL_SPEC.num_readers,
    )


def stream_windows(
    scene: Scene, windows: int, rng: np.random.Generator, path_windows: int = 0
) -> Tuple[List[List[TagRead]], List[Point]]:
    """``windows`` fix windows of a person walking the default path.

    The walk covers the path in ``path_windows`` windows (default: all
    of them) and then walks it back and forth, so a longer run repeats
    the positions of a shorter one instead of spreading them out.  The
    construction of :func:`repro.stream.synthetic.synthetic_reads`, kept
    per window so callers can frame and time each one.  Returns the
    time-ordered reads of every window and the true position in each.
    """
    span = path_windows or windows
    path = target_positions(
        scene, SyntheticStreamConfig(fixes=span, sweeps_per_fix=SWEEPS_PER_WINDOW)
    )
    lap = max(1, 2 * span - 2)
    positions = [path[min(k % lap, lap - k % lap)] for k in range(windows)]
    session = MeasurementSession(
        scene, MeasurementConfig(num_snapshots=SWEEPS_PER_WINDOW), rng=rng
    )
    window_s = SWEEPS_PER_WINDOW * max(
        reader.snapshot_sweep_duration() for reader in scene.readers
    )
    reads = [
        list(
            measurement_reads(
                session.capture([human_target(position)]), scene, k * window_s
            )
        )
        for k, position in enumerate(positions)
    ]
    return reads, positions


def split_sweeps(reads: Sequence[TagRead]) -> List[List[TagRead]]:
    """One window's reads as its :data:`SWEEPS_PER_WINDOW` sweeps."""
    size, rest = divmod(len(reads), SWEEPS_PER_WINDOW)
    if rest or not size:
        raise ValueError(
            f"a window of {len(reads)} reads does not split into "
            f"{SWEEPS_PER_WINDOW} equal sweeps"
        )
    return [list(reads[i : i + size]) for i in range(0, len(reads), size)]


def bottle_positions(center: Point) -> List[Point]:
    """The three bottles of Fig. 19's L around ``center``."""
    step = TABLE_SEPARATION_M
    base = Point(center.x - step / 2.0, center.y - step / 2.0)
    return [base, Point(base.x, base.y + step), Point(base.x + step, base.y + step)]


def table_captures(
    scene: Scene, count: int, rng: np.random.Generator
) -> Tuple[List[Measurement], List[List[Point]]]:
    """``count`` captures of the bottles, and their true positions."""
    session = MeasurementSession(scene, rng=rng)
    center = scene.room.center
    captures: List[Measurement] = []
    truths: List[List[Point]] = []
    for i in range(count):
        shift = TABLE_PATH_M * (i / max(1, count - 1) - 0.5)
        positions = bottle_positions(Point(center.x + shift, center.y))
        captures.append(session.capture([bottle_target(p) for p in positions]))
        truths.append(positions)
    return captures, truths


def match_errors(
    estimates: Sequence[Point], truths: Sequence[Point]
) -> List[float]:
    """Greedy nearest matching of estimates to true positions (metres)."""
    remaining = list(estimates)
    errors: List[float] = []
    for truth in truths:
        if not remaining:
            break
        best = min(remaining, key=truth.distance_to)
        remaining.remove(best)
        errors.append(truth.distance_to(best))
    return errors


def window_index(time_s: float, window_s: float) -> int:
    """The window an event time falls in (the assembler's binning)."""
    return int(math.floor(time_s / window_s + 1e-9))
