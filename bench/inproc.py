"""Closed-loop, in-process workloads: ``replay-hall`` and ``table-3t``.

Both drive the system through its public API from one thread:
``StreamRunner`` fed one sweep at a time with a ``poll()`` after each,
or ``DWatch.localize`` on pre-generated captures.  The inputs are
replayed in passes until the phase's time is up; every pass, traced or
not, must give the outputs the first one gave.  Every input runs right
after one run of the reference kernel, and its timings are reported
at that kernel's speed (:mod:`bench.speed`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import DWatch
from repro.geometry.point import Point
from repro.serve.shard import build_runner
from repro.sim.environments import table_scene
from repro.sim.measurement import MeasurementSession
from repro.stream.runner import StreamRunner

from bench.speed import REFERENCE_S, time_kernel, timed_set_up
from bench.metrics import (
    Observations,
    classify,
    distance_cm,
    fix_output,
    peak_rss_mb,
    shares_uncovered,
)
from bench.tracing import CORE_HOOKS, STREAM_HOOKS, Tracer, layer_metrics
from bench.workloads import (
    HALL_SPEC,
    TABLE_CELL_M,
    TABLE_SEED,
    TABLE_TARGETS,
    Workload,
    hall_deployment_scene,
    match_errors,
    split_sweeps,
    stream_windows,
    table_captures,
)

_clock = time.perf_counter

#: One measured output: (input key, output, read-to-fix s, covered s,
#: seconds of the reference-kernel run right before the input).
Sample = Tuple[int, Any, float, float, float]


def _per_input_ms(pairs: Dict[int, List[float]]) -> Dict[int, float]:
    """Input -> summed time over summed kernel time, as reference ms."""
    return {
        key: 1e3 * REFERENCE_S * seconds / kernel
        for key, (seconds, kernel) in pairs.items()
    }


@dataclass
class Phase:
    """One timed phase's raw observations.

    Every input is replayed several times per phase, each time right
    after one reference-kernel run.  An input's time is its summed
    time over its repeats divided by the summed time of those kernel
    runs: on a shared machine another tenant's load slows a core by up
    to ~1.9x, for seconds or for the whole phase, and slows the kernel
    next to it by about as much.
    """

    samples: List[Sample] = field(default_factory=list)
    #: Every fix computed, warm-up windows of a pass included.
    fixes: int = 0
    #: Input -> [summed service s, summed kernel s]: the window's sweeps
    #: ingested and polled, or the capture localized.
    service_s: Dict[int, List[float]] = field(default_factory=dict)
    #: Seconds spent in the kernel so far (kept out of latencies).
    kernel_s: float = 0.0
    #: Kernel runs so far (their mean time goes into the record).
    kernel_runs: int = 0

    def run_kernel(self) -> float:
        """Run the kernel once; returns its time."""
        seconds = time_kernel()
        self.kernel_s += seconds
        self.kernel_runs += 1
        return seconds

    def serve(self, key: int, seconds: float, kernel_s: float) -> None:
        entry = self.service_s.setdefault(key, [0.0, 0.0])
        entry[0] += seconds
        entry[1] += kernel_s

    @property
    def seconds_per_fix(self) -> float:
        """Mean of the inputs' service times, reference s."""
        times = _per_input_ms(self.service_s).values()
        return 1e-3 * sum(times) / len(times) if times else 0.0

    def latencies_ms(self) -> List[float]:
        """Each input's read-to-fix time in the phase, reference ms."""
        pairs: Dict[int, List[float]] = {}
        for key, _, latency, _, kernel_s in self.samples:
            entry = pairs.setdefault(key, [0.0, 0.0])
            entry[0] += latency
            entry[1] += kernel_s
        return list(_per_input_ms(pairs).values())


def _set_up(workload: Workload, build: Callable[[], Any]) -> Tuple[List[float], Any]:
    """Build the system ``workload.setups`` times; keep the last one.

    Returns each set-up's time in reference seconds.
    """
    times: List[float] = []
    built = None
    for _ in range(workload.setups):
        seconds, built = timed_set_up(build)
        times.append(seconds)
    return times, built


class _StreamReplay:
    """Replays pre-generated hall windows through fresh runners."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.setups, runner = _set_up(workload, lambda: build_runner(HALL_SPEC))
        self.dwatch, self.config = runner.dwatch, runner.config
        windows, self.truth = stream_windows(
            hall_deployment_scene(), workload.inputs, np.random.default_rng(seed)
        )
        self.sweeps = [split_sweeps(window) for window in windows]

    def run_pass(
        self,
        phase: Phase,
        deadline: Optional[float],
        covered: Callable[[], float],
        limit: Optional[int] = None,
    ) -> None:
        """One fresh runner over the windows, or until ``deadline``.

        Reads go in one sweep at a time with a ``poll()`` after each.  A
        window's fix comes back two sweeps into the next window, once
        the watermark passes its end; the last window of a pass is
        never closed and gives no fix.  The kernel run before the next
        window falls inside this one's read-to-fix time and is taken
        out of it.
        """
        runner = StreamRunner(self.dwatch, self.config)
        #: Window -> (last read handed at, covered s then, kernel s
        #: spent then, its own kernel run's s).
        handed: Dict[int, Tuple[float, float, float, float]] = {}
        for index, sweeps in enumerate(self.sweeps[:limit]):
            if deadline is not None and _clock() >= deadline:
                return
            kernel_s = phase.run_kernel()
            began = _clock()
            for sweep in sweeps:
                handed_at, handed_cum = _clock(), covered()
                runner.queue.put_many(sweep)
                fixes = runner.poll()
                returned = _clock()
                phase.fixes += len(fixes)
                for fix in fixes:
                    at, cum, spent, kernel = handed.pop(fix.index)
                    if fix.index >= self.workload.warmup:
                        latency = returned - at - (phase.kernel_s - spent)
                        phase.samples.append(
                            (fix.index, fix, latency, covered() - cum, kernel)
                        )
            # The window's last read went in with its last sweep.
            handed[index] = (handed_at, handed_cum, phase.kernel_s, kernel_s)
            phase.serve(index, _clock() - began, kernel_s)

    def output(self, fix: Any) -> Dict[str, Any]:
        return fix_output(fix)

    def score(self, index: int, output: Dict[str, Any]) -> List[Optional[float]]:
        return [distance_cm(output["raw"], self.truth[index])]


class _TableReplay:
    """Localizes pre-generated three-bottle captures with ``DWatch``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.setups, self.dwatch = _set_up(workload, self._build)
        self.captures, self.truth = table_captures(
            self.dwatch.scene, workload.inputs, np.random.default_rng(seed)
        )

    @staticmethod
    def _build() -> DWatch:
        scene = table_scene(rng=TABLE_SEED)
        dwatch = DWatch(scene, cell_size=TABLE_CELL_M)
        dwatch.calibrate(rng=TABLE_SEED + 1)
        session = MeasurementSession(scene, rng=TABLE_SEED + 2)
        dwatch.collect_baseline([session.capture() for _ in range(3)])
        return dwatch

    def run_pass(
        self,
        phase: Phase,
        deadline: Optional[float],
        covered: Callable[[], float],
        limit: Optional[int] = None,
    ) -> None:
        """Localize every capture once, or until ``deadline``."""
        for index, capture in enumerate(self.captures[:limit]):
            if deadline is not None and _clock() >= deadline:
                return
            kernel_s = phase.run_kernel()
            at, cum = _clock(), covered()
            estimates = self.dwatch.localize(capture, TABLE_TARGETS)
            latency = _clock() - at
            phase.samples.append(
                (index, estimates, latency, covered() - cum, kernel_s)
            )
            phase.serve(index, latency, kernel_s)
            phase.fixes += 1

    def output(self, estimates: Any) -> Dict[str, Any]:
        return {
            "estimates": [[e.position.x, e.position.y] for e in estimates]
        }

    def score(self, index: int, output: Dict[str, Any]) -> List[Optional[float]]:
        truths = self.truth[index]
        found = [
            100.0 * error
            for error in match_errors(
                [Point(x, y) for x, y in output["estimates"]], truths
            )
        ]
        return found + [None] * (len(truths) - len(found))


def _timed_phase(replay: Any, seconds: float, tracer: Optional[Tracer]) -> Phase:
    """Replay passes over the inputs until ``seconds`` have passed."""
    phase = Phase()
    covered = tracer.covered if tracer is not None else (lambda: 0.0)
    deadline = _clock() + seconds
    while _clock() < deadline:
        replay.run_pass(phase, deadline, covered)
    return phase


def run_inproc(
    workload: Workload, seed: int, phases: Sequence[Tuple[bool, float]]
) -> Dict[str, Any]:
    """One closed-loop run: set up, warm up, then each ``(traced, s)`` phase."""
    replay: Any = (
        _StreamReplay(workload, seed)
        if workload.kind == "stream"
        else _TableReplay(workload, seed)
    )
    replay.run_pass(Phase(), None, lambda: 0.0, limit=workload.warmup)
    observed: List[Tuple[Phase, Optional[Tracer]]] = []
    for traced, seconds in phases:
        tracer = Tracer().install(STREAM_HOOKS + CORE_HOOKS) if traced else None
        try:
            observed.append((_timed_phase(replay, seconds, tracer), tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()

    first = observed[0][0]
    observations = Observations(
        setups_s=replay.setups,
        fixes_per_s=1.0 / first.seconds_per_fix if first.seconds_per_fix else 0.0,
        latencies_ms=first.latencies_ms(),
    )
    reference: Dict[int, Dict[str, Any]] = {}
    problems: List[str] = []
    for number, (phase, _) in enumerate(observed):
        for key, result, latency_s, _, _ in phase.samples:
            output = replay.output(result)
            expected = reference.setdefault(key, output)
            outcome = classify(expected, output, latency_s * 1e3)
            if outcome == "different":
                problems.append(
                    f"phase {number}: output for input {key} differs from "
                    "its first computation"
                )
            if number == 0:
                observations.note(outcome)
    for key, output in sorted(reference.items()):
        observations.errors_cm.extend(replay.score(key, output))
    observations.peak_rss_mb = peak_rss_mb()

    run: Dict[str, Any] = {
        "correct": not problems,
        "problems": problems[:10],
        "attempted": observations.attempted,
        "failed": observations.failed,
        "e2e": observations.metrics(),
        "samples": observations.samples(),
        "setup_runs_s": replay.setups,
        "kernel_ms_mean": 1e3 * first.kernel_s / max(1, first.kernel_runs),
        "valid": True,
    }
    if len(observed) > 1:
        traced_phase, tracer = observed[-1]
        assert tracer is not None
        extra = dict(
            observations.error_metrics(),
            **{
                "trace.unattributed_share": shares_uncovered(
                    [sample[2] for sample in traced_phase.samples],
                    [sample[3] for sample in traced_phase.samples],
                ),
                "trace.overhead_pct": (
                    100.0 * (traced_phase.seconds_per_fix / first.seconds_per_fix - 1.0)
                    if first.seconds_per_fix
                    else 0.0
                ),
            },
        )
        run["per_layer"] = layer_metrics(
            tracer.snapshot(), traced_phase.fixes, tracer.dropped_reads(), extra
        )
        run["samples"]["traced_fixes"] = traced_phase.fixes
    return run
