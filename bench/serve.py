"""The open-loop serve workload: a load generator against a host process.

The benchmark process is the load generator: one connection, sending
one frame per sweep on a fixed schedule.  The frame for sweep ``j`` of
window ``k`` is due at ``t0 + k/rate + (j+1)/(10*rate)``, and its due
time is the due time of every read in it.  The generator never waits
for fixes, only for each frame's ack (the protocol is synchronous per
connection), so it reports how late it ran.

Read-to-fix time runs from the due time of a window's last read to the
host's ``ProvenanceRing.push`` of its fix; both processes read the same
monotonic clock.  One extra trailing window closes the last measured
window by watermark rather than by drain.  Afterwards the same reads
are replayed in-process, one frame at a time, through a fresh
``build_runner(spec)`` runner's ``put_many`` / ``poll`` / ``finish``:
a measured window whose fix is missing, differs from that reference or
came later than 500 ms (wall time) is a miss.

The replay also shows which frame closes each window.  The wait from a
window's last read to that frame's due time is set by the schedule; the
rest, from the closing frame's due time to the emission, is work the
machine's speed sets (transit, parse, routing, hand-offs, compute).
The reported latency keeps the first part and scales the second to
reference seconds with the host's kernel runs after the emissions of
the five windows around it (their median; :mod:`bench.speed`).
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.serve import ReadPublisher, protocol
from repro.serve.shard import build_runner
from repro.stream.events import TagRead

from bench.speed import REFERENCE_S, SAMPLE_EVERY_S, at_reference, time_kernel
from bench.metrics import (
    ROOT,
    Observations,
    classify,
    distance_cm,
    fix_output,
    shares_uncovered,
)
from bench.stats import median, percentile
from bench.tracing import PUBLISHER_HOOKS, Tracer, layer_metrics, stats_from_json
from bench.workloads import (
    HALL_SPEC,
    SWEEPS_PER_WINDOW,
    Workload,
    hall_deployment_scene,
    split_sweeps,
    stream_windows,
)

#: Windows between the untraced and the traced phase, while the host
#: installs its wrappers; they belong to neither phase.
TRACE_GAP_WINDOWS = 3

#: Generator lag above this (p95) makes a run's latencies invalid.
MAX_LAG_MS = 5.0

#: Start of the schedule after the publisher connects.
LEAD_S = 0.25

#: Longest a host may take to answer (set-up, or drain and report).
HOST_TIMEOUT_S = 150.0

#: One frame of the schedule: (due offset from t0, reads, window index).
Frame = Tuple[float, List[TagRead], int]


class HostProcess:
    """A ``python -m bench.host`` child and its line protocol."""

    def __init__(self) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(ROOT), environment.get("PYTHONPATH")])
        )
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.host"],
            cwd=ROOT,
            env=environment,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._buffer = b""

    def read_event(
        self,
        timeout_s: float = HOST_TIMEOUT_S,
        kernels: Optional[List[float]] = None,
    ) -> Dict[str, Any]:
        """The host's next JSON line; raises if it dies or times out.

        With ``kernels``, times a kernel run into it every
        :data:`SAMPLE_EVERY_S` of the wait.
        """
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("serve host did not answer in time")
            if kernels is not None:
                remaining = min(remaining, SAMPLE_EVERY_S)
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                if kernels is not None:
                    kernels.append(time_kernel())
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError(
                    f"serve host exited (code {self.proc.wait()}) without answering"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command.encode("ascii") + b"\n")
        self.proc.stdin.flush()

    def stop(self) -> Dict[str, Any]:
        """Drain the deployment, collect the report, reap the process."""
        self.send("stop")
        report = self.read_event()
        self.proc.wait(timeout=30)
        return report

    def close(self) -> None:
        """Kill the host if it is still running and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for handle in (self.proc.stdin, self.proc.stdout):
            if handle is not None:
                handle.close()


def build_frames(rate_hz: float, windows: Sequence[List[TagRead]]) -> List[Frame]:
    """The schedule: one frame per sweep, with its due offset from ``t0``."""
    return [
        (k / rate_hz + (j + 1) / (SWEEPS_PER_WINDOW * rate_hz), sweep, k)
        for k, reads in enumerate(windows)
        for j, sweep in enumerate(split_sweeps(reads))
    ]


def _generate(
    publisher: ReadPublisher,
    frames: Sequence[Frame],
    t0: float,
    on_window: Callable[[int], None],
) -> Tuple[List[Optional[float]], List[str]]:
    """Send every frame at its due time; returns send times and errors."""
    sent: List[Optional[float]] = [None] * len(frames)
    errors: List[str] = []
    try:
        for i, (due, reads, window) in enumerate(frames):
            on_window(window)
            delay = t0 + due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.monotonic()
            publisher.publish(reads, batch_size=len(reads))
    except (ReproError, OSError) as exc:
        errors.append(f"publisher: {exc}")
    finally:
        publisher.close()
    return sent, errors


def run_serve(
    workload: Workload,
    seed: int,
    phases: Sequence[Tuple[bool, float]],
) -> Dict[str, Any]:
    """One open-loop run: set up the host, offer the load, check the fixes."""
    rate = workload.rate_hz
    counts = [max(1, round(rate * seconds)) for _, seconds in phases]
    starts = [workload.warmup]
    for count in counts[:-1]:
        starts.append(starts[-1] + count + TRACE_GAP_WINDOWS)
    total = starts[-1] + counts[-1] + 1  # + the trailing window
    trace_from = starts[-1] - TRACE_GAP_WINDOWS if len(phases) > 1 else None

    # The walk spans the untraced phase, so its windows are the same
    # whether or not a traced phase follows.
    windows, truth = stream_windows(
        hall_deployment_scene(), total, np.random.default_rng(seed),
        path_windows=starts[0] + counts[0] + 1,
    )
    frames = build_frames(rate, windows)

    hosts: List[HostProcess] = []
    setups: List[float] = []
    parent_tracer: Optional[Tracer] = None

    def start_tracing(window: int) -> None:
        nonlocal parent_tracer
        if window == trace_from and parent_tracer is None:
            hosts[-1].send("trace")
            parent_tracer = Tracer().install(PUBLISHER_HOOKS)

    try:
        for number in range(workload.setups):
            host = HostProcess()
            hosts.append(host)
            kernels: List[float] = []
            live = host.read_event(kernels=kernels)
            elapsed = time.monotonic() - host.spawned
            setups.append(at_reference(elapsed, kernels or [time_kernel()]))
            if number < workload.setups - 1:
                host.stop()
        publisher = ReadPublisher(
            "127.0.0.1", int(live["port"]), HALL_SPEC.deployment_id,
            HALL_SPEC.reader_names,
        ).connect()
        t0 = time.monotonic() + LEAD_S
        sent, errors = _generate(publisher, frames, t0, start_tracing)
        report = hosts[-1].stop()
    finally:
        if parent_tracer is not None:
            parent_tracer.uninstall()
        for host in hosts:
            host.close()

    reference, closed_by = _replay(frames)
    return _evaluate(
        frames, sent, t0, starts, counts, truth, setups, report, reference,
        closed_by, errors, parent_tracer,
    )


def _replay(
    frames: Sequence[Frame],
) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, int]]:
    """The in-process reference: outputs, and the frame closing each window.

    Windows the final ``finish`` closes have no closing frame.
    """
    runner = build_runner(HALL_SPEC)
    outputs: Dict[int, Dict[str, Any]] = {}
    closed_by: Dict[int, int] = {}
    for number, (_, reads, _) in enumerate(frames):
        runner.queue.put_many(reads)
        for fix in runner.poll():
            outputs[fix.index] = fix_output(fix)
            closed_by[fix.index] = number
    for fix in runner.finish():
        outputs[fix.index] = fix_output(fix)
    return outputs, closed_by


def _evaluate(
    frames: Sequence[Frame],
    sent: Sequence[Optional[float]],
    t0: float,
    starts: Sequence[int],
    counts: Sequence[int],
    truth: Sequence[Any],
    setups: List[float],
    report: Dict[str, Any],
    reference: Dict[int, Dict[str, Any]],
    closed_by: Dict[int, int],
    errors: List[str],
    parent_tracer: Optional[Tracer],
) -> Dict[str, Any]:
    # Window index -> (emission time, host-covered seconds, output).
    emitted: Dict[int, Tuple[float, Optional[float], Dict[str, Any]]] = {}
    # Window index -> seconds of the host's kernel runs after its emission.
    kernels: Dict[int, float] = {}
    for index, at, covered, output, kernel_s in report["fixes"]:
        emitted.setdefault(index, (at, covered, output))
        kernels.setdefault(index, kernel_s)

    def reference_ms(k: int, due: float, at: float) -> float:
        """Window ``k``'s read-to-fix time, the machine's share scaled."""
        if k not in closed_by:
            return 1e3 * (at - due)
        closing_due = t0 + frames[closed_by[k]][0]
        around = [kernels[j] for j in range(k - 2, k + 3) if j in kernels]
        scale = REFERENCE_S / median(around)
        return 1e3 * (closing_due - due + (at - closing_due) * scale)
    # Window index -> (due time of its last read, generator lag of that frame).
    last_read: Dict[int, Tuple[float, float]] = {}
    phase_of = {
        k: number
        for number, (start, count) in enumerate(zip(starts, counts))
        for k in range(start, start + count)
    }
    lags_ms: List[List[float]] = [[] for _ in counts]
    for (due, _, window), sent_at in zip(frames, sent):
        lag = 0.0 if sent_at is None else sent_at - (t0 + due)
        last_read[window] = (t0 + due, lag)
        if sent_at is not None and window in phase_of:
            lags_ms[phase_of[window]].append(lag * 1e3)

    observations = Observations(
        setups_s=setups, fixes_per_s=0.0, latencies_ms=[],
        peak_rss_mb=float(report["peak_rss_mb"]),
    )
    phase_latencies: List[List[float]] = []
    traced_r2f: List[float] = []
    traced_covered: List[float] = []
    for number, (start, count) in enumerate(zip(starts, counts)):
        latencies: List[float] = []
        for k in range(start, start + count):
            due, lag = last_read[k]
            at, covered, output = emitted.get(k, (None, None, None))
            latency = None if at is None else at - due
            if latency is not None:
                latencies.append(reference_ms(k, due, at))
                if number > 0 and covered is not None:
                    traced_r2f.append(latency)
                    traced_covered.append(lag + covered)
            if number == 0:
                observations.note(
                    classify(
                        reference.get(k), output,
                        None if latency is None else latency * 1e3,
                    )
                )
                observations.errors_cm.append(
                    distance_cm(None if output is None else output["raw"], truth[k])
                )
        phase_latencies.append(latencies)
    observations.latencies_ms = phase_latencies[0]
    times = [
        emitted[k][0] for k in range(starts[0], starts[0] + counts[0]) if k in emitted
    ]
    if len(times) > 1:
        observations.fixes_per_s = (len(times) - 1) / (max(times) - min(times))

    lag_p95 = percentile(lags_ms[0], 95)
    run: Dict[str, Any] = {
        "correct": not report["leakage"],
        "problems": (errors + report["leakage"])[:10],
        "attempted": observations.attempted,
        "failed": observations.failed,
        "e2e": observations.metrics(),
        "samples": dict(observations.samples(), frames=len(lags_ms[0])),
        "setup_runs_s": setups,
        "kernel_ms_mean": 1e3 * sum(kernels.values()) / max(1, len(kernels)),
        "valid": lag_p95 <= MAX_LAG_MS,
        "generator_lag_ms_p95": lag_p95,
        "ingress": report["ingress"],
    }
    if len(counts) > 1:
        layers = stats_from_json(report["layers"])
        if parent_tracer is not None:
            layers.update(parent_tracer.snapshot())
        trace_on = float(report["trace_on"])
        traced_fixes = sum(1 for at, _, _ in emitted.values() if at >= trace_on)
        sample = [reads for _, reads, window in frames if window >= starts[-1]][:50]
        untraced_p50 = median(phase_latencies[0])
        extra = dict(
            observations.error_metrics(),
            **{
                "trace.unattributed_share": shares_uncovered(
                    traced_r2f, traced_covered
                ),
                "trace.overhead_pct": (
                    100.0 * (median(phase_latencies[-1]) / untraced_p50 - 1.0)
                    if untraced_p50
                    else 0.0
                ),
                "serve.generator.lag_ms_p95": lag_p95,
                "serve.protocol.bytes_per_read": sum(
                    len(protocol.encode_frame(protocol.reads_frame(1, reads)))
                    for reads in sample
                ) / max(1, sum(len(reads) for reads in sample)),
            },
        )
        run["per_layer"] = layer_metrics(
            layers, traced_fixes, int(report["dropped_reads"]), extra
        )
        run["samples"]["traced_fixes"] = traced_fixes
    return run
