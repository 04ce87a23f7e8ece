"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: a traced run wraps the public entry
point of each layer on the fix path and records a span around every
call.  Where a caller imported a function by name, the wrapper goes on
the caller's module attribute (``repro.stream.runner`` holds its own
``batched_pmusic_from_covariances``), because that is the name the call
resolves.  Methods are wrapped on their class.

Spans nest per thread.  A layer's *self time* is its span minus the
spans of the layers it called; summing self time over every span of a
thread gives that thread's *covered* time, which the harness samples
at the two ends of a window's read-to-fix interval to find how much of
it the layers explain.  Spans are aggregated in memory as they close
(one frame per call would be millions of objects for the per-read
``WindowAssembler.push``) and summarised when the run ends.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from bench.stats import percentile
from bench.workloads import window_index

_clock = time.perf_counter


@dataclass
class LayerStats:
    """Aggregate of one timer's spans."""

    calls: int = 0
    self_s: float = 0.0
    #: Work units handled (reads, pairs, evidence items, ...).
    items: float = 0.0
    #: Numerator of the timer's ratio metric (shed batches, ...).
    hits: float = 0.0
    #: Span durations (seconds), kept only where a percentile is reported.
    samples: List[float] = field(default_factory=list)

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.items += other.items
        self.hits += other.hits
        self.samples.extend(other.samples)


@dataclass
class IngressContext:
    """How the batch a serve worker is processing reached it."""

    #: Handler time before the reads entered the ingress queue
    #: (frame parse + routing up to the put).
    pre_put_s: float
    #: Put -> drain wait in the ingress queue.
    wait_s: float
    #: Worker covered time when the drain began.
    cum_at_drain: float


@dataclass
class ClosedWindow:
    """Stamps of one window between its last read and its close."""

    last_push: float
    last_push_cum: float
    context: Optional[IngressContext]
    closed: float
    closed_cum: float


class _ThreadState:
    """Span stack and aggregates of one thread."""

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []
        self.cum = 0.0
        self.stats: Dict[str, LayerStats] = {}
        self.context: Optional[IngressContext] = None
        self.parse_s = 0.0
        #: The window reads are currently pushed into, and the
        #: (time, covered, context) stamp of the latest push.
        self.assembler: Any = None
        self.window = -1
        self.window_start = self.window_end = 0.0
        self.pushed: Optional[Tuple[float, float, Any]] = None
        #: (assembler id, window index) -> stamp of the window's last push.
        self.last_push: Dict[Tuple[int, int], Tuple[float, float, Any]] = {}
        self.closed: Dict[int, ClosedWindow] = {}

    def layer(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats


Before = Callable[["Tracer", _ThreadState, tuple], None]
After = Callable[["Tracer", _ThreadState, float, float, tuple, Any], None]


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``module`` + dotted ``attribute``."""

    timer: str
    module: str
    attribute: str
    before: Optional[Before] = None
    after: Optional[After] = None
    sample: bool = False


class Tracer:
    """Installs layer wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._installed: List[Tuple[Any, str, Any, bool]] = []
        #: Queues seen by a traced call: id -> (queue, drops when first seen).
        self._queues: Dict[int, Tuple[Any, int]] = {}
        #: Ingress queue id -> puts not yet drained: [put start, pre-put s].
        self._pending: Dict[int, Deque[Tuple[float, float]]] = {}
        self.missing: List[str] = []

    # -- installation -------------------------------------------------------

    def install(self, hooks: Sequence[Hook]) -> "Tracer":
        """Wrap every hook target that exists in this build."""
        for hook in hooks:
            owner, name = _resolve(hook.module, hook.attribute)
            if owner is None:
                self.missing.append(f"{hook.module}.{hook.attribute}")
                continue
            original = getattr(owner, name)
            own = name in vars(owner)
            setattr(owner, name, self._wrap(hook, original))
            self._installed.append((owner, name, original, own))
        if self.missing:
            print(
                "bench: not traced (absent in this build): "
                + ", ".join(self.missing),
                file=sys.stderr,
            )
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, name, original, own in reversed(self._installed):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._installed.clear()

    # -- per-thread state ---------------------------------------------------

    def state(self) -> _ThreadState:
        """This thread's span state (created on first use)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def covered(self) -> float:
        """Covered (span) seconds of the calling thread so far."""
        return _covered(self.state(), _clock())

    def take_closed(self, index: int) -> Optional[ClosedWindow]:
        """Stamps of window ``index`` closed on the calling thread."""
        return self.state().closed.pop(index, None)

    def _wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer, local = self, self._local
        timer, before, after, sample = (
            hook.timer,
            hook.before,
            hook.after,
            hook.sample,
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = _clock()
            state = getattr(local, "state", None) or tracer.state()
            if before is not None:
                before(tracer, state, args)
            stack = state.stack
            frame = [entered, 0.0, timer, state.cum]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                own = end - entered - frame[1]
                stats = state.stats.get(timer) or state.layer(timer)
                stats.calls += 1
                stats.self_s += own
                if sample:
                    stats.samples.append(end - entered)
                state.cum += own
            left = end
            if after is not None:
                after(tracer, state, entered, end, args, result)
                left = _clock()
                # The observation is tracing overhead: covered (so it
                # never reads as an unmeasured layer), charged to none.
                state.cum += left - end
            if stack:
                stack[-1][1] += left - entered
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", timer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- summaries ----------------------------------------------------------

    def snapshot(self) -> Dict[str, LayerStats]:
        """Every timer's spans merged across threads."""
        merged: Dict[str, LayerStats] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, stats in list(state.stats.items()):
                merged.setdefault(name, LayerStats()).merge(stats)
        return merged

    def dropped_reads(self) -> int:
        """Reads every traced queue dropped since it was first seen."""
        with self._lock:
            queues = list(self._queues.values())
        return sum(queue.stats.dropped - base for queue, base in queues)

    def _see_queue(self, queue: Any) -> None:
        key = id(queue)
        if key not in self._queues:
            with self._lock:
                self._queues.setdefault(key, (queue, queue.stats.dropped))


def _covered(state: _ThreadState, now: float) -> float:
    """Covered seconds of a thread at ``now``, open spans included.

    Every instant inside the outermost open span is covered (by it or
    by a child), so the total is the covered time when that span
    opened plus the time since.
    """
    if not state.stack:
        return state.cum
    outer = state.stack[0]
    return outer[3] + (now - outer[0])


def _resolve(module: str, attribute: str) -> Tuple[Any, str]:
    """``(owner, name)`` of a dotted attribute, or ``(None, name)``."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None, attribute
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    if not hasattr(owner, name):
        return None, name
    return owner, name


# -- layer-specific observations ---------------------------------------------


def _count_reads_parsed(tracer, state, start, end, args, result) -> None:
    state.layer("serve.protocol").items += len(result[1])
    state.parse_s = end - start


def _count_shed(tracer, state, start, end, args, result) -> None:
    state.layer("serve.supervisor").hits += 1.0 if result.shed else 0.0


def _before_put(tracer, state, args) -> None:
    queue = args[0]
    tracer._see_queue(queue)
    stack = state.stack
    if stack and stack[-1][2] == "serve.supervisor":
        # A put made while routing is a shard's ingress admission: the
        # reads wait there until the shard worker drains them.
        now = _clock()
        pre_put = state.parse_s + (now - stack[-1][0])
        with tracer._lock:
            tracer._pending.setdefault(id(queue), deque()).append((now, pre_put))


def _after_drain(tracer, state, start, end, args, result) -> None:
    queue = args[0]
    tracer._see_queue(queue)
    if not result or id(queue) not in tracer._pending:
        return
    with tracer._lock:
        pending = tracer._pending[id(queue)]
        puts = list(pending)
        pending.clear()
    if not puts:
        return
    waits = state.layer("serve.shard.ingress_wait")
    waits.samples.extend(start - put for put, _ in puts)
    waits.calls += len(puts)
    first_put, pre_put = puts[0]
    state.context = IngressContext(
        pre_put_s=pre_put,
        wait_s=start - first_put,
        cum_at_drain=_covered(state, end) - (end - start),
    )


def _after_push(tracer, state, start, end, args, result) -> None:
    assembler, read = args
    time_s = read.time_s
    if assembler is not state.assembler or not (
        state.window_start <= time_s < state.window_end
    ):
        _enter_window(state, assembler, time_s)
    state.pushed = (end, _covered(state, end), state.context)
    if result:
        _close_windows(state, assembler, result, end)


def _enter_window(state: _ThreadState, assembler: Any, time_s: float) -> None:
    """Reads moved on to another window: the last push of the old one is final."""
    if state.pushed is not None:
        state.last_push[(id(state.assembler), state.window)] = state.pushed
    width = assembler.window_s
    index = window_index(time_s, width)
    state.assembler, state.window, state.pushed = assembler, index, None
    state.window_start, state.window_end = index * width, (index + 1) * width


def _close_windows(
    state: _ThreadState, assembler: Any, windows: Sequence[Any], end: float
) -> None:
    waits = state.layer("stream.window.watermark_wait").samples
    for window in windows:
        last = state.last_push.pop((id(assembler), window.index), None)
        if last is None:
            continue
        pushed, pushed_cum, context = last
        waits.append(end - pushed)
        state.closed[window.index] = ClosedWindow(
            last_push=pushed,
            last_push_cum=pushed_cum,
            context=context,
            closed=end,
            closed_cum=_covered(state, end),
        )


def _count_health_reads(tracer, state, start, end, args, result) -> None:
    state.layer("stream.health").items += len(args[1])


def _count_pairs(tracer, state, start, end, args, result) -> None:
    state.layer("dsp.batch").items += len(args[0])


def _count_detecting(tracer, state, start, end, args, result) -> None:
    stats = state.layer("core.detector")
    stats.items += len(result)
    stats.hits += sum(1 for item in result if item.has_detection)


def _count_predicted(tracer, state, start, end, args, result) -> None:
    state.layer("core.tracker").hits += 1.0 if result.predicted_only else 0.0


#: The layers on the fix path, outermost (network) first.  ``sim`` and
#: ``faults`` only generate inputs and are not timed.
HOST_HOOKS: Tuple[Hook, ...] = (
    Hook("serve.protocol", "repro.serve.protocol", "parse_reads",
         after=_count_reads_parsed),
    Hook("serve.supervisor", "repro.serve.supervisor", "ShardSupervisor.route",
         after=_count_shed, sample=True),
    Hook("stream.provenance", "repro.serve.shard", "fix_record"),
    Hook("stream.provenance", "repro.stream.provenance", "fix_record"),
)

STREAM_HOOKS: Tuple[Hook, ...] = (
    Hook("stream.queue", "repro.stream.queue", "BoundedReadQueue.put_many",
         before=_before_put),
    Hook("stream.queue", "repro.stream.queue", "BoundedReadQueue.drain",
         after=_after_drain),
    Hook("stream.runner", "repro.stream.runner", "StreamRunner.poll"),
    Hook("stream.window", "repro.stream.window", "WindowAssembler.push",
         after=_after_push),
    Hook("stream.health", "repro.stream.health", "HealthTracker.note_reads",
         after=_count_health_reads),
    Hook("stream.covariance", "repro.stream.covariance", "EwCovariance.update_matrix"),
    Hook("dsp.batch", "repro.stream.runner", "batched_pmusic_from_covariances",
         after=_count_pairs),
    Hook("core.tracker", "repro.core.tracker", "KalmanTracker.update",
         after=_count_predicted),
)

CORE_HOOKS: Tuple[Hook, ...] = (
    Hook("core.baseline", "repro.core.pipeline", "compute_spectra"),
    Hook("dsp.batch", "repro.core.baseline", "batched_pmusic_spectra",
         after=_count_pairs),
    Hook("core.detector", "repro.core.detector", "DropDetector.evidence",
         after=_count_detecting),
    Hook("core.likelihood", "repro.core.likelihood", "LikelihoodMap.evaluate"),
    Hook("core.localizer", "repro.core.localizer", "DWatchLocalizer.localize"),
    Hook("core.multitarget", "repro.core.multitarget", "MultiTargetLocalizer.localize"),
)

PUBLISHER_HOOKS: Tuple[Hook, ...] = (
    Hook("serve.publisher", "repro.serve.publisher", "ReadPublisher.publish",
         sample=True),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    layers: Dict[str, LayerStats],
    fixes: int,
    dropped_reads: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from a traced phase's spans.

    ``fixes`` normalises the per-fix costs; ``extra`` carries the
    metrics measured outside the spans (unattributed share, overhead,
    generator lag, frame bytes).  A layer not on the workload's path
    reads 0.
    """
    empty = LayerStats()

    def get(name: str) -> LayerStats:
        return layers.get(name, empty)

    def per_fix(name: str, scale: float) -> float:
        return _ratio(get(name).self_s * scale, fixes)

    def per_item_us(name: str) -> float:
        return _ratio(get(name).self_s * 1e6, get(name).items)

    def pct(name: str, q: float, scale: float) -> float:
        samples = get(name).samples
        return percentile(samples, q) * scale if samples else 0.0

    metrics = {
        "serve.publisher.rtt_ms_p50": pct("serve.publisher", 50, 1e3),
        "serve.publisher.rtt_ms_p95": pct("serve.publisher", 95, 1e3),
        "serve.protocol.parse_us_per_read": per_item_us("serve.protocol"),
        "serve.supervisor.route_us_p50": pct("serve.supervisor", 50, 1e6),
        "serve.supervisor.shed_ratio": _ratio(
            get("serve.supervisor").hits, get("serve.supervisor").calls
        ),
        "serve.shard.ingress_wait_ms_p50": pct("serve.shard.ingress_wait", 50, 1e3),
        "stream.queue.dropped_reads": float(dropped_reads),
        "stream.window.watermark_wait_ms_p50": pct(
            "stream.window.watermark_wait", 50, 1e3
        ),
        "stream.window.push_us_per_read": _ratio(
            get("stream.window").self_s * 1e6, get("stream.window").calls
        ),
        "stream.runner.poll_ms_per_fix": per_fix("stream.runner", 1e3),
        "stream.health.note_reads_us_per_read": per_item_us("stream.health"),
        "stream.covariance.update_ms_per_fix": per_fix("stream.covariance", 1e3),
        "dsp.batch.pmusic_ms_per_fix": per_fix("dsp.batch", 1e3),
        "dsp.batch.pairs_per_call": _ratio(
            get("dsp.batch").items, get("dsp.batch").calls
        ),
        "core.baseline.spectra_ms_per_fix": per_fix("core.baseline", 1e3),
        "core.detector.evidence_ms_per_fix": per_fix("core.detector", 1e3),
        "core.detector.detecting_ratio": _ratio(
            get("core.detector").hits, get("core.detector").items
        ),
        "core.likelihood.evaluate_ms_per_fix": per_fix("core.likelihood", 1e3),
        "core.localizer.solve_ms_per_fix": per_fix("core.localizer", 1e3),
        "core.multitarget.ms_per_fix": per_fix("core.multitarget", 1e3),
        "core.tracker.update_us_per_fix": per_fix("core.tracker", 1e6),
        "core.tracker.predicted_ratio": _ratio(
            get("core.tracker").hits, get("core.tracker").calls
        ),
        "stream.provenance.record_us_per_fix": per_fix("stream.provenance", 1e6),
        "serve.protocol.bytes_per_read": 0.0,
        "core.localizer.error_cm_p50": 0.0,
        "core.localizer.error_cm_p90": 0.0,
        "trace.unattributed_share": 0.0,
        "trace.overhead_pct": 0.0,
        "serve.generator.lag_ms_p95": 0.0,
    }
    metrics.update(extra)
    return {
        name: value if math.isfinite(value) else 0.0
        for name, value in metrics.items()
    }


def stats_to_json(layers: Dict[str, LayerStats]) -> Dict[str, Dict[str, Any]]:
    """Layer aggregates in a JSON-ready form (for the host's report)."""
    return {name: asdict(stats) for name, stats in layers.items()}


def stats_from_json(data: Dict[str, Dict[str, Any]]) -> Dict[str, LayerStats]:
    """Inverse of :func:`stats_to_json`."""
    return {name: LayerStats(**entry) for name, entry in data.items()}
