"""The system under test of ``serve-hall-10hz``, in its own process.

Run as ``python -m bench.host`` (the benchmark spawns it with ``src`` on
``PYTHONPATH``).  The host builds a ``ShardSupervisor`` and an
``IngestServer`` for the hall ``DeploymentSpec`` and stamps the emission
time of every fix by wrapping ``ProvenanceRing.push``.  After each
stamp the wrapper times two runs of the reference kernel
(:mod:`bench.speed`) on the worker thread, outside every window's
read-to-fix interval, and keeps the faster: a run that overlaps the
ingest handler's turn with the GIL reads several times too slow.  It talks to the
benchmark over its standard streams, one line at a time:

* host -> benchmark: ``{"event": "live", "port": P}`` once the shard is
  live and the ingest server listens;
* benchmark -> host: ``trace`` installs the layer wrappers, ``stop``
  drains the deployment;
* host -> benchmark: ``{"event": "report", ...}`` with every fix, its
  emission stamp and (when traced) the layer spans; then the host exits.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.faults.drill import check_leakage
from repro.serve import DeploymentRegistry, IngestServer, ShardSupervisor
from repro.stream.provenance import ProvenanceRing

from bench.speed import time_kernel
from bench.metrics import fix_output, peak_rss_mb
from bench.tracing import (
    CORE_HOOKS,
    HOST_HOOKS,
    STREAM_HOOKS,
    Tracer,
    stats_to_json,
)
from bench.workloads import HALL_SPEC

#: How long the shard may take to build before the host gives up.
LIVE_TIMEOUT_S = 120.0


def _emit(message: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _host_covered(tracer: Tracer, index: int) -> Optional[float]:
    """Seconds of window ``index``'s path in the host that spans cover.

    The handler's frame parse and routing up to the ingress put, the
    ingress wait, the worker's spans up to the push of the window's last
    read, the watermark wait until the push that closed the window, and
    the worker's spans from there to this emission.  Called on the
    worker thread, from the wrapped ``ProvenanceRing.push``.
    """
    closed = tracer.take_closed(index)
    if closed is None:
        return None
    context = closed.context
    before = 0.0
    if context is not None:
        before = (
            context.pre_put_s
            + context.wait_s
            + (closed.last_push_cum - context.cum_at_drain)
        )
    return (
        before
        + (closed.closed - closed.last_push)
        + (tracer.covered() - closed.closed_cum)
    )


def main() -> int:
    registry = DeploymentRegistry()
    registry.register(HALL_SPEC)
    supervisor = ShardSupervisor(registry)
    #: (window index, emission time, host-covered seconds, output,
    #: seconds of the faster kernel run after the emission)
    fixes: List[List[Any]] = []
    tracers: List[Tracer] = []
    original_push = ProvenanceRing.push

    def stamped_push(ring: ProvenanceRing, fix: Any) -> None:
        emitted = time.monotonic()
        covered = _host_covered(tracers[0], fix.index) if tracers else None
        original_push(ring, fix)
        kernel_s = min(time_kernel(), time_kernel())
        fixes.append([fix.index, emitted, covered, fix_output(fix), kernel_s])

    ProvenanceRing.push = stamped_push  # type: ignore[method-assign]
    ingest: Optional[IngestServer] = None
    trace_on: Optional[float] = None
    try:
        supervisor.start()
        deadline = time.monotonic() + LIVE_TIMEOUT_S
        while registry.state_of(HALL_SPEC.deployment_id) != "live":
            if registry.state_of(HALL_SPEC.deployment_id) == "failed":
                print("bench.host: the shard failed to build", file=sys.stderr)
                return 1
            if time.monotonic() > deadline:
                print("bench.host: the shard never went live", file=sys.stderr)
                return 1
            time.sleep(0.005)
        ingest = IngestServer(supervisor).start()
        _emit({"event": "live", "port": ingest.port})
        while True:
            command = sys.stdin.readline().strip()
            if command == "trace" and not tracers:
                tracers.append(Tracer().install(HOST_HOOKS + STREAM_HOOKS + CORE_HOOKS))
                trace_on = time.monotonic()
            elif command in ("stop", ""):
                break
        ingest.stop()
        ingest = None
        supervisor.stop(drain=True)
        leakage = check_leakage(supervisor, registry)
        shard = supervisor.shard(HALL_SPEC.deployment_id)
        _emit(
            {
                "event": "report",
                "fixes": fixes,
                "trace_on": trace_on,
                "layers": stats_to_json(tracers[0].snapshot()) if tracers else None,
                "dropped_reads": tracers[0].dropped_reads() if tracers else 0,
                "ingress": shard.queue_stats(),
                "leakage": leakage["violations"][:10],
                "peak_rss_mb": peak_rss_mb(),
            }
        )
        return 0
    finally:
        for tracer in tracers:
            tracer.uninstall()
        ProvenanceRing.push = original_push  # type: ignore[method-assign]
        if ingest is not None:
            ingest.stop()
        supervisor.stop(drain=False)


if __name__ == "__main__":
    sys.exit(main())
