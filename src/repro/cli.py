"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the tasks a user reaches for first:

* ``demo``      — calibrate, baseline and localize one target in a
  chosen environment, printing the likelihood heat map.
* ``coverage``  — print the deployment's coverage/deadzone map.
* ``experiment``— run one figure reproduction by name.
* ``stream``    — continuous tracking over a synthetic or replayed
  read stream (``--record`` / ``--replay`` for JSONL recordings,
  ``--chaos`` to inject a named fault scenario, ``--fix-log`` to
  record per-fix provenance, ``--serve-metrics`` for the live ops
  endpoint).
* ``health``    — run a stream and report per-reader health plus the
  fix-quality summary (the fleet view of ``docs/ROBUSTNESS.md``).
* ``stats``     — pretty-print a metrics snapshot written by a prior
  ``--metrics`` run (``--prefix`` to filter one series).
* ``provenance``— inspect a ``--fix-log`` recording: who and what
  produced each fix (readers, faults, lineage).
* ``retain``    — age out old recordings/checkpoints under a
  TTL/size/count policy (dry-run unless ``--apply``).
* ``serve``     — run a sharded fleet of tracking deployments behind
  the TCP ingest endpoint (``docs/SERVING.md``); ``--serve-metrics``
  adds the fleet-wide ops endpoint.

Results go to stdout; progress goes through structured logging on
stderr (suppressed by ``--quiet``).  ``--trace FILE`` / ``--metrics
FILE`` turn on the observability layer and write JSONL span traces and
metric snapshots — see ``docs/OBSERVABILITY.md`` for the schema and
``docs/RUNBOOK.md`` for the operational recipes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.constants import TABLE_GRID_CELL_M
from repro.errors import ReproError, UsageError
from repro.obs.logging import configure_logging, fields, get_logger

log = get_logger("cli")

ENVIRONMENTS = ("library", "laboratory", "hall", "table", "wifi-office")

#: Environments with TDM RFID readers — the ones the stream engine runs on.
RFID_ENVIRONMENTS = ("library", "laboratory", "hall", "table")

#: Exit code for invalid usage / library-reported failures.
EXIT_ERROR = 2


def _build_scene(name: str, seed: int):
    from repro.sim.environments import (
        hall_scene,
        laboratory_scene,
        library_scene,
        table_scene,
    )
    from repro.wifi import wifi_office_scene

    makers = {
        "library": library_scene,
        "laboratory": laboratory_scene,
        "hall": hall_scene,
        "table": table_scene,
        "wifi-office": wifi_office_scene,
    }
    if name not in makers:
        raise UsageError(
            f"unknown environment {name!r}; pick from {ENVIRONMENTS}"
        )
    return makers[name](rng=seed)


def cmd_demo(args: argparse.Namespace) -> int:
    """Localize one target and show the evidence surface."""
    from repro.core.pipeline import DWatch
    from repro.geometry.point import Point
    from repro.sim.measurement import MeasurementSession
    from repro.sim.target import human_target
    from repro.viz import render_likelihood, render_scene

    scene = _build_scene(args.environment, args.seed)
    print("\n".join(render_scene(scene)))
    cell = TABLE_GRID_CELL_M if args.environment == "table" else 0.05
    dwatch = DWatch(scene, cell_size=cell)
    log.info(
        "calibrating readers over the air",
        extra=fields(environment=args.environment, readers=len(scene.readers)),
    )
    dwatch.calibrate(rng=args.seed + 1)
    log.info("collecting empty-area baseline", extra=fields(captures=3))
    session = MeasurementSession(scene, rng=args.seed + 2)
    dwatch.collect_baseline([session.capture() for _ in range(3)])

    if args.x is not None and args.y is not None:
        position = Point(args.x, args.y)
    else:
        position = scene.room.center
    target = human_target(position)
    log.info(
        "localizing target",
        extra=fields(x=f"{position.x:.2f}", y=f"{position.y:.2f}"),
    )
    measurement = session.capture([target])
    evidence = dwatch.evidence(measurement)
    estimates = dwatch.localize(measurement)
    print("\nlikelihood surface (X = true position):")
    print(
        "\n".join(
            render_likelihood(dwatch.likelihood_map, evidence, truth=position)
        )
    )
    if estimates:
        estimate = estimates[0]
        error = target.localization_error(estimate.position)
        print(
            f"\nestimate ({estimate.position.x:.2f}, {estimate.position.y:.2f})"
            f"  true ({position.x:.2f}, {position.y:.2f})"
            f"  error {error * 100:.1f} cm"
        )
    else:
        print("\ntarget not localizable from here (deadzone)")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    """Print the coverage/deadzone map of a deployment."""
    from repro.sim.coverage import analyze_coverage

    scene = _build_scene(args.environment, args.seed)
    log.info(
        "analyzing coverage",
        extra=fields(environment=args.environment, spacing=args.spacing),
    )
    coverage = analyze_coverage(scene, grid_spacing=args.spacing)
    print("\n".join(coverage.ascii_map()))
    print(
        f"\ncoverage {coverage.coverage_rate:.0%}  "
        f"deadzone {coverage.deadzone_rate:.0%}  "
        f"('#' localizable, '+' one reader, '.' deadzone)"
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one figure reproduction by its short name."""
    import repro.experiments as experiments

    runners: Dict[str, Callable] = {
        "fig03": lambda: experiments.run_fig03(rng=args.seed),
        "fig04": lambda: experiments.run_fig04(rng=args.seed),
        "fig09": lambda: experiments.run_fig09(trials=2, rng=args.seed),
        "fig10": lambda: experiments.run_fig10(trials=3, rng=args.seed),
        "fig12": lambda: experiments.run_fig12(rng=args.seed),
        "fig13": lambda: experiments.run_fig13(trials=6, rng=args.seed),
        "fig14": lambda: experiments.run_fig14(num_locations=12, rng=args.seed),
        "fig15": lambda: experiments.run_fig15(num_locations=8, rng=args.seed),
        "fig16": lambda: experiments.run_fig16(num_locations=10, rng=args.seed),
        "fig17": lambda: experiments.run_fig17(num_locations=10, rng=args.seed),
        "fig18": lambda: experiments.run_fig18(num_locations=8, rng=args.seed),
        "fig19": lambda: experiments.run_fig19(snapshots=4, rng=args.seed),
        "fig21": lambda: experiments.run_fig21(rng=args.seed),
        "latency": lambda: experiments.run_latency(fixes=8, rng=args.seed),
    }
    if args.figure not in runners:
        raise UsageError(
            f"unknown figure {args.figure!r}; pick from {sorted(runners)}"
        )
    log.info("running experiment", extra=fields(figure=args.figure, seed=args.seed))
    result = runners[args.figure]()
    print("\n".join(result.rows()))
    return 0


def _calibrated_pipeline(scene, environment: str, seed: int):
    """Calibrate and baseline a DWatch pipeline over ``scene``."""
    from repro.core.pipeline import DWatch
    from repro.sim.measurement import MeasurementSession

    cell = TABLE_GRID_CELL_M if environment == "table" else 0.05
    dwatch = DWatch(scene, cell_size=cell)
    log.info(
        "calibrating readers over the air",
        extra=fields(environment=environment, readers=len(scene.readers)),
    )
    dwatch.calibrate(rng=seed + 1)
    log.info("collecting empty-area baseline", extra=fields(captures=2))
    session = MeasurementSession(scene, rng=seed + 2)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    return dwatch


def _chaos_source(args: argparse.Namespace, scene, seed: int, source):
    """Wrap ``source`` with the requested chaos scenario's injector.

    Returns ``(source, injector)``; the injector is ``None`` when the
    scenario is ``none``, leaving the stream untouched (the CLI output
    is pinned byte-identical to a run without the flag).
    """
    from repro.faults import FaultInjector, chaos_plan, scene_schedules

    plan = chaos_plan(args.chaos, scene, fixes=args.fixes, seed=seed)
    if not plan.enabled:
        return source, None
    log.info(
        "injecting faults",
        extra=fields(scenario=args.chaos, faults=len(plan.faults)),
    )
    injector = FaultInjector(plan, scene_schedules(scene))
    return injector.inject(source), injector


def _fix_line(fix) -> str:
    """One stdout line per fix; quality appears only when not full."""
    quality = ""
    if fix.quality.level != "full":
        quality = (
            f"  [{fix.quality.level}"
            f" conf={fix.quality.confidence:.2f}"
            f" readers={fix.quality.active_readers}/{fix.quality.total_readers}]"
        )
    if fix.position is None:
        return f"fix {fix.index:3d}  t={fix.time_s:.4f}s  no target{quality}"
    suffix = "  (predicted)" if fix.predicted_only else ""
    return (
        f"fix {fix.index:3d}  t={fix.time_s:.4f}s  "
        f"({fix.position.x:.3f}, {fix.position.y:.3f}){suffix}{quality}"
    )


def cmd_stream(args: argparse.Namespace) -> int:
    """Continuous tracking over a synthetic or replayed read stream."""
    from repro.stream import (
        RecordingHeader,
        StreamConfig,
        StreamRunner,
        SyntheticStreamConfig,
        read_header,
        read_recording,
        synthetic_reads,
        write_recording,
    )

    if args.record and args.replay:
        raise UsageError("--record and --replay are mutually exclusive")

    environment = args.environment
    seed = args.seed
    if args.replay:
        # The recording header pins the deployment it was captured in,
        # so calibration and baseline rebuild deterministically.
        header = read_header(args.replay)
        if header.environment is not None:
            environment = header.environment
        if header.seed is not None:
            seed = header.seed
    if environment not in RFID_ENVIRONMENTS:
        raise UsageError(
            f"environment {environment!r} has no TDM readers to stream from; "
            f"pick from {RFID_ENVIRONMENTS}"
        )

    scene = _build_scene(environment, seed)
    synthetic_cfg = SyntheticStreamConfig(fixes=args.fixes)

    if args.record:
        written = write_recording(
            args.record,
            synthetic_reads(scene, synthetic_cfg, rng=seed + 3),
            RecordingHeader(
                environment=environment,
                seed=seed,
                description=f"synthetic {environment} stream, {args.fixes} fixes",
            ),
        )
        print(f"recorded {written} reads to {args.record}")
        return 0

    dwatch = _calibrated_pipeline(scene, environment, seed)
    runner = StreamRunner(
        dwatch,
        StreamConfig(
            decay=args.decay,
            drift_alpha=args.drift_alpha,
            max_targets=args.max_targets,
        ),
    )
    if args.replay:
        source = read_recording(args.replay)
    else:
        source = synthetic_reads(scene, synthetic_cfg, rng=seed + 3)
    source, injector = _chaos_source(args, scene, seed, source)
    if injector is not None:
        # Fix provenance names the fault kinds active over each window.
        runner.fault_probe = injector.active_kinds
    fix_writer = None
    if args.fix_log:
        from repro.stream.provenance import FixLogHeader, FixLogWriter

        fix_writer = FixLogWriter(
            args.fix_log,
            FixLogHeader(
                environment=environment,
                seed=seed,
                description=f"{environment} stream, {args.fixes} fixes",
            ),
        )
    server = None
    ring = None
    if args.serve_metrics is not None:
        from repro.obs.server import OpsServer, health_document_for
        from repro.stream.provenance import ProvenanceRing

        ring = ProvenanceRing(capacity=256)
        server = OpsServer(
            port=args.serve_metrics,
            health_provider=lambda: health_document_for(runner),
            ring=ring,
        ).start()
        log.info("ops endpoint listening", extra=fields(url=server.url))
    log.info(
        "streaming reads",
        extra=fields(source="replay" if args.replay else "synthetic"),
    )
    windows = 0
    located = 0
    degraded = 0
    try:
        for fix in runner.run(source):
            windows += 1
            if fix.position is not None:
                located += 1
            if fix.quality.degraded:
                degraded += 1
            if fix_writer is not None:
                fix_writer.append(fix)
            if ring is not None:
                ring.push(fix)
            print(_fix_line(fix))
    finally:
        if fix_writer is not None:
            fix_writer.close()
            log.info(
                "fix log written; inspect with `repro provenance`",
                extra=fields(file=args.fix_log, fixes=fix_writer.written),
            )
        if server is not None:
            server.stop()
    stats = runner.queue.stats
    print(
        f"\nwindows {windows}  located {located}  "
        f"late reads {runner.assembler.late_reads}  "
        f"torn sweeps {runner.assembler.torn_sweeps}  "
        f"dropped reads {stats.dropped}"
    )
    if injector is not None:
        injected = ", ".join(
            f"{name} {count}"
            for name, count in sorted(injector.stats.items())
            if count
        )
        print(
            f"chaos {args.chaos}: degraded fixes {degraded}, "
            f"rejected reads {runner.rejected_reads}, "
            f"injected [{injected or 'nothing'}]"
        )
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """Run a stream and report per-reader health and fix quality."""
    from repro.stream import (
        StreamConfig,
        StreamRunner,
        SyntheticStreamConfig,
        synthetic_reads,
    )

    environment = args.environment
    seed = args.seed
    scene = _build_scene(environment, seed)
    dwatch = _calibrated_pipeline(scene, environment, seed)
    runner = StreamRunner(dwatch, StreamConfig(decay=args.decay))
    source = synthetic_reads(
        scene, SyntheticStreamConfig(fixes=args.fixes), rng=seed + 3
    )
    source, injector = _chaos_source(args, scene, seed, source)
    if injector is not None:
        runner.fault_probe = injector.active_kinds
    fixes = list(runner.run(source))

    chaos_note = f", chaos {args.chaos}" if injector is not None else ""
    print(
        f"reader health ({environment}, seed {seed}, "
        f"{args.fixes} fixes{chaos_note})\n"
    )
    header = (
        f"{'reader':<16} {'state':<12} {'reads':>7} {'windows':>9} "
        f"{'rate':>8} {'violations':>11} {'quarantines':>12} {'recoveries':>11}"
    )
    print(header)
    for record in runner.health.report():
        windows = f"{record.windows_contributed}/{record.windows_seen}"
        print(
            f"{record.name:<16} {record.state:<12} {record.reads:>7} "
            f"{windows:>9} {record.read_rate:>8.1f} {record.violations:>11} "
            f"{record.quarantines:>12} {record.recoveries:>11}"
        )
    by_level = {"full": 0, "degraded": 0, "insufficient": 0}
    for fix in fixes:
        by_level[fix.quality.level] = by_level.get(fix.quality.level, 0) + 1
    confidences = [fix.quality.confidence for fix in fixes]
    mean_confidence = sum(confidences) / len(confidences) if confidences else 0.0
    print(
        f"\nfix quality: full {by_level['full']}  "
        f"degraded {by_level['degraded']}  "
        f"insufficient {by_level['insufficient']}  "
        f"mean confidence {mean_confidence:.3f}"
    )
    if injector is not None and injector.total_injected:
        injected = ", ".join(
            f"{name} {count}"
            for name, count in sorted(injector.stats.items())
            if count
        )
        print(f"injected faults: {injected}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot from a ``--metrics`` JSONL file."""
    from repro.obs.metrics import load_snapshot_jsonl, render_snapshot

    try:
        records = load_snapshot_jsonl(args.file)
    except FileNotFoundError as exc:
        raise UsageError(
            f"no metrics file at {args.file!r}; run a command with "
            "--metrics FILE first (e.g. `repro demo --metrics metrics.jsonl`)"
        ) from exc
    if args.prefix is not None and not any(
        record.get("name", "").startswith(args.prefix) for record in records
    ):
        # A typo'd prefix silently printing an empty table looks like
        # "no metrics were recorded" — fail loudly instead, and name
        # what is actually there.
        available = ", ".join(
            sorted({str(record.get("name", "")) for record in records})[:12]
        )
        raise UsageError(
            f"no metrics in {args.file!r} match prefix {args.prefix!r}; "
            f"available names start with: {available}"
        )
    print(f"metrics snapshot: {args.file}")
    print("\n".join(render_snapshot(records, prefix=args.prefix)))
    return 0


def _provenance_line(fix) -> str:
    """One summary line per logged fix."""
    if fix.position is None:
        where = "no target"
    else:
        where = f"({fix.position[0]:.3f}, {fix.position[1]:.3f})"
    p = fix.provenance
    if p is None:
        return (
            f"fix {fix.index:3d}  t={fix.time_s:.4f}s  {where}  "
            f"{fix.quality_level:<12} (no provenance)"
        )
    contributing = ",".join(p.contributing) or "-"
    faults = ",".join(p.active_faults) or "-"
    return (
        f"fix {fix.index:3d}  t={fix.time_s:.4f}s  {where}  "
        f"{fix.quality_level:<12} readers={contributing}  faults={faults}  "
        f"closed={p.closed_by or '-'}"
    )


def cmd_provenance(args: argparse.Namespace) -> int:
    """Inspect a fix log written by ``repro stream --fix-log``."""
    import json as _json

    from repro.stream import read_fix_log, read_fix_log_header

    header = read_fix_log_header(args.file)
    fixes = list(read_fix_log(args.file))
    if args.json:
        for fix in fixes:
            record = {
                "index": fix.index,
                "t": fix.time_s,
                "position": (
                    None if fix.position is None else list(fix.position)
                ),
                "predicted_only": fix.predicted_only,
                "quality": fix.quality_level,
                "confidence": fix.confidence,
                "provenance": (
                    None
                    if fix.provenance is None
                    else fix.provenance.to_dict()
                ),
            }
            print(_json.dumps(record, sort_keys=True))
        return 0
    origin = []
    if header.environment is not None:
        origin.append(f"environment {header.environment}")
    if header.seed is not None:
        origin.append(f"seed {header.seed}")
    origin_note = f", {', '.join(origin)}" if origin else ""
    print(f"fix log: {args.file} ({len(fixes)} fixes{origin_note})\n")
    fault_kinds: Dict[str, int] = {}
    lineage: List[str] = []
    for fix in fixes:
        print(_provenance_line(fix))
        if fix.provenance is None:
            continue
        for kind in fix.provenance.active_faults:
            fault_kinds[kind] = fault_kinds.get(kind, 0) + 1
        lineage = list(fix.provenance.checkpoint_lineage)
    fault_note = (
        ", ".join(
            f"{kind} ({count} fixes)"
            for kind, count in sorted(fault_kinds.items())
        )
        or "none"
    )
    lineage_note = " -> ".join(lineage) if lineage else "fresh run (no restores)"
    print(
        f"\nfaults seen: {fault_note}\n"
        f"checkpoint lineage: {lineage_note}"
    )
    return 0


def cmd_retain(args: argparse.Namespace) -> int:
    """Age out recordings/checkpoints/fix logs under a retention policy."""
    import time

    from repro.stream.retention import (
        RetentionPolicy,
        apply_retention,
        plan_retention,
        scan_artefacts,
    )

    policy = RetentionPolicy(
        max_age_s=(
            None if args.max_age_days is None else args.max_age_days * 86400.0
        ),
        max_total_bytes=(
            None
            if args.max_total_mb is None
            else int(args.max_total_mb * 1024 * 1024)
        ),
        max_count=args.max_count,
    )
    if not policy.bounded:
        raise UsageError(
            "set at least one bound: --max-age-days, --max-total-mb "
            "or --max-count"
        )
    artefacts = scan_artefacts(args.directory)
    plan = plan_retention(artefacts, policy, now_s=time.time())
    mode = "apply" if args.apply else "dry run"
    print(
        f"retention over {args.directory} ({mode}): "
        f"{len(artefacts)} artefacts, keep {len(plan.keep)}, "
        f"delete {len(plan.delete)} ({plan.bytes_freed} bytes)"
    )
    for planned in plan.delete:
        print(
            f"  delete {planned.artefact.path.name}  "
            f"[{planned.artefact.kind}, {planned.artefact.size_bytes} bytes, "
            f"{planned.reason}]"
        )
    if not args.apply:
        if plan.delete:
            print("dry run: nothing deleted (pass --apply to delete)")
        return 0
    removed = apply_retention(plan)
    print(f"deleted {len(removed)} artefacts")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a fleet of tracking deployments behind network ingest."""
    import time

    from repro.obs.server import OpsServer
    from repro.serve import (
        DeploymentRegistry,
        IngestServer,
        ShardSupervisor,
        default_fleet,
    )

    if args.registry is not None:
        registry = DeploymentRegistry.load(args.registry)
    else:
        registry = DeploymentRegistry()
        for spec in default_fleet(
            args.deployments, environment=args.environment, seed=args.seed
        ):
            registry.register(spec)
    if len(registry) == 0:
        raise UsageError("the registry has no deployments to serve")

    supervisor = ShardSupervisor(
        registry,
        checkpoint_dir=args.checkpoint_dir,
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        hang_after_s=args.hang_after,
    )
    supervisor.start()
    ingest = IngestServer(supervisor, port=args.port)
    ops = None
    try:
        ingest.start()
        if args.serve_metrics is not None:
            ops = OpsServer(
                port=args.serve_metrics,
                health_provider=supervisor.health_document,
                rings=supervisor.rings(),
            ).start()
            log.info("ops endpoint listening", extra=fields(url=ops.url))
        if args.port_file:
            ports = {"ingest": ingest.port}
            if ops is not None:
                ports["ops"] = ops.port
            with open(args.port_file, "w", encoding="utf-8") as handle:
                json.dump(ports, handle)
        print(
            f"serving {len(registry)} deployments "
            f"({args.workers} workers) on "
            f"{ingest.host}:{ingest.port}"
        )
        deadline = (
            None if args.duration is None else time.time() + args.duration
        )
        try:
            while deadline is None or time.time() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:
            log.info("interrupted; draining shards")
    finally:
        if ops is not None:
            ops.stop()
        ingest.stop()
        supervisor.stop(drain=True)
    health = supervisor.health_document()
    for deployment_id in registry.deployment_ids():
        entry = health["deployments"][deployment_id]
        print(
            f"  {deployment_id}: state {entry['state']}  "
            f"fixes {entry['fixes_emitted']}  restarts {entry['restarts']}"
        )
    print(f"total fixes {supervisor.fixes_emitted()}")
    return 0


def _chaos_option(parser: argparse.ArgumentParser) -> None:
    """The shared ``--chaos`` scenario flag (stream + health)."""
    from repro.faults import CHAOS_SCENARIOS

    parser.add_argument(
        "--chaos",
        default="none",
        choices=CHAOS_SCENARIOS,
        help="inject a named fault scenario into the read stream "
        "(default: none)",
    )


def _observability_options(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--metrics`` flags."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a JSONL metrics snapshot of the run to FILE",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D-Watch reproduction: demos, coverage maps, experiments",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress logging (results still print to stdout)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="localize one target end to end")
    demo.add_argument("--environment", default="hall", choices=ENVIRONMENTS)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--x", type=float, default=None)
    demo.add_argument("--y", type=float, default=None)
    _observability_options(demo)
    demo.set_defaults(handler=cmd_demo)

    coverage = sub.add_parser("coverage", help="print the coverage map")
    coverage.add_argument("--environment", default="hall", choices=ENVIRONMENTS)
    coverage.add_argument("--seed", type=int, default=1)
    coverage.add_argument("--spacing", type=float, default=0.4)
    coverage.set_defaults(handler=cmd_coverage)

    experiment = sub.add_parser("experiment", help="run a figure reproduction")
    experiment.add_argument("figure")
    experiment.add_argument("--seed", type=int, default=1)
    _observability_options(experiment)
    experiment.set_defaults(handler=cmd_experiment)

    stream = sub.add_parser(
        "stream", help="continuous tracking over a read stream"
    )
    stream.add_argument("--environment", default="hall", choices=RFID_ENVIRONMENTS)
    stream.add_argument("--seed", type=int, default=1)
    stream.add_argument(
        "--fixes",
        type=int,
        default=8,
        help="synthetic stream length in fix windows (default: 8)",
    )
    stream.add_argument(
        "--max-targets", dest="max_targets", type=int, default=1
    )
    stream.add_argument(
        "--decay",
        type=float,
        default=0.8,
        help="covariance forgetting factor in (0, 1] (default: 0.8)",
    )
    stream.add_argument(
        "--drift-alpha",
        dest="drift_alpha",
        type=float,
        default=0.0,
        help="baseline drift EWMA weight; 0 freezes the baseline (default)",
    )
    stream.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help="write the synthetic read stream to FILE as JSONL and exit",
    )
    stream.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="stream reads from a recording instead of the simulator",
    )
    stream.add_argument(
        "--fix-log",
        dest="fix_log",
        metavar="FILE",
        default=None,
        help="write per-fix provenance to FILE as JSONL "
        "(inspect with `repro provenance`)",
    )
    stream.add_argument(
        "--serve-metrics",
        dest="serve_metrics",
        metavar="PORT",
        type=int,
        default=None,
        help="serve /metrics, /healthz and /provenance/recent on "
        "127.0.0.1:PORT while streaming (0 picks an ephemeral port)",
    )
    _chaos_option(stream)
    _observability_options(stream)
    stream.set_defaults(handler=cmd_stream)

    health = sub.add_parser(
        "health", help="per-reader health report over a stream run"
    )
    health.add_argument("--environment", default="hall", choices=RFID_ENVIRONMENTS)
    health.add_argument("--seed", type=int, default=1)
    health.add_argument(
        "--fixes",
        type=int,
        default=8,
        help="synthetic stream length in fix windows (default: 8)",
    )
    health.add_argument(
        "--decay",
        type=float,
        default=0.8,
        help="covariance forgetting factor in (0, 1] (default: 0.8)",
    )
    _chaos_option(health)
    _observability_options(health)
    health.set_defaults(handler=cmd_health)

    stats = sub.add_parser(
        "stats", help="pretty-print a --metrics JSONL snapshot"
    )
    stats.add_argument(
        "file",
        nargs="?",
        default="metrics.jsonl",
        help="metrics snapshot file (default: metrics.jsonl)",
    )
    stats.add_argument(
        "--prefix",
        default=None,
        help="only show metrics whose name starts with PREFIX",
    )
    stats.set_defaults(handler=cmd_stats)

    provenance = sub.add_parser(
        "provenance", help="inspect a `repro stream --fix-log` recording"
    )
    provenance.add_argument(
        "file",
        nargs="?",
        default="fixes.jsonl",
        help="fix log file (default: fixes.jsonl)",
    )
    provenance.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per fix instead of the table",
    )
    provenance.set_defaults(handler=cmd_provenance)

    retain = sub.add_parser(
        "retain",
        help="age out recordings/checkpoints under a retention policy",
    )
    retain.add_argument("directory", help="directory to scan")
    retain.add_argument(
        "--max-age-days",
        dest="max_age_days",
        type=float,
        default=None,
        help="delete artefacts older than this many days",
    )
    retain.add_argument(
        "--max-total-mb",
        dest="max_total_mb",
        type=float,
        default=None,
        help="keep newest artefacts until the total exceeds this size",
    )
    retain.add_argument(
        "--max-count",
        dest="max_count",
        type=int,
        default=None,
        help="keep at most this many artefacts (newest first)",
    )
    retain.add_argument(
        "--apply",
        action="store_true",
        help="actually delete; default is a dry run that only reports",
    )
    retain.set_defaults(handler=cmd_retain)

    serve = sub.add_parser(
        "serve",
        help="serve a sharded fleet of deployments behind TCP ingest",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="ingest TCP port (default: 0 = ephemeral)",
    )
    serve.add_argument(
        "--serve-metrics",
        dest="serve_metrics",
        metavar="PORT",
        type=int,
        default=None,
        help="also serve the fleet ops endpoint "
        "(/metrics, /healthz, /provenance/recent) on PORT",
    )
    serve.add_argument(
        "--registry",
        metavar="FILE",
        default=None,
        help="load the deployment registry from a dwatch-registry JSON "
        "file instead of generating a default fleet",
    )
    serve.add_argument(
        "--deployments",
        type=int,
        default=4,
        help="size of the generated default fleet (ignored with "
        "--registry; default: 4)",
    )
    serve.add_argument(
        "--environment",
        default="hall",
        choices=("library", "laboratory", "hall"),
        help="environment of the generated default fleet (default: hall)",
    )
    serve.add_argument("--seed", type=int, default=11)
    serve.add_argument(
        "--workers",
        default="thread",
        choices=("thread", "process"),
        help="shard isolation: in-process worker threads or one "
        "subprocess per deployment (default: thread)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        metavar="DIR",
        default=None,
        help="persist per-deployment checkpoints here (enables "
        "crash-restart resume)",
    )
    serve.add_argument(
        "--checkpoint-every",
        dest="checkpoint_every",
        type=int,
        default=0,
        help="checkpoint automatically every N emitted fixes "
        "(default: 0 = only explicit/drain checkpoints)",
    )
    serve.add_argument(
        "--hang-after",
        dest="hang_after",
        metavar="SECONDS",
        type=float,
        default=None,
        help="run a shard watchdog with this liveness deadline: a "
        "shard that stops making progress for SECONDS without dying "
        "is declared hung and recycled through the restart budget "
        "(default: no watchdog)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then drain and exit "
        "(default: until interrupted)",
    )
    serve.add_argument(
        "--port-file",
        dest="port_file",
        metavar="FILE",
        default=None,
        help="write the bound ports as JSON to FILE once listening",
    )
    serve.set_defaults(handler=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Library errors (:class:`ReproError`, including bad-usage ones) are
    rendered on stderr with a non-zero exit code instead of escaping as
    tracebacks or bare ``SystemExit``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(quiet=args.quiet)
    trace_file = getattr(args, "trace", None)
    metrics_file = getattr(args, "metrics", None)
    serve_port = getattr(args, "serve_metrics", None)
    obs_on = bool(trace_file or metrics_file) or serve_port is not None
    if obs_on:
        # --serve-metrics needs a live registry even without --trace or
        # --metrics: the /metrics route renders whatever flows into it.
        obs.configure(trace_file=trace_file, metrics_file=metrics_file)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``repro stats | head``); exit
        # quietly like other CLIs.  Re-point stdout at devnull so the
        # interpreter's shutdown flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if obs_on:
            obs.shutdown()
            if trace_file:
                log.info("trace written", extra=fields(file=trace_file))
            if metrics_file:
                log.info(
                    "metrics written; inspect with `repro stats`",
                    extra=fields(file=metrics_file),
                )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
