"""Chaos soak harness: rotate fault scenarios, assert the process stays flat.

A streaming monitor's failure mode is rarely a crash — it is slow
accretion: RSS creeping up run after run, metric label cardinality
growing without bound, reads stranded in the ingest queue.  This
harness runs many back-to-back stream rounds against one long-lived
process and one persistent metrics registry, rotating through every
chaos scenario, and asserts three invariants at the end:

* **Bounded memory** — RSS growth from the post-warmup baseline to the
  final round stays under ``--max-rss-growth-mb``.
* **Stable cardinality** — once every scenario has run at least once,
  the registry's series count stops growing (labels are per-reader and
  per-fault-kind, never per-window), and stays under the registry's
  own per-name cap.
* **Drained queues** — every round ends with an empty ingest queue and
  a checkpoint/retention cycle that keeps the artefact directory at a
  fixed size.

Run:  PYTHONPATH=src python scripts/soak.py [--smoke] [--report FILE]

``--smoke`` is the CI-sized variant: one rotation plus a margin, small
scene — it exercises every code path and still enforces the
invariants.  Exit code 0 on a clean soak, 1 with the violated checks
named on stderr; the JSON report is written either way.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.faults import CHAOS_SCENARIOS, FaultInjector, chaos_plan, scene_schedules
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.core.pipeline import DWatch
from repro.stream import (
    RetentionPolicy,
    StreamRunner,
    SyntheticStreamConfig,
    apply_retention,
    plan_retention,
    save_checkpoint,
    scan_artefacts,
    synthetic_reads,
)

#: Checkpoints kept on disk across the whole soak (retention bound).
CHECKPOINT_KEEP = 3


def rss_mb() -> float:
    """Resident set size of this process in MiB.

    Reads ``/proc/self/status`` (Linux); falls back to the peak RSS
    from ``resource.getrusage`` elsewhere — a weaker signal (monotone
    by definition) but still an upper bound on growth.
    """
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_pipeline(num_tags: int, num_antennas: int) -> tuple:
    """One calibrated, baselined hall deployment shared by every round."""
    scene = hall_scene(rng=71, num_tags=num_tags, num_antennas=num_antennas)
    dwatch = DWatch(scene, cell_size=0.1)
    dwatch.calibrate(rng=72)
    session = MeasurementSession(scene, rng=73)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    return scene, dwatch


def soak_round(
    scene,
    dwatch,
    scenario: str,
    fixes: int,
    seed: int,
    checkpoint_dir: Path,
) -> Dict[str, object]:
    """One full round: chaos stream -> checkpoint -> retention sweep."""
    plan = chaos_plan(scenario, scene, fixes=fixes, seed=seed)
    injector = FaultInjector(plan, scene_schedules(scene))
    runner = StreamRunner(dwatch)
    runner.fault_probe = injector.active_kinds
    reads = synthetic_reads(
        scene, SyntheticStreamConfig(fixes=fixes), rng=seed + 1
    )
    emitted = list(runner.run(injector.inject(reads)))
    save_checkpoint(checkpoint_dir / f"soak-{seed}.checkpoint.json", runner)
    artefacts = scan_artefacts(checkpoint_dir)
    retention = plan_retention(
        artefacts,
        RetentionPolicy(max_count=CHECKPOINT_KEEP),
        now_s=time.time(),
    )
    apply_retention(retention)
    return {
        "scenario": scenario,
        "fixes": len(emitted),
        "located": sum(1 for f in emitted if f.position is not None),
        "degraded": sum(1 for f in emitted if f.quality.degraded),
        "injected": injector.total_injected,
        "queue_depth": len(runner.queue),
        "artefacts_kept": len(retention.keep),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized soak: one scenario rotation plus margin, small scene",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="override the number of rounds (default: 2 rotations, "
        "or 1 rotation + 2 with --smoke)",
    )
    parser.add_argument(
        "--fixes",
        type=int,
        default=None,
        help="stream length per round in fix windows",
    )
    parser.add_argument(
        "--max-rss-growth-mb",
        dest="max_rss_growth_mb",
        type=float,
        default=128.0,
        help="fail when post-warmup RSS grows more than this (default: 128)",
    )
    parser.add_argument(
        "--report",
        default=".check/SOAK_report.json",
        help="where to write the soak report (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    scenarios = [name for name in CHAOS_SCENARIOS if name != "none"]
    rotation = len(scenarios)
    rounds = args.rounds or (rotation + 2 if args.smoke else 2 * rotation)
    fixes = args.fixes or (2 if args.smoke else 4)
    num_tags = 4 if args.smoke else 8
    num_antennas = 4 if args.smoke else 6

    print(
        f"soak: {rounds} rounds x {fixes} fixes, "
        f"rotating {rotation} chaos scenarios "
        f"({'smoke' if args.smoke else 'full'} profile)"
    )
    started = time.perf_counter()
    obs.configure()  # one persistent registry across every round
    scene, dwatch = build_pipeline(num_tags, num_antennas)

    round_records: List[Dict[str, object]] = []
    rss_by_round: List[float] = []
    series_by_round: List[int] = []
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        checkpoint_dir = Path(tmp)
        for index in range(rounds):
            scenario = scenarios[index % rotation]
            record = soak_round(
                scene,
                dwatch,
                scenario,
                fixes=fixes,
                seed=100 + index,
                checkpoint_dir=checkpoint_dir,
            )
            gc.collect()
            record["rss_mb"] = round(rss_mb(), 1)
            record["metric_series"] = obs.get_registry().series_count()
            round_records.append(record)
            rss_by_round.append(float(record["rss_mb"]))
            series_by_round.append(int(record["metric_series"]))
            print(
                f"  round {index + 1:2d}/{rounds}  {scenario:<14} "
                f"fixes {record['fixes']}  injected {record['injected']:>5}  "
                f"rss {record['rss_mb']:.1f} MiB  "
                f"series {record['metric_series']}"
            )

    # -- the invariants ---------------------------------------------------
    failures: List[str] = []
    # RSS: measure growth from the end of round 1 (past allocator and
    # import warmup) to the final round.
    rss_growth = rss_by_round[-1] - rss_by_round[0] if rss_by_round else 0.0
    if rss_growth > args.max_rss_growth_mb:
        failures.append(
            f"RSS grew {rss_growth:.1f} MiB over the soak "
            f"(bound {args.max_rss_growth_mb:.1f} MiB)"
        )
    # Cardinality: once every scenario has run, no new series may appear.
    if rounds > rotation and series_by_round[-1] != series_by_round[rotation - 1]:
        failures.append(
            f"metric cardinality still growing after a full rotation: "
            f"{series_by_round[rotation - 1]} -> {series_by_round[-1]} series"
        )
    # Queues: every round must end drained.
    stranded = [r for r in round_records if int(str(r["queue_depth"])) != 0]
    if stranded:
        failures.append(f"{len(stranded)} rounds ended with a non-empty queue")
    # Retention: the artefact directory must stay at the configured size.
    overfull = [
        r for r in round_records[CHECKPOINT_KEEP:]
        if int(str(r["artefacts_kept"])) != CHECKPOINT_KEEP
    ]
    if overfull:
        failures.append(
            f"{len(overfull)} rounds kept != {CHECKPOINT_KEEP} checkpoints"
        )

    report = {
        "schema": "repro.soak.v1",
        "smoke": args.smoke,
        "elapsed_s": time.perf_counter() - started,
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": {
            "rounds": rounds,
            "fixes_per_round": fixes,
            "scenarios": scenarios,
            "max_rss_growth_mb": args.max_rss_growth_mb,
        },
        "rounds": round_records,
        "rss_growth_mb": round(rss_growth, 1),
        "final_metric_series": series_by_round[-1] if series_by_round else 0,
        "failures": failures,
        "passed": not failures,
    }
    Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    obs.shutdown()
    print(
        f"soak {'PASSED' if not failures else 'FAILED'} "
        f"in {report['elapsed_s']:.1f}s  "
        f"(rss growth {rss_growth:+.1f} MiB, "
        f"{report['final_metric_series']} series); report: {args.report}"
    )
    for failure in failures:
        print(f"soak failure: {failure}", file=sys.stderr)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
