"""Observability overhead: the hall stream with repro.obs off, then on.

Streams the synthetic walk of the hall deployment through fresh
``StreamRunner`` instances with instrumentation disabled and enabled,
and writes ``BENCH_obs.json`` (schema ``repro.bench.obs.v1``): the
number behind the "disabled obs is free, enabled obs is cheap" claim in
``docs/OBSERVABILITY.md``.  Every other performance figure comes from
the repository benchmark, ``python -m bench``.

Run:  PYTHONPATH=src python scripts/obs_overhead.py [--smoke] [--output FILE]

``--smoke`` streams 3 fixes once per configuration instead of 6 fixes
five times: it checks the script end to end and still writes the record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.serve import DeploymentSpec
from repro.serve.shard import build_runner
from repro.stream import StreamRunner, SyntheticStreamConfig, synthetic_reads
from repro.stream.events import TagRead

#: The hall deployment: 4 readers x 6 antennas, 10 tags, 0.1 m grid.
#: Seed 71 builds the scene; calibration, baseline and the synthetic
#: walk use 72, 73 and 74.
HALL = DeploymentSpec(
    deployment_id="hall-obs",
    environment="hall",
    seed=71,
    num_tags=10,
    num_antennas=6,
    num_readers=4,
    cell_size=0.1,
)


def _timed_stream(
    template: StreamRunner, reads: Sequence[TagRead], enabled: bool
) -> Tuple[float, int]:
    """Stream ``reads`` through a fresh runner.

    Returns the wall time and the metric series the run left behind
    (0 with obs disabled).
    """
    runner = StreamRunner(template.dwatch, template.config)
    with obs.observed() if enabled else contextlib.nullcontext() as state:
        started = time.perf_counter()
        list(runner.run(iter(reads)))
        elapsed = time.perf_counter() - started
        return elapsed, state.registry.series_count() if state else 0


def bench_obs(fixes: int, repeats: int) -> Dict[str, object]:
    """Observability overhead: the identical stream, obs off vs on.

    Interleaves the two configurations (off, on, off, on, ...) after one
    warmup run of each, so slow machine drift hits both equally, and
    takes the best of N each.
    """
    template = build_runner(HALL)
    reads = list(
        synthetic_reads(
            template.dwatch.scene,
            SyntheticStreamConfig(fixes=fixes),
            rng=HALL.seed + 3,
        )
    )
    _timed_stream(template, reads, enabled=False)
    _timed_stream(template, reads, enabled=True)
    disabled_runs: List[float] = []
    enabled_runs: List[float] = []
    series = 0
    for _ in range(repeats):
        disabled_runs.append(_timed_stream(template, reads, enabled=False)[0])
        elapsed, series = _timed_stream(template, reads, enabled=True)
        enabled_runs.append(elapsed)
    best_disabled = min(disabled_runs)
    best_enabled = min(enabled_runs)
    return {
        "fixes": fixes,
        "reads": len(reads),
        "repeats": repeats,
        "disabled_fix_ms": best_disabled / fixes * 1e3,
        "enabled_fix_ms": best_enabled / fixes * 1e3,
        "disabled_fix_ms_runs": [r / fixes * 1e3 for r in disabled_runs],
        "enabled_fix_ms_runs": [r / fixes * 1e3 for r in enabled_runs],
        "overhead_pct": (best_enabled - best_disabled) / best_disabled * 100.0,
        "metric_series": series,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for gating (one repeat, 3 fixes)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_obs.json",
        help="where to write the record (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    fixes = 3 if args.smoke else 6
    repeats = 1 if args.smoke else 5

    started = time.perf_counter()
    print(
        f"obs overhead: {fixes} fixes x {repeats} repeats, "
        "disabled vs enabled..."
    )
    overhead = bench_obs(fixes, repeats)
    print(
        f"  disabled {overhead['disabled_fix_ms']:.1f} ms/fix   "
        f"enabled {overhead['enabled_fix_ms']:.1f} ms/fix   "
        f"overhead {overhead['overhead_pct']:+.1f}%   "
        f"series {overhead['metric_series']}"
    )
    record = {
        "schema": "repro.bench.obs.v1",
        "smoke": args.smoke,
        "elapsed_s": time.perf_counter() - started,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "obs": overhead,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
