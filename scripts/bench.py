"""Perf-trajectory harness: measure the fix pipeline, write BENCH_pipeline.json.

Records the two headline workloads every perf PR must not regress:

* ``benchmarks/test_latency.py``'s workload — mean/p95 fix time over
  repeated single-shot localizations, plus the per-stage ``latency.*``
  span breakdown from :mod:`repro.obs`.
* ``benchmarks/test_stream_throughput.py``'s workload — sustained
  fixes/sec over the synthetic hall walk.

Both take the best of several repeats after a warmup run: single cold
runs jitter by 2x on shared machines, and best-of-N is the stable
capacity figure a perf trajectory can be compared across.

Both reuse the exact experiment runners the benchmark gates call, so
the recorded numbers and the gated numbers measure the same code path.

Run:  PYTHONPATH=src python scripts/bench.py [--smoke] [--obs]
                                             [--output FILE]
                                             [--baseline FILE]
                                             [--compare BASELINE.json]

``--smoke`` shrinks the workload for CI gating (one repeat, fewer
fixes): it validates the harness end to end and still writes the JSON.
``--baseline`` compares against a previously written file and prints
speedups.
``--compare`` diffs the headline and per-stage numbers against a
previous record and exits non-zero when any metric regresses by more
than 15% — report-only in ``scripts/check.sh``, a hard gate when a CI
job chooses to make it one.

``--obs`` switches to the observability-overhead benchmark instead:
the same streaming workload with instrumentation disabled vs enabled,
written to ``BENCH_obs.json`` — the number backing the "disabled obs
is free, enabled obs is cheap" claim in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.experiments.latency import run_latency
from repro.experiments.throughput import build_stream_scenario, stream_once
from repro.stream.runner import StreamRunner


def bench_latency(fixes: int, repeats: int) -> Dict[str, object]:
    """Single-shot fix latency: warm up, then best mean of N runs."""
    run_latency(fixes=2, rng=11)  # warm BLAS/import paths
    best = None
    runs: List[float] = []
    for _ in range(repeats):
        result = run_latency(fixes=fixes, rng=11)
        runs.append(result.mean_ms)
        if best is None or result.mean_ms < best.mean_ms:
            best = result
    assert best is not None
    return {
        "fixes": fixes,
        "repeats": repeats,
        "mean_fix_ms": best.mean_ms,
        "mean_fix_ms_runs": runs,
        "p95_fix_ms": float(np.percentile(best.times_s, 95)) * 1e3,
        "stage_ms": best.stage_ms,
    }


def bench_stream(fixes: int, repeats: int) -> Dict[str, object]:
    """Streaming throughput: setup once, warm up, best of N streams."""
    dwatch, reads = build_stream_scenario(fixes=fixes)
    stream_once(dwatch, reads)  # warmup: first run pays cache fills
    best = None
    runs: List[float] = []
    for _ in range(repeats):
        result = stream_once(dwatch, reads)
        runs.append(result.fixes_per_s)
        if best is None or result.fixes_per_s > best.fixes_per_s:
            best = result
    assert best is not None
    return {
        "fixes": len(best.fixes),
        "reads": best.reads,
        "repeats": repeats,
        "fixes_per_s": best.fixes_per_s,
        "fixes_per_s_runs": runs,
        "reads_per_s": best.reads_per_s,
        "window_p50_ms": best.p50_ms,
        "window_p99_ms": best.p99_ms,
        "stage_ms": best.stage_ms,
    }


def _stream_elapsed_s(dwatch, reads, enabled: bool) -> float:
    """Wall time of one full stream run, with or without obs recording."""
    runner = StreamRunner(dwatch)
    if enabled:
        with obs.observed():
            started = time.perf_counter()
            list(runner.run(iter(reads)))
            return time.perf_counter() - started
    started = time.perf_counter()
    list(runner.run(iter(reads)))
    return time.perf_counter() - started


def bench_obs(fixes: int, repeats: int) -> Dict[str, object]:
    """Observability overhead: the identical stream, obs off vs on.

    Interleaves the two configurations (off, on, off, on, ...) so slow
    machine drift hits both equally, and takes the best of N each —
    the same best-of discipline the headline workloads use.
    """
    dwatch, reads = build_stream_scenario(fixes=fixes)
    _stream_elapsed_s(dwatch, reads, enabled=False)  # warmup
    _stream_elapsed_s(dwatch, reads, enabled=True)
    disabled_runs: List[float] = []
    enabled_runs: List[float] = []
    for _ in range(repeats):
        disabled_runs.append(_stream_elapsed_s(dwatch, reads, enabled=False))
        enabled_runs.append(_stream_elapsed_s(dwatch, reads, enabled=True))
    best_disabled = min(disabled_runs)
    best_enabled = min(enabled_runs)
    fix_count = max(1, fixes)
    overhead_pct = (
        (best_enabled - best_disabled) / best_disabled * 100.0
        if best_disabled > 0
        else 0.0
    )
    with obs.observed() as state:
        runner = StreamRunner(dwatch)
        list(runner.run(iter(reads)))
        series = state.registry.series_count()
    return {
        "fixes": fixes,
        "reads": len(reads),
        "repeats": repeats,
        "disabled_fix_ms": best_disabled / fix_count * 1e3,
        "enabled_fix_ms": best_enabled / fix_count * 1e3,
        "disabled_fix_ms_runs": [r / fix_count * 1e3 for r in disabled_runs],
        "enabled_fix_ms_runs": [r / fix_count * 1e3 for r in enabled_runs],
        "overhead_pct": overhead_pct,
        "metric_series": series,
    }


def _speedup(label: str, before: float, after: float, higher_is_better: bool):
    if before <= 0 or after <= 0:
        return
    ratio = after / before if higher_is_better else before / after
    print(f"  {label:<22} {before:10.2f} -> {after:10.2f}   {ratio:5.2f}x")


def compare(baseline: Dict[str, object], current: Dict[str, object]) -> None:
    """Print speedups of ``current`` over ``baseline``."""
    print("speedups vs baseline:")
    b_lat = baseline.get("latency", {})
    c_lat = current.get("latency", {})
    if b_lat and c_lat:
        _speedup(
            "mean_fix_ms",
            float(b_lat["mean_fix_ms"]),
            float(c_lat["mean_fix_ms"]),
            higher_is_better=False,
        )
    b_str = baseline.get("stream", {})
    c_str = current.get("stream", {})
    if b_str and c_str:
        _speedup(
            "fixes_per_s",
            float(b_str["fixes_per_s"]),
            float(c_str["fixes_per_s"]),
            higher_is_better=True,
        )


#: Relative slowdown tolerated by ``--compare`` before the exit code
#: flips: stage means on a 1-core CI runner jitter by several percent,
#: so the gate only trips on changes no noise band explains.
COMPARE_THRESHOLD = 0.15


def compare_records(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = COMPARE_THRESHOLD,
) -> int:
    """Diff two benchmark records; non-zero when anything regressed.

    Compares the headline latency mean/p95, streaming throughput, and
    every per-stage mean present in both records.  A metric more than
    ``threshold`` worse than the baseline is printed as a REGRESSION
    and flips the exit code; everything else prints as a delta line.
    Records from different workload sizes (smoke vs full) are not
    comparable and short-circuit to success.
    """
    if bool(baseline.get("smoke")) != bool(current.get("smoke")):
        print(
            "compare: baseline and current records use different "
            "workloads (smoke vs full); skipping the diff"
        )
        return 0
    b_lat = baseline.get("latency") or {}
    c_lat = current.get("latency") or {}
    rows: List[tuple] = []  # (label, base, cur, higher_is_better)
    for key in ("mean_fix_ms", "p95_fix_ms"):
        if key in b_lat and key in c_lat:
            rows.append((key, float(b_lat[key]), float(c_lat[key]), False))
    b_str = baseline.get("stream") or {}
    c_str = current.get("stream") or {}
    if "fixes_per_s" in b_str and "fixes_per_s" in c_str:
        rows.append(
            (
                "fixes_per_s",
                float(b_str["fixes_per_s"]),
                float(c_str["fixes_per_s"]),
                True,
            )
        )
    b_stages = b_lat.get("stage_ms") or {}
    c_stages = c_lat.get("stage_ms") or {}
    for name in sorted(set(b_stages) & set(c_stages)):
        rows.append(
            (
                f"stage {name}",
                float(b_stages[name]["mean"]),
                float(c_stages[name]["mean"]),
                False,
            )
        )
    regressions = 0
    print(f"compare vs baseline (threshold {threshold:.0%}):")
    for label, base, cur, higher_is_better in rows:
        if base <= 0.0:
            continue
        delta = (cur - base) / base
        regressed = (-delta if higher_is_better else delta) > threshold
        marker = "REGRESSION" if regressed else ""
        regressions += int(regressed)
        print(
            f"  {label:<34} {base:9.3f} -> {cur:9.3f}  "
            f"{delta:+7.1%}  {marker}"
        )
    if regressions:
        print(f"compare: {regressions} metric(s) regressed > {threshold:.0%}")
        return 1
    print("compare: no regressions beyond threshold")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI gating (one repeat, fewer fixes)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="measure observability overhead instead of the headline "
        "workloads (writes BENCH_obs.json)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the benchmark record "
        "(default: BENCH_pipeline.json, or BENCH_obs.json with --obs)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="previously written record to print speedups against",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="diff headline and per-stage numbers against a previous "
        "record; exits non-zero when any metric regresses by more "
        f"than {COMPARE_THRESHOLD:.0%}",
    )
    args = parser.parse_args(argv)
    output = args.output or ("BENCH_obs.json" if args.obs else "BENCH_pipeline.json")

    if args.obs:
        obs_fixes = 3 if args.smoke else 6
        obs_repeats = 1 if args.smoke else 5
        started = time.perf_counter()
        print(
            f"bench: obs overhead ({obs_fixes} fixes x {obs_repeats} repeats, "
            "disabled vs enabled)..."
        )
        overhead = bench_obs(obs_fixes, obs_repeats)
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
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
        return 0

    latency_fixes = 3 if args.smoke else 10
    latency_repeats = 1 if args.smoke else 5
    stream_fixes = 3 if args.smoke else 6
    stream_repeats = 1 if args.smoke else 5

    started = time.perf_counter()
    print(
        f"bench: latency workload ({latency_fixes} fixes x "
        f"{latency_repeats} repeats)..."
    )
    latency = bench_latency(latency_fixes, latency_repeats)
    print(
        f"  best mean {latency['mean_fix_ms']:.1f} ms   "
        f"p95 {latency['p95_fix_ms']:.1f} ms   "
        f"runs {[round(r, 1) for r in latency['mean_fix_ms_runs']]}"
    )
    print(
        f"bench: stream workload ({stream_fixes} fixes x "
        f"{stream_repeats} repeats)..."
    )
    stream = bench_stream(stream_fixes, stream_repeats)
    print(
        f"  best {stream['fixes_per_s']:.1f} fixes/s   "
        f"runs {[round(r, 1) for r in stream['fixes_per_s_runs']]}"
    )

    record = {
        "schema": "repro.bench.v1",
        "smoke": args.smoke,
        "elapsed_s": time.perf_counter() - started,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "batch_sizes": {
            # (reader, tag) spectra batched per call on each workload.
            "latency_pairs_per_fix": 84,
            "stream_pairs_per_reader_window": 10,
        },
        "latency": latency,
        "stream": stream,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            compare(json.load(handle), record)
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            return compare_records(json.load(handle), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
