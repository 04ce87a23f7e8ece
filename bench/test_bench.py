"""Checks of the benchmark harness itself.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench -q``.
The smoke run takes about 40 s; everything else is instant.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from bench import compare
from bench.inproc import Phase
from bench.metrics import ROOT, Observations, catalogue, classify
from bench.speed import REFERENCE_S

SPEC = catalogue()


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Any]:
    out = tmp_path_factory.mktemp("records")
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    (path,) = out.glob("record-*.json")
    record = json.loads(path.read_text())
    record["stdout"] = done.stdout
    return record


def test_smoke_run_reports_every_metric(smoke_record: Dict[str, Any]) -> None:
    assert smoke_record["smoke"] is True
    runs = smoke_record["runs"]
    assert [run["workload"] for run in runs] == [w["name"] for w in SPEC["workloads"]]
    for run in runs:
        for group, key in (("end_to_end", "e2e"), ("per_layer", "per_layer")):
            for metric in SPEC[group]:
                value = run[key][metric["name"]]
                assert math.isfinite(value), (run["workload"], metric["name"])
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert f"{metric['name']}" in smoke_record["stdout"]
        assert run["attempted"] > 0
        assert run["per_layer"]["trace.unattributed_share"] <= 0.10
    last = json.loads(smoke_record["stdout"].strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0


def test_traced_fixes_equal_untraced_fixes(smoke_record: Dict[str, Any]) -> None:
    # Every closed-loop run compares each traced-phase output with the
    # untraced phase's output for the same input; any difference would
    # be listed as a problem and clear ``correct``.
    for run in smoke_record["runs"]:
        assert run["correct"], run["problems"]
        assert run["samples"]["traced_fixes"] > 0


def test_miss_accounting_counts_withheld_and_altered_fixes() -> None:
    fix = {"index": 3, "position": [1.0, 2.0], "raw": [1.0, 2.1]}
    altered = dict(fix, position=[1.0, 2.5])
    observations = Observations(setups_s=[1.0], fixes_per_s=1.0, latencies_ms=[])
    observations.note(classify(fix, fix, 40.0))
    observations.note(classify(fix, None, None))
    observations.note(classify(fix, altered, 40.0))
    observations.note(classify(fix, fix, 900.0))
    assert observations.outcomes == {"hit": 1, "missing": 1, "different": 1, "late": 1}
    assert observations.failed == 3
    assert observations.metrics()["on_time_ratio"] == pytest.approx(0.25)


def test_closed_loop_timings_are_scaled_to_the_reference_speed() -> None:
    fast, slow = Phase(), Phase()
    for phase, slowdown in ((fast, 1.0), (slow, 1.7)):
        for repeat_slowdown in (slowdown, 1.2 * slowdown):
            kernel = REFERENCE_S * repeat_slowdown
            phase.serve(0, 0.010 * repeat_slowdown, kernel)
            phase.samples.append((0, None, 0.008 * repeat_slowdown, 0.0, kernel))
    assert slow.seconds_per_fix == pytest.approx(fast.seconds_per_fix)
    assert fast.seconds_per_fix == pytest.approx(0.010)
    assert slow.latencies_ms() == pytest.approx([8.0])


#: An end-to-end metric whose bound a 20 % change exceeds.
TIGHT = next(m for m in SPEC["end_to_end"] if m["bound"] < 0.2)


def _runs(worse: float = 0.0, smoke: bool = False) -> List[Dict[str, Any]]:
    """Ten synthetic runs; ``worse`` degrades :data:`TIGHT` by that share."""
    sign = 1.0 if TIGHT["better"] == "lower" else -1.0
    runs = []
    for seed in range(1, 11):
        e2e = {m["name"]: 100.0 + seed * 0.01 for m in SPEC["end_to_end"]}
        e2e[TIGHT["name"]] *= 1.0 + sign * worse
        runs.append(
            {
                "workload": "serve-hall-10hz", "seed": seed, "trace": 0,
                "seconds": 10.0, "smoke": smoke, "params": {"rate_hz": 10.0},
                "correct": True, "valid": True, "e2e": e2e,
            }
        )
    return runs


def test_compare_flags_a_twenty_percent_regression() -> None:
    rows = compare.compare(_runs(), _runs(worse=0.2), SPEC["end_to_end"])
    status = {row.metric: row.status for row in rows}
    assert status.pop(TIGHT["name"]) == "regression"
    assert set(status.values()) == {"ok"}
    assert compare.failed(rows)
    improved = compare.compare(_runs(worse=0.2), _runs(), SPEC["end_to_end"])
    assert {r.metric: r.status for r in improved}[TIGHT["name"]] == "improved"
    assert not compare.failed(improved)


def test_compare_refuses_smoke_against_full_and_unmatched_seeds() -> None:
    with pytest.raises(compare.CompareError, match="smoke"):
        compare.compare(_runs(), _runs(smoke=True), SPEC["end_to_end"])
    shifted = _runs()
    for run in shifted:
        run["seed"] += 100
    with pytest.raises(compare.CompareError, match="seeds"):
        compare.compare(_runs(), shifted, SPEC["end_to_end"])


def test_compare_reports_unresolved_when_the_base_spread_exceeds_the_bound() -> None:
    base = _runs()
    for run in base:
        run["e2e"][TIGHT["name"]] *= 1.0 + TIGHT["bound"] * (run["seed"] % 4)
    rows = compare.compare(base, _runs(), SPEC["end_to_end"])
    assert {r.metric: r.status for r in rows}[TIGHT["name"]] == "unresolved"


def test_without_the_source_tree_the_benchmark_fails_without_a_result(
    tmp_path: Path,
) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    environment = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table-3t",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=environment,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
