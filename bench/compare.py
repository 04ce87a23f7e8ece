"""``python -m bench compare BASE.json... -- NEW.json...``.

One row per workload and end-to-end metric.  Runs pair up by seed.
A metric is a *regression* when the new median is worse than the base
median by more than the metric's bound in ``BENCHMARK.json``, and
*unresolved* when the base runs' own quartile spread exceeds the bound
(unless every new run reads better than every base run).  With ten or
more pairs a metric is *improved* when the new side wins at least nine
tenths of the pairs (ties count for neither) and the medians differ by
more than the base quartile distance.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from bench.stats import median, quartiles, spread

#: The ``kind`` and schema of the JSON record ``bench run`` writes.
#: Schema 2 reports timings in reference seconds (``bench/speed.py``).
RECORD_KIND = "dwatch-bench-record"
RECORD_SCHEMA = 2

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10

#: Share of pairs the new side must win for a gain.
WIN_SHARE = 0.9


class CompareError(Exception):
    """The two sides cannot be compared."""


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    base: float
    new: float
    change: float
    base_spread: float
    bound: float
    pairs: int
    wins: int
    status: str


def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Every run of the given record files."""
    runs: List[Dict[str, Any]] = []
    for path in paths:
        with open(Path(path), encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("kind") != RECORD_KIND or record.get("schema") != RECORD_SCHEMA:
            raise CompareError(f"{path} is not a benchmark record")
        runs.extend(record["runs"])
    return runs


def _shape(run: Dict[str, Any]) -> Tuple[Any, ...]:
    return (
        run["workload"],
        run["trace"],
        run["seconds"],
        json.dumps(run["params"], sort_keys=True),
    )


def _grouped(runs: Sequence[Dict[str, Any]]) -> Dict[Tuple[Any, ...], List[Dict[str, Any]]]:
    groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = defaultdict(list)
    for run in runs:
        groups[_shape(run)].append(run)
    for group in groups.values():
        group.sort(key=lambda run: run["seed"])
    return groups


def check(base: Sequence[Dict[str, Any]], new: Sequence[Dict[str, Any]]) -> None:
    """Refuse smoke-vs-full, invalid runs and unmatched seeds or parameters."""
    if not base or not new:
        raise CompareError("both sides need at least one run")
    smoke = {run["smoke"] for run in list(base) + list(new)}
    if len(smoke) > 1:
        raise CompareError("refusing to compare smoke runs with full runs")
    invalid = [
        f"{run['workload']} seed {run['seed']}"
        for run in list(base) + list(new)
        if not run.get("valid", True) or not run["correct"]
    ]
    if invalid:
        raise CompareError("invalid or incorrect runs: " + ", ".join(invalid))
    base_groups, new_groups = _grouped(base), _grouped(new)
    if set(base_groups) != set(new_groups):
        raise CompareError(
            "the two sides ran different workloads, run lengths or parameters"
        )
    for shape, runs in base_groups.items():
        seeds = [run["seed"] for run in runs]
        if seeds != [run["seed"] for run in new_groups[shape]]:
            raise CompareError(f"{shape[0]}: seeds differ between the two sides")


def compare(
    base: Sequence[Dict[str, Any]],
    new: Sequence[Dict[str, Any]],
    end_to_end: Sequence[Dict[str, Any]],
) -> List[Row]:
    """One row per workload and end-to-end metric (see the module doc)."""
    check(base, new)
    base_groups, new_groups = _grouped(base), _grouped(new)
    rows: List[Row] = []
    for shape in sorted(base_groups):
        pairs = list(zip(base_groups[shape], new_groups[shape]))
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            b = [pair[0]["e2e"][name] for pair in pairs]
            n = [pair[1]["e2e"][name] for pair in pairs]
            base_median, new_median = median(b), median(n)
            sign = 1.0 if lower else -1.0
            change = (
                sign * (new_median - base_median) / abs(base_median)
                if base_median
                else 0.0
            )
            wins = sum(1 for x, y in zip(b, n) if sign * (y - x) < 0)
            q1, q3 = quartiles(b)
            base_spread = spread(b)
            all_better = all(sign * (y - x) < 0 for x in b for y in n)
            if base_spread > metric["bound"] and not all_better:
                status = "unresolved"
            elif change > metric["bound"]:
                status = "regression"
            elif (
                len(pairs) >= MIN_PAIRS
                and wins >= WIN_SHARE * len(pairs)
                and abs(new_median - base_median) > q3 - q1
            ):
                status = "improved"
            else:
                status = "ok"
            rows.append(
                Row(
                    workload=shape[0],
                    metric=name,
                    unit=metric["unit"],
                    base=base_median,
                    new=new_median,
                    change=change,
                    base_spread=base_spread,
                    bound=metric["bound"],
                    pairs=len(pairs),
                    wins=wins,
                    status=status,
                )
            )
    return rows


def failed(rows: Sequence[Row]) -> bool:
    """A regression, or more misses (lower on-time ratio) anywhere."""
    return any(
        row.status == "regression"
        or (row.metric == "on_time_ratio" and row.new < row.base)
        for row in rows
    )


def render(rows: Sequence[Row]) -> str:
    """The comparison as a fixed-width table."""
    lines = [
        f"{'workload':<16} {'metric':<20} {'base':>10} {'new':>10} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6} {'wins':>6}  status"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<16} {row.metric:<20} {row.base:>10.4g} "
            f"{row.new:>10.4g} {row.change:>+9.2%} {row.base_spread:>7.2%} "
            f"{row.bound:>6.1%} {row.wins:>3}/{row.pairs:<2}  {row.status}"
        )
    return "\n".join(lines)
