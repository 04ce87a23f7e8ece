"""End-to-end metrics, miss accounting and the metric catalogue.

``BENCHMARK.json`` at the repository root is the catalogue: every
metric's unit, direction and regression bound, and the default run
length.  This module reads it and turns a run's raw observations into
the end-to-end metrics it lists.
"""

from __future__ import annotations

import json
import math
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.stream.provenance import fix_record

from bench.stats import median, percentile

ROOT = Path(__file__).resolve().parent.parent

#: A fix emitted later than this after its window's last read is a miss.
LATE_MS = 500.0


def catalogue() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fix_output(fix: Any) -> Dict[str, Any]:
    """What a stream fix shows its user, as JSON-ready data.

    The fix-log record without provenance (metadata that may name
    restarts), plus ``raw``: the localizer's estimate before tracking,
    which the accuracy metrics score.
    """
    output = {k: v for k, v in fix_record(fix).items() if k != "provenance"}
    best = fix.raw_estimates[0].position if fix.raw_estimates else None
    output["raw"] = None if best is None else [best.x, best.y]
    return output


def classify(
    reference: Optional[Mapping[str, Any]],
    observed: Optional[Mapping[str, Any]],
    latency_ms: Optional[float],
) -> str:
    """``hit``, or why one expected fix is a miss.

    ``missing`` (no fix, or refused/dropped work), ``different`` (the
    fix differs from the reference computation) or ``late`` (emitted
    more than :data:`LATE_MS` after its window's last read).
    """
    if observed is None or latency_ms is None:
        return "missing"
    if reference is None or observed != reference:
        return "different"
    if latency_ms > LATE_MS:
        return "late"
    return "hit"


#: A located fix closer than this to the truth counts as accurate.
ACCURATE_CM = 30.0


@dataclass
class Observations:
    """What one untraced phase saw, before it becomes metrics."""

    setups_s: List[float]
    fixes_per_s: float
    latencies_ms: List[float]
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: Per target and window: distance of the localizer's estimate from
    #: the truth (cm), ``None`` when nothing was located.
    errors_cm: List[Optional[float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes.get("hit", 0)

    @property
    def located(self) -> List[float]:
        return [error for error in self.errors_cm if error is not None]

    def note(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def metrics(self) -> Dict[str, float]:
        """The end-to-end metrics of ``BENCHMARK.json``."""
        attempted, targets = self.attempted, len(self.errors_cm)
        located = self.located
        return {
            "setup_s": median(self.setups_s),
            "fixes_per_s": self.fixes_per_s,
            "read_to_fix_ms_p50": percentile(self.latencies_ms, 50),
            "read_to_fix_ms_p90": percentile(self.latencies_ms, 90),
            "on_time_ratio": (
                (attempted - self.failed) / attempted if attempted else 0.0
            ),
            "within_30cm_ratio": (
                sum(1 for error in located if error < ACCURATE_CM) / targets
                if targets
                else 0.0
            ),
            "located_ratio": len(located) / targets if targets else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def error_metrics(self) -> Dict[str, float]:
        """Error percentiles of the located fixes (per-layer metrics)."""
        located = self.located
        return {
            "core.localizer.error_cm_p50": percentile(located, 50),
            "core.localizer.error_cm_p90": percentile(located, 90),
        }

    def samples(self) -> Dict[str, int]:
        """Sample counts behind the percentile and ratio metrics."""
        return {
            **{f"outcome_{name}": count for name, count in self.outcomes.items()},
            "setups": len(self.setups_s),
            "read_to_fix": len(self.latencies_ms),
            "targets": len(self.errors_cm),
            "located": len(self.located),
        }


def distance_cm(position: Optional[Sequence[float]], truth: Any) -> Optional[float]:
    """Distance of an ``(x, y)`` estimate from a true point, cm."""
    if position is None:
        return None
    x, y = position
    return 100.0 * math.hypot(x - truth.x, y - truth.y)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def shares_uncovered(latencies_s: Sequence[float], covered_s: Sequence[float]) -> float:
    """Median share of read-to-fix time no span or measured wait covers."""
    shares = [
        1.0 - covered / latency
        for latency, covered in zip(latencies_s, covered_s)
        if latency > 0.0
    ]
    return median(shares)
