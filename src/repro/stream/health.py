"""Per-reader health tracking and the quarantine state machine.

A deployed fleet is never uniformly healthy: readers drop off LLRP,
hub elements die, PLL re-locks glitch phases.  The paper's likelihood
product (Eq. 15) multiplies every reader's evidence together, so one
reader feeding garbage quietly poisons every fix.  The tracker watches
each reader's contribution window by window and walks it through a
three-state ladder:

``healthy``
    Contributing evidence normally.
``degraded``
    Missed its last window(s); still trusted, but on notice.
``quarantined``
    Missed ``stale_windows`` consecutive windows (or kept violating
    contracts): its spectra are excluded from the likelihood product
    until it proves itself again.  Recovery requires
    ``recovery_windows`` consecutive contributing windows — a probation
    that also gives the exponentially-weighted covariance bank time to
    flush the stale outage-era estimate before the reader's evidence
    counts again.

Every transition and violation is surfaced through :mod:`repro.obs`
(counters ``stream.health.quarantines`` / ``.recoveries`` /
``.violations``, per-reader gauges ``stream.health.reader.<name>``)
and through the ``repro health`` CLI view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.stream.events import TagRead
from repro.stream.window import ReadColumns

#: Reader health states, healthiest first.
HEALTH_STATES = ("healthy", "degraded", "quarantined")


def _as_number(value: object) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigurationError(f"expected a number in health state, got {value!r}")


def _as_int(value: object) -> int:
    return int(_as_number(value))

#: Gauge values per state (1 healthy, 0 quarantined) so a metrics
#: snapshot shows the fleet at a glance.
_STATE_SCORE = {"healthy": 1.0, "degraded": 0.5, "quarantined": 0.0}


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds of the quarantine state machine.

    Parameters
    ----------
    stale_windows:
        Consecutive missed windows before a reader is quarantined.
    recovery_windows:
        Consecutive contributing windows a quarantined reader must
        deliver before it is trusted again.
    """

    stale_windows: int = 2
    recovery_windows: int = 2

    def __post_init__(self) -> None:
        if self.stale_windows < 1:
            raise ConfigurationError("stale_windows must be at least 1")
        if self.recovery_windows < 1:
            raise ConfigurationError("recovery_windows must be at least 1")


@dataclass
class ReaderHealth:
    """The lifetime health record of one reader."""

    name: str
    state: str = "healthy"
    reads: int = 0
    last_read_s: Optional[float] = None
    windows_seen: int = 0
    windows_contributed: int = 0
    violations: int = 0
    quarantines: int = 0
    recoveries: int = 0
    consecutive_missing: int = 0
    consecutive_present: int = 0

    @property
    def read_rate(self) -> float:
        """Reads per observed window (0 before any window closes)."""
        if self.windows_seen == 0:
            return 0.0
        return self.reads / self.windows_seen

    @property
    def quarantined(self) -> bool:
        """Whether this reader's evidence is currently excluded."""
        return self.state == "quarantined"


class HealthTracker:
    """Tracks reader health across a stream's windows.

    The runner feeds it two signals: every accepted read
    (:meth:`note_reads`) and, per closed window, which readers
    contributed usable spectra (:meth:`observe_window`) plus any
    per-reader processing violations (:meth:`note_violation`).  From
    those it maintains the quarantine set the runner filters evidence
    by.
    """

    def __init__(
        self,
        reader_names: Iterable[str],
        config: Optional[HealthConfig] = None,
    ) -> None:
        names = list(reader_names)
        if not names:
            raise ConfigurationError("health tracker needs at least one reader")
        self.config = config or HealthConfig()
        self._readers: Dict[str, ReaderHealth] = {
            name: ReaderHealth(name=name) for name in sorted(names)
        }

    @classmethod
    def for_readers(
        cls,
        readers: Mapping[str, object],
        config: Optional[HealthConfig] = None,
    ) -> "HealthTracker":
        """Build from any name-keyed reader mapping (e.g. ``DWatch.readers``)."""
        return cls(readers.keys(), config)

    @property
    def total(self) -> int:
        """Number of tracked readers."""
        return len(self._readers)

    @property
    def healthy_count(self) -> int:
        """Readers currently *not* quarantined (healthy or degraded)."""
        return sum(1 for r in self._readers.values() if not r.quarantined)

    def note_read(self, read: TagRead) -> None:
        """Account one accepted read (rate + staleness bookkeeping)."""
        self.note_reads(ReadColumns.of([read], [read.reader_name]))

    def note_reads(self, reads: ReadColumns) -> None:
        """:meth:`note_read` over a whole drained batch, in columns.

        One ``bincount`` for the read counts and one maximum per reader
        for the staleness clock; reads of untracked readers are ignored.
        """
        known = reads.reader >= 0
        counts = np.bincount(reads.reader[known], minlength=len(reads.readers))
        for code in np.flatnonzero(counts):
            record = self._readers.get(reads.readers[code])
            if record is None:
                continue
            record.reads += int(counts[code])
            latest = float(reads.time_s[reads.reader == code].max())
            if record.last_read_s is None or latest > record.last_read_s:
                record.last_read_s = latest

    def note_violation(self, reader_name: str, error: Exception) -> None:
        """Account one per-reader processing failure (contract, DSP...).

        The violating window also counts as missed for the reader (the
        runner leaves it out of ``contributed``), so repeated
        violations walk the reader into quarantine through the same
        staleness path an outage does.
        """
        record = self._readers.get(reader_name)
        if record is None:
            return
        record.violations += 1
        obs.count("stream.health.violations")

    def observe_window(self, contributed: Iterable[str]) -> None:
        """Advance the state machine by one closed window.

        ``contributed`` names the readers that delivered usable spectra
        for the window; every other tracked reader is counted missing.
        """
        present = set(contributed)
        for record in self._readers.values():
            record.windows_seen += 1
            if record.name in present:
                self._mark_present(record)
            else:
                self._mark_missing(record)
            obs.gauge(
                f"stream.health.reader.{record.name}",
                _STATE_SCORE[record.state],
            )

    def quarantined(self) -> FrozenSet[str]:
        """Names of the readers currently excluded from evidence."""
        return frozenset(
            name for name, r in self._readers.items() if r.quarantined
        )

    def report(self) -> List[ReaderHealth]:
        """Per-reader records, sorted by name (stable for CLI output)."""
        return [self._readers[name] for name in sorted(self._readers)]

    def state_of(self, reader_name: str) -> str:
        """Current state of one reader."""
        record = self._readers.get(reader_name)
        if record is None:
            raise ConfigurationError(f"unknown reader {reader_name!r}")
        return record.state

    def export_state(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready per-reader state, for streaming checkpoints."""
        return {
            name: {
                "state": r.state,
                "reads": r.reads,
                "last_read_s": r.last_read_s,
                "windows_seen": r.windows_seen,
                "windows_contributed": r.windows_contributed,
                "violations": r.violations,
                "quarantines": r.quarantines,
                "recoveries": r.recoveries,
                "consecutive_missing": r.consecutive_missing,
                "consecutive_present": r.consecutive_present,
            }
            for name, r in self._readers.items()
        }

    def import_state(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Restore per-reader state exported by :meth:`export_state`."""
        for name, fields_ in state.items():
            record = self._readers.get(name)
            if record is None:
                raise ConfigurationError(
                    f"checkpointed health state names unknown reader {name!r}"
                )
            record.state = str(fields_["state"])
            if record.state not in HEALTH_STATES:
                raise ConfigurationError(
                    f"unknown health state {record.state!r} for {name!r}"
                )
            record.reads = _as_int(fields_["reads"])
            raw_last = fields_["last_read_s"]
            record.last_read_s = (
                None if raw_last is None else float(_as_number(raw_last))
            )
            record.windows_seen = _as_int(fields_["windows_seen"])
            record.windows_contributed = _as_int(fields_["windows_contributed"])
            record.violations = _as_int(fields_["violations"])
            record.quarantines = _as_int(fields_["quarantines"])
            record.recoveries = _as_int(fields_["recoveries"])
            record.consecutive_missing = _as_int(fields_["consecutive_missing"])
            record.consecutive_present = _as_int(fields_["consecutive_present"])

    def _mark_present(self, record: ReaderHealth) -> None:
        record.windows_contributed += 1
        record.consecutive_missing = 0
        record.consecutive_present += 1
        if record.quarantined:
            if record.consecutive_present >= self.config.recovery_windows:
                record.state = "healthy"
                record.recoveries += 1
                obs.count("stream.health.recoveries")
        elif record.state == "degraded":
            record.state = "healthy"

    def _mark_missing(self, record: ReaderHealth) -> None:
        record.consecutive_present = 0
        record.consecutive_missing += 1
        if record.quarantined:
            return
        if record.consecutive_missing >= self.config.stale_windows:
            record.state = "quarantined"
            record.quarantines += 1
            obs.count("stream.health.quarantines")
        else:
            record.state = "degraded"
