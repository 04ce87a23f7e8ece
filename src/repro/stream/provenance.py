"""Per-fix provenance: which readers, faults and checkpoints made a fix.

A tracker that only emits positions is not auditable: when a fix
drifts in production you need to know *what produced it* — which
readers' evidence entered the likelihood product, what the fleet's
health ladder looked like, which chaos faults were active over the
window, and which checkpoint lineage the process resumed from.  This
module is that record:

* :class:`ReaderProvenance` — one reader's role in one fix
  (``contributed`` / ``excluded`` / ``failed`` / ``silent``) plus its
  health-ladder state when the window closed.
* :class:`FixProvenance` — the full per-fix record the runner attaches
  to every :class:`~repro.stream.events.TrackFix`.  It is metadata:
  it never participates in fix equality (``compare=False`` on the
  event field) and costs nothing numerically — every field is read
  off state the runner already maintains.
* **Fix log** — a versioned JSONL serialization (``kind``
  ``dwatch-fixes``, schema 1, same header discipline as the
  record/replay format) written by ``repro stream --fix-log`` and read
  back by the ``repro provenance`` CLI.
* :class:`ProvenanceRing` — the bounded, thread-safe buffer of recent
  records behind the ops endpoint's ``/provenance/recent``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.sanitizer import sanitized_lock
from repro.errors import RecordingError
from repro.stream.events import FixQuality, TrackFix

#: Format marker so future revisions can migrate old fix logs.
FIXLOG_SCHEMA = 1

#: The ``kind`` tag distinguishing fix logs from other JSONL files.
FIXLOG_KIND = "dwatch-fixes"

#: How a reader related to one fix.  ``contributed`` — its spectra
#: entered the likelihood product; ``excluded`` — it produced spectra
#: but was quarantined out; ``failed`` — its spectral chain raised this
#: window; ``silent`` — it delivered no usable spectra at all.
READER_ROLES: Tuple[str, ...] = ("contributed", "excluded", "failed", "silent")

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ReaderProvenance:
    """One reader's role in one fix."""

    name: str
    health: str
    role: str

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready representation."""
        return {"name": self.name, "health": self.health, "role": self.role}

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ReaderProvenance":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(record["name"]),
            health=str(record["health"]),
            role=str(record["role"]),
        )


@dataclass(frozen=True)
class FixProvenance:
    """Everything that went into one :class:`TrackFix`.

    Attributes
    ----------
    window_index:
        The producing window's sequence number.
    readers:
        Per-reader role and health, sorted by reader name.
    active_faults:
        Fault kinds whose injection window overlapped this fix window
        (empty outside chaos runs).
    watermark_s:
        The assembler's event-time watermark when the window closed.  A
        window closed as complete can close while the watermark is
        still below its end.
    lateness_s:
        The assembler's out-of-order admission bound.
    checkpoint_lineage:
        Identities of the checkpoints this run restored from, oldest
        first (empty for a never-restored process).
    closed_by:
        Why the window closed: ``"complete"`` (every expected pair was
        in at the first read past its end), ``"watermark"`` (the
        lateness bound ran out) or ``"flush"`` (end of stream);
        ``None`` in logs written before the field existed.
    """

    window_index: int
    readers: Tuple[ReaderProvenance, ...] = ()
    active_faults: Tuple[str, ...] = ()
    watermark_s: Optional[float] = None
    lateness_s: float = 0.0
    checkpoint_lineage: Tuple[str, ...] = ()
    closed_by: Optional[str] = None

    @property
    def contributing(self) -> Tuple[str, ...]:
        """Names of the readers whose evidence entered the fix."""
        return tuple(
            r.name for r in self.readers if r.role == "contributed"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order via sort_keys)."""
        return {
            "window_index": self.window_index,
            "readers": [r.to_dict() for r in self.readers],
            "active_faults": list(self.active_faults),
            "watermark_s": self.watermark_s,
            "lateness_s": self.lateness_s,
            "checkpoint_lineage": list(self.checkpoint_lineage),
            "closed_by": self.closed_by,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "FixProvenance":
        """Inverse of :meth:`to_dict`."""
        raw_watermark = record.get("watermark_s")
        raw_closed_by = record.get("closed_by")
        return cls(
            window_index=int(record["window_index"]),
            readers=tuple(
                ReaderProvenance.from_dict(r) for r in record.get("readers", [])
            ),
            active_faults=tuple(
                str(k) for k in record.get("active_faults", [])
            ),
            watermark_s=(
                None if raw_watermark is None else float(raw_watermark)
            ),
            lateness_s=float(record.get("lateness_s", 0.0)),
            checkpoint_lineage=tuple(
                str(c) for c in record.get("checkpoint_lineage", [])
            ),
            closed_by=None if raw_closed_by is None else str(raw_closed_by),
        )


# -- the fix log ----------------------------------------------------------


@dataclass(frozen=True)
class FixLogHeader:
    """The first line of a fix log."""

    schema: int = FIXLOG_SCHEMA
    environment: Optional[str] = None
    seed: Optional[int] = None
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """The JSON object written as line 1."""
        record: Dict[str, Any] = {"schema": self.schema, "kind": FIXLOG_KIND}
        if self.environment is not None:
            record["environment"] = self.environment
        if self.seed is not None:
            record["seed"] = self.seed
        if self.description:
            record["description"] = self.description
        return record


@dataclass(frozen=True)
class LoggedFix:
    """One fix as read back from a fix log (plain data, no geometry)."""

    index: int
    time_s: float
    position: Optional[Tuple[float, float]]
    predicted_only: bool
    quality_level: str
    confidence: float
    provenance: Optional[FixProvenance]


def fix_record(fix: TrackFix) -> Dict[str, Any]:
    """The JSON object one fix serializes to."""
    record: Dict[str, Any] = {
        "index": fix.index,
        "t": fix.time_s,
        "position": (
            None
            if fix.position is None
            else [fix.position.x, fix.position.y]
        ),
        "predicted_only": fix.predicted_only,
        "quality": fix.quality.level,
        "confidence": fix.quality.confidence,
    }
    if fix.provenance is not None:
        record["provenance"] = fix.provenance.to_dict()
    return record


class FixLogWriter:
    """Streams fixes into a versioned JSONL fix log.

    Opens eagerly and writes the header immediately, so a crash
    mid-run still leaves a parseable prefix (the same crash-artefact
    discipline the read-recording format follows).  Use as a context
    manager or call :meth:`close` explicitly.
    """

    def __init__(
        self, path: PathLike, header: Optional[FixLogHeader] = None
    ) -> None:
        self.path = path
        self.written = 0
        try:
            self._handle = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise RecordingError(
                f"cannot write fix log {str(path)!r}: {exc}"
            ) from exc
        meta = header or FixLogHeader()
        self._handle.write(json.dumps(meta.to_dict(), sort_keys=True) + "\n")

    def append(self, fix: TrackFix) -> None:
        """Write one fix line."""
        self._handle.write(json.dumps(fix_record(fix), sort_keys=True) + "\n")
        self.written += 1

    def close(self) -> None:
        """Flush and close the log."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "FixLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_fix_log(
    path: PathLike,
    fixes: Iterable[TrackFix],
    header: Optional[FixLogHeader] = None,
) -> int:
    """Write a whole fix iterable; returns the number of fixes written."""
    with FixLogWriter(path, header) as writer:
        for fix in fixes:
            writer.append(fix)
        return writer.written


def read_fix_log_header(path: PathLike) -> FixLogHeader:
    """Parse and validate a fix log's header line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
    except OSError as exc:
        raise RecordingError(
            f"cannot open fix log {str(path)!r}: {exc}"
        ) from exc
    if not first.strip():
        raise RecordingError(f"fix log {str(path)!r} is empty (no header line)")
    return _parse_fixlog_header(first, path)


def read_fix_log(path: PathLike) -> Iterator[LoggedFix]:
    """Yield every fix of a fix log, lazily, in file order.

    Raises
    ------
    RecordingError
        On a missing file, bad header, unknown schema, malformed or
        truncated line — identifying the line number, exactly like the
        read-recording reader.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise RecordingError(
            f"cannot open fix log {str(path)!r}: {exc}"
        ) from exc
    return _read_fixlog_body(handle, path)


def _parse_fixlog_header(line: str, path: PathLike) -> FixLogHeader:
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise RecordingError(
            f"fix log {str(path)!r} line 1: header is not valid JSON "
            "(truncated or foreign file?)"
        ) from exc
    if not isinstance(data, dict) or data.get("kind") != FIXLOG_KIND:
        raise RecordingError(
            f"fix log {str(path)!r} line 1: not a {FIXLOG_KIND!r} header"
        )
    if data.get("schema") != FIXLOG_SCHEMA:
        raise RecordingError(
            f"fix log {str(path)!r}: unsupported schema "
            f"{data.get('schema')!r} (this build reads schema {FIXLOG_SCHEMA})"
        )
    seed = data.get("seed")
    return FixLogHeader(
        schema=int(data["schema"]),
        environment=data.get("environment"),
        seed=int(seed) if seed is not None else None,
        description=str(data.get("description", "")),
    )


def _read_fixlog_body(handle: Any, path: PathLike) -> Iterator[LoggedFix]:
    with handle:
        first = handle.readline()
        if not first.strip():
            raise RecordingError(
                f"fix log {str(path)!r} is empty (no header line)"
            )
        _parse_fixlog_header(first, path)
        for number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                raw_position = data["position"]
                raw_provenance = data.get("provenance")
                yield LoggedFix(
                    index=int(data["index"]),
                    time_s=float(data["t"]),
                    position=(
                        None
                        if raw_position is None
                        else (
                            float(raw_position[0]),
                            float(raw_position[1]),
                        )
                    ),
                    predicted_only=bool(data["predicted_only"]),
                    quality_level=str(data["quality"]),
                    confidence=float(data["confidence"]),
                    provenance=(
                        None
                        if raw_provenance is None
                        else FixProvenance.from_dict(raw_provenance)
                    ),
                )
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                raise RecordingError(
                    f"fix log {str(path)!r} line {number}: malformed or "
                    f"truncated fix record ({exc})"
                ) from exc


# -- the recent-provenance ring -------------------------------------------


@dataclass
class _RingEntry:
    """One retained fix summary (internal)."""

    record: Dict[str, Any] = field(default_factory=dict)


class ProvenanceRing:
    """Bounded, thread-safe buffer of the most recent fix records.

    The streaming loop appends; the ops endpoint's
    ``/provenance/recent`` handler snapshots from its serving thread.
    Memory is bounded by ``capacity`` regardless of run length.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise RecordingError("provenance ring capacity must be >= 1")
        self.capacity = capacity
        self._lock = sanitized_lock("stream.provenance.ring")
        self._entries: List[Dict[str, Any]] = []

    def push(self, fix: TrackFix) -> None:
        """Retain one fix (evicting the oldest beyond capacity)."""
        self.push_record(fix_record(fix))

    def push_record(self, record: Dict[str, Any]) -> None:
        """Retain an already-serialized fix record.

        The seam for feeds that only ever see the wire form — a
        process-mode shard receives its child's fixes as records, not
        as :class:`TrackFix` objects.
        """
        with self._lock:
            self._entries.append(record)
            if len(self._entries) > self.capacity:
                del self._entries[0]

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most recent records, newest last; ``limit`` caps the count."""
        with self._lock:
            entries = list(self._entries)
        if limit is not None and limit >= 0:
            entries = entries[-limit:]
        return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def quality_from_logged(fix: LoggedFix) -> FixQuality:
    """Minimal :class:`FixQuality` view of a logged fix (level only)."""
    return FixQuality(level=fix.quality_level, confidence=fix.confidence)
