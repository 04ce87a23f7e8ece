"""repro.stream — the online streaming engine for continuous tracking.

D-Watch is deployed as a continuous monitor: tag reads arrive as an
endless event stream from TDM antenna sweeps, and the paper's tracking
experiments (Figs. 19/21) imply sustained fix rates rather than
one-shot batch captures.  This package turns the batch pipeline into
that online service:

* :mod:`repro.stream.events` — the typed :class:`TagRead` ingest event
  and the :class:`TrackFix` output record with its :class:`FixQuality`
  stamp.
* :mod:`repro.stream.queue` — a bounded ingest queue with explicit
  backpressure policies (``block``, ``drop-oldest``, ``drop-newest``),
  a counter for every drop, and a closed state so shutdown never
  strands a blocked producer.
* :mod:`repro.stream.window` — the event-time window assembler that
  groups reads by reader/tag/sweep into snapshot windows, a drained
  batch at a time as arrays (:class:`ReadColumns`).  A complete
  window (every expected reader/tag pair has all its sweeps) closes on
  the first read past its end; any other waits for the watermark, so
  the lateness bound for out-of-order arrivals stays the upper bound.
  Each window records why it closed (``closed_by``).
* :mod:`repro.stream.covariance` — exponentially-weighted covariances
  per (reader, tag), each window folded in closed form for all pairs
  at once, so spectra refresh per window from ``R`` without
  recomputing it from scratch.
* :mod:`repro.stream.drift` — slow EWMA adaptation of the empty-area
  baseline spectra with a freeze-while-detecting guard.
* :mod:`repro.stream.health` — per-reader health tracking and the
  quarantine/recovery state machine behind graceful degradation.
* :mod:`repro.stream.supervise` — retry-with-backoff supervision of
  flaky read sources.
* :mod:`repro.stream.checkpoint` — JSON checkpoint/restore of a live
  runner (covariance bank, windows, tracker, baseline, health), proven
  bit-identical across a crash-resume.
* :mod:`repro.stream.replay` — versioned JSONL recording and replay of
  read streams.
* :mod:`repro.stream.provenance` — the per-fix audit record (readers,
  faults, checkpoint lineage), the versioned fix-log
  JSONL format behind ``repro stream --fix-log`` / ``repro
  provenance``, and the bounded recent-fix ring the ops endpoint
  serves.
* :mod:`repro.stream.retention` — TTL/size/count retention policies
  over recording and checkpoint directories (``repro retain``).
* :mod:`repro.stream.synthetic` — a synthetic read-stream driver over
  :mod:`repro.sim.measurement` for offline runs and benchmarks.
* :mod:`repro.stream.runner` — :class:`StreamRunner`, the pull-based
  loop wiring ingest -> windows -> evidence -> localize into a stream
  of fixes, instrumented through :mod:`repro.obs`.

Fault injection lives in its own package, :mod:`repro.faults`.  See
``docs/STREAMING.md`` for the architecture and the replay format, and
``docs/ROBUSTNESS.md`` for the fault model and degradation ladder.
"""

from repro.stream.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    INTEGRITY_KEY,
    QUARANTINE_SUFFIX,
    checkpoint_history_dir,
    checkpoint_id,
    checkpoint_state,
    durable_write_json,
    load_checkpoint,
    quarantine_checkpoint,
    restore_state,
    save_checkpoint,
    seal_state,
)
from repro.stream.covariance import CovarianceBank, EwCovariance
from repro.stream.drift import BaselineDriftTracker
from repro.stream.events import QUALITY_LEVELS, FixQuality, TagRead, TrackFix
from repro.stream.health import (
    HEALTH_STATES,
    HealthConfig,
    HealthTracker,
    ReaderHealth,
)
from repro.stream.provenance import (
    FIXLOG_KIND,
    FIXLOG_SCHEMA,
    READER_ROLES,
    FixLogHeader,
    FixLogWriter,
    FixProvenance,
    LoggedFix,
    ProvenanceRing,
    ReaderProvenance,
    read_fix_log,
    read_fix_log_header,
    write_fix_log,
)
from repro.stream.queue import DROP_POLICIES, BoundedReadQueue
from repro.stream.retention import (
    RETAINABLE_KINDS,
    Artefact,
    PlannedDeletion,
    RetentionPlan,
    RetentionPolicy,
    apply_retention,
    plan_retention,
    scan_artefacts,
    sniff_kind,
)
from repro.stream.replay import (
    RecordingHeader,
    read_header,
    read_recording,
    write_recording,
)
from repro.stream.runner import StreamConfig, StreamRunner
from repro.stream.supervise import RetryPolicy, supervised_reads
from repro.stream.synthetic import SyntheticStreamConfig, synthetic_reads
from repro.stream.window import (
    ReadColumns,
    SnapshotWindow,
    WindowAssembler,
    WindowConfig,
    sweep_slot,
)

__all__ = [
    "Artefact",
    "BaselineDriftTracker",
    "BoundedReadQueue",
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA",
    "CovarianceBank",
    "INTEGRITY_KEY",
    "QUARANTINE_SUFFIX",
    "DROP_POLICIES",
    "EwCovariance",
    "FIXLOG_KIND",
    "FIXLOG_SCHEMA",
    "FixLogHeader",
    "FixLogWriter",
    "FixProvenance",
    "FixQuality",
    "HEALTH_STATES",
    "HealthConfig",
    "HealthTracker",
    "LoggedFix",
    "PlannedDeletion",
    "ProvenanceRing",
    "QUALITY_LEVELS",
    "READER_ROLES",
    "RETAINABLE_KINDS",
    "ReadColumns",
    "ReaderHealth",
    "ReaderProvenance",
    "RecordingHeader",
    "RetentionPlan",
    "RetentionPolicy",
    "RetryPolicy",
    "SnapshotWindow",
    "StreamConfig",
    "StreamRunner",
    "SyntheticStreamConfig",
    "TagRead",
    "TrackFix",
    "WindowAssembler",
    "WindowConfig",
    "apply_retention",
    "checkpoint_history_dir",
    "checkpoint_id",
    "checkpoint_state",
    "durable_write_json",
    "load_checkpoint",
    "plan_retention",
    "quarantine_checkpoint",
    "read_fix_log",
    "read_fix_log_header",
    "read_header",
    "read_recording",
    "restore_state",
    "save_checkpoint",
    "scan_artefacts",
    "seal_state",
    "sniff_kind",
    "supervised_reads",
    "sweep_slot",
    "synthetic_reads",
    "write_fix_log",
    "write_recording",
]
