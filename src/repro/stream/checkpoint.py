"""Checkpoint/restore of a live :class:`~repro.stream.runner.StreamRunner`.

A continuous monitor that crashes loses more than uptime: the
covariance bank holds minutes of exponentially-weighted history, the
drift tracker has adapted the baseline, and the Kalman tracker carries
the target's velocity.  Rebuilding those from scratch after a restart
changes every subsequent fix.  This module serializes *all* mutable
stream state to a single JSON document so a restarted process continues
**bit-identically** — the crash-resume equivalence is pinned by a
tier-1 test, which is only possible because Python's ``repr``-based
JSON float round-trip is exact.

Format (``schema`` 1, ``kind`` ``dwatch-checkpoint``):

* ``fingerprint`` — reader names, window length and covariance decay of
  the deployment; restoring onto a mismatched runner raises
  :class:`~repro.errors.CheckpointError` rather than silently
  corrupting fixes.
* ``queue`` — still-undrained reads plus the lifetime counters.
* ``assembler`` — pending window cells, watermark, emitted cursor and
  the late/torn/duplicate counters, plus two optional keys for the
  completeness close: ``expected`` (the pairs the next window must
  complete; absent or ``null`` means the next window waits for the
  watermark) and ``judged_through`` (the last window already judged).
* ``bank`` — per-(reader, tag) weighted sums, weights and update
  counts (complex matrices as ``[re, im]`` pairs).
* ``tracker`` — Kalman state vector, covariance and last update time.
* ``baseline`` — the (possibly drift-adapted) baseline spectrum sets.
* ``drift`` / ``health`` / counters — the remaining run bookkeeping.

Complex numbers are stored as two-element ``[re, im]`` lists; integer
dictionary keys as decimal strings (JSON objects only key on strings).

Durability and corruption discipline (added for the serving fleet's
chaos drills):

* Files are written via :func:`durable_write_json` — temp sibling,
  ``fsync`` of the data, atomic ``os.replace``, then ``fsync`` of the
  directory — so a host crash can never leave a zero-length or
  half-written "latest" checkpoint.
* Written documents carry an ``integrity`` digest (the
  :func:`checkpoint_id` of the rest of the document).  A bit-flip that
  still parses as JSON is caught on load instead of silently
  corrupting every later fix; documents from before the digest existed
  load unverified (legacy).
* A corrupt file is never deleted: :func:`quarantine_checkpoint`
  renames it to a ``.corrupt`` sibling so an operator can autopsy it,
  and the serving supervisor walks the on-disk lineage (see
  :func:`checkpoint_history_dir`) back to the newest verifiable
  ancestor.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro import obs
from repro.core.baseline import SpectrumSet
from repro.dsp.spectrum import AngularSpectrum
from repro.errors import CheckpointError, EstimationError, StreamError
from repro.utils.arrays import ComplexArray, FloatArray
from repro.stream.events import TagRead
from repro.stream.queue import QueueStats

if TYPE_CHECKING:
    from repro.stream.runner import StreamRunner

#: Format marker so future revisions can migrate old checkpoints.
CHECKPOINT_SCHEMA = 1

#: The ``kind`` tag distinguishing checkpoints from other JSON files.
CHECKPOINT_KIND = "dwatch-checkpoint"

#: Key carrying the content digest in *persisted* checkpoint files.
#: Never part of the in-memory state document: :func:`checkpoint_id`
#: ignores it and :func:`load_checkpoint` strips it after verifying.
INTEGRITY_KEY = "integrity"

#: Suffix a corrupt checkpoint is renamed to (never deleted).
QUARANTINE_SUFFIX = ".corrupt"

PathLike = Union[str, Path]


def checkpoint_state(runner: "StreamRunner") -> Dict[str, Any]:
    """Capture every piece of mutable state of a runner (JSON-ready)."""
    items, stats = runner.queue.export_state()
    tracker_state: Optional[Dict[str, Any]] = None
    if runner.tracker is not None and runner.tracker.initialized:
        tracker_state = {
            "state": [float(v) for v in runner.tracker._state],
            "covariance": _real_matrix(runner.tracker._covariance),
            "last_time": runner.tracker._last_time,
        }
    baseline: Optional[List[Dict[str, Any]]] = None
    if runner.dwatch.baseline is not None:
        baseline = [_spectrum_set(s) for s in runner.dwatch.baseline]
    return {
        "schema": CHECKPOINT_SCHEMA,
        "kind": CHECKPOINT_KIND,
        "fingerprint": _fingerprint(runner),
        "queue": {
            "items": [_read(r) for r in items],
            "stats": {
                "offered": stats.offered,
                "accepted": stats.accepted,
                "dropped_oldest": stats.dropped_oldest,
                "dropped_newest": stats.dropped_newest,
                "block_timeouts": stats.block_timeouts,
            },
        },
        "assembler": _assembler_state(runner),
        "bank": _bank_state(runner),
        "tracker": tracker_state,
        "baseline": baseline,
        "drift": {
            "applied_updates": runner.drift.applied_updates,
            "frozen_updates": runner.drift.frozen_updates,
        },
        "health": runner.health.export_state(),
        "fixes_emitted": runner.fixes_emitted,
        "rejected_reads": runner.rejected_reads,
        "lineage": list(runner.lineage),
    }


def checkpoint_id(state: Mapping[str, Any]) -> str:
    """Content identity of a checkpoint document (12 hex chars).

    The SHA-256 of the sorted-key JSON serialization — the same bytes
    :func:`save_checkpoint` writes — so the id is stable across
    load/save round trips and across processes.  Restoring appends this
    id to the runner's lineage, giving every later fix's provenance an
    auditable chain back through each crash-resume.
    """
    document = {k: v for k, v in state.items() if k != INTEGRITY_KEY}
    serialized = json.dumps(document, sort_keys=True)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()[:12]


def seal_state(state: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``state`` carrying its own :func:`checkpoint_id` digest.

    The digest travels *inside* the persisted file so a restore can
    verify the bytes it read are the bytes that were written — the
    disk-corruption twin of the wire protocol's length prefix.
    """
    sealed = dict(state)
    sealed[INTEGRITY_KEY] = checkpoint_id(state)
    return sealed


def restore_state(runner: "StreamRunner", state: Mapping[str, Any]) -> None:
    """Adopt a checkpoint into a freshly constructed, matching runner."""
    if state.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"not a {CHECKPOINT_KIND!r} document")
    if state.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {state.get('schema')!r} "
            f"(this build reads schema {CHECKPOINT_SCHEMA})"
        )
    expected = _fingerprint(runner)
    found = state.get("fingerprint")
    if found != expected:
        raise CheckpointError(
            f"checkpoint fingerprint {found!r} does not match this "
            f"deployment {expected!r}; refusing to restore"
        )
    try:
        _restore_queue(runner, state["queue"])
        _restore_assembler(runner, state["assembler"])
        _restore_bank(runner, state["bank"])
        _restore_tracker(runner, state["tracker"])
        _restore_baseline(runner, state["baseline"])
        runner.drift.applied_updates = int(state["drift"]["applied_updates"])
        runner.drift.frozen_updates = int(state["drift"]["frozen_updates"])
        runner.health.import_state(state["health"])
        runner.fixes_emitted = int(state["fixes_emitted"])
        runner.rejected_reads = int(state["rejected_reads"])
        # The restored runner's lineage is the checkpoint's own chain
        # plus the checkpoint it just resumed from (documents written
        # before lineage existed count as an empty chain).
        runner.lineage = [
            str(entry) for entry in state.get("lineage", [])
        ] + [checkpoint_id(state)]
    except (
        KeyError, TypeError, ValueError, IndexError, EstimationError, StreamError
    ) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def durable_write_json(path: PathLike, document: Mapping[str, Any]) -> None:
    """Crash-durably write ``document`` as sorted-key JSON at ``path``.

    The write goes to a temp sibling which is fsynced *before* the
    atomic ``os.replace`` and the parent directory is fsynced *after*,
    so a host crash at any instant leaves either the old file or the
    new one — never a zero-length or half-written "latest".
    """
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(dict(document), handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {str(target)!r}: {exc}"
        ) from exc
    try:
        # Directory fsync makes the rename itself durable.  Some
        # filesystems refuse to open a directory for writing; the data
        # is still safe past the rename on those, so count and move on.
        dir_fd = os.open(str(target.parent), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        obs.count("stream.checkpoint.dir_fsync_skipped")


def quarantine_checkpoint(path: PathLike) -> Path:
    """Rename a corrupt checkpoint to a ``.corrupt`` sibling.

    The file is never deleted — an operator can autopsy the bytes to
    distinguish a torn write from bad RAM or a disk fault.  Returns the
    quarantine path; collisions gain a numeric suffix so repeated
    corruption of the same deployment keeps every specimen.
    """
    source = Path(path)
    destination = source.with_name(source.name + QUARANTINE_SUFFIX)
    index = 1
    while destination.exists():
        destination = source.with_name(
            f"{source.name}{QUARANTINE_SUFFIX}.{index}"
        )
        index += 1
    try:
        os.replace(source, destination)
    except OSError as exc:
        raise CheckpointError(
            f"cannot quarantine checkpoint {str(source)!r}: {exc}"
        ) from exc
    obs.count("stream.checkpoint.quarantined")
    return destination


def checkpoint_history_dir(path: PathLike) -> Path:
    """The lineage-history directory paired with a "latest" checkpoint.

    ``dep-00.ckpt.json`` keeps its rotated ancestors under
    ``dep-00.ckpt.json.history/<seq>.json`` — newest sequence number is
    the most recent ancestor, which the serving supervisor walks when
    the latest file fails verification.
    """
    return Path(str(path) + ".history")


def save_checkpoint(path: PathLike, runner: "StreamRunner") -> None:
    """Durably write a runner's checkpoint as one sealed JSON document."""
    durable_write_json(path, seal_state(checkpoint_state(runner)))


def load_checkpoint(path: PathLike, *, verify: bool = True) -> Dict[str, Any]:
    """Read a checkpoint document (validated on :func:`restore_state`).

    With ``verify`` (the default) a present ``integrity`` digest is
    checked against the document's :func:`checkpoint_id`; a mismatch —
    bit-flips, partial overwrites, any bytes-read != bytes-written —
    raises :class:`~repro.errors.CheckpointError`.  Documents written
    before the digest existed carry no ``integrity`` key and load
    unverified.  The digest is stripped before returning, so loaded
    state round-trips exactly with :func:`checkpoint_state`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CheckpointError(
            f"cannot open checkpoint {str(path)!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {str(path)!r} is not valid JSON "
            "(truncated or foreign file?)"
        ) from exc
    if not isinstance(data, dict):
        raise CheckpointError(
            f"checkpoint {str(path)!r} is not a JSON object"
        )
    digest = data.pop(INTEGRITY_KEY, None)
    if verify and digest is not None:
        expected = checkpoint_id(data)
        if digest != expected:
            raise CheckpointError(
                f"checkpoint {str(path)!r} is corrupt: integrity digest "
                f"{digest!r} does not match content {expected!r}"
            )
    return data


# -- serialization helpers ------------------------------------------------


def _fingerprint(runner: "StreamRunner") -> Dict[str, Any]:
    return {
        "readers": sorted(runner.dwatch.readers),
        "window_s": runner.assembler.window_s,
        "decay": runner.config.decay,
    }


def _complex(value: complex) -> List[float]:
    return [value.real, value.imag]


def _as_complex(pair: Any) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _complex_matrix(matrix: ComplexArray) -> List[List[List[float]]]:
    return [[_complex(complex(cell)) for cell in row] for row in matrix]


def _as_complex_matrix(rows: Any) -> ComplexArray:
    return np.array(
        [[_as_complex(cell) for cell in row] for row in rows],
        dtype=np.complex128,
    )


def _real_matrix(matrix: FloatArray) -> List[List[float]]:
    return [[float(cell) for cell in row] for row in matrix]


def _read(read: TagRead) -> Dict[str, Any]:
    value = complex(read.iq)
    return {
        "t": read.time_s,
        "r": read.reader_name,
        "e": read.epc,
        "i": [value.real, value.imag],
    }


def _as_read(record: Mapping[str, Any]) -> TagRead:
    return TagRead(
        reader_name=str(record["r"]),
        epc=str(record["e"]),
        time_s=float(record["t"]),
        iq=_as_complex(record["i"]),
    )


def _spectrum_set(spectra: SpectrumSet) -> Dict[str, Any]:
    return {
        reader_name: {
            epc: {
                "angles": [float(a) for a in spectrum.angles],
                "values": [float(v) for v in spectrum.values],
            }
            for epc, spectrum in per_tag.items()
        }
        for reader_name, per_tag in spectra.spectra.items()
    }


def _as_spectrum_set(record: Mapping[str, Any]) -> SpectrumSet:
    result = SpectrumSet()
    for reader_name, per_tag in record.items():
        result.spectra[reader_name] = {
            epc: AngularSpectrum(
                np.asarray(entry["angles"], dtype=float),
                np.asarray(entry["values"], dtype=float),
            )
            for epc, entry in per_tag.items()
        }
    return result


def _assembler_state(runner: "StreamRunner") -> Dict[str, Any]:
    assembler = runner.assembler
    pending: List[Dict[str, Any]] = []
    for index, reads, pairs in assembler.pending_cells():
        cells: List[Dict[str, Any]] = []
        for reader_name, epc, samples in pairs:
            sweeps: Dict[str, Dict[str, List[float]]] = {}
            for sweep, antenna, sample in samples:
                sweeps.setdefault(str(sweep), {})[str(antenna)] = _complex(sample)
            cells.append({"reader": reader_name, "epc": epc, "sweeps": sweeps})
        pending.append({"index": index, "reads": reads, "cells": cells})
    return {
        "pending": pending,
        "max_time": assembler._max_time,
        "emitted_through": assembler._emitted_through,
        "late_reads": assembler.late_reads,
        "torn_sweeps": assembler.torn_sweeps,
        "duplicate_reads": assembler.duplicate_reads,
        "expected": (
            None
            if assembler._expected is None
            else [list(pair) for pair in sorted(assembler._expected)]
        ),
        "judged_through": assembler._judged_through,
    }


def _bank_state(runner: "StreamRunner") -> List[Dict[str, Any]]:
    return [
        {
            "reader": reader_name,
            "epc": epc,
            "num_antennas": num_antennas,
            "weighted": _complex_matrix(sums),
            "weight": weight,
            "updates": updates,
        }
        for (reader_name, epc), num_antennas, sums, weight, updates in runner.bank.entries()
    ]


# -- restore helpers ------------------------------------------------------


def _restore_queue(runner: "StreamRunner", record: Mapping[str, Any]) -> None:
    stats = record["stats"]
    runner.queue.import_state(
        [_as_read(item) for item in record["items"]],
        QueueStats(
            offered=int(stats["offered"]),
            accepted=int(stats["accepted"]),
            dropped_oldest=int(stats["dropped_oldest"]),
            dropped_newest=int(stats["dropped_newest"]),
            block_timeouts=int(stats["block_timeouts"]),
        ),
    )


def _restore_assembler(
    runner: "StreamRunner", record: Mapping[str, Any]
) -> None:
    assembler = runner.assembler
    assembler.restore_cells(
        [
            (
                int(entry["index"]),
                int(entry["reads"]),
                [
                    (
                        str(cell["reader"]),
                        str(cell["epc"]),
                        [
                            (int(sweep), int(antenna), _as_complex(sample))
                            for sweep, column in cell["sweeps"].items()
                            for antenna, sample in column.items()
                        ],
                    )
                    for cell in entry["cells"]
                ],
            )
            for entry in record["pending"]
        ]
    )
    raw_max = record["max_time"]
    assembler._max_time = None if raw_max is None else float(raw_max)
    assembler._emitted_through = int(record["emitted_through"])
    raw_expected = record.get("expected")
    assembler._expected = (
        None
        if raw_expected is None
        else {(str(reader), str(epc)) for reader, epc in raw_expected}
    )
    assembler._judged_through = int(
        record.get("judged_through", assembler._emitted_through)
    )
    assembler.late_reads = int(record["late_reads"])
    assembler.torn_sweeps = int(record["torn_sweeps"])
    assembler.duplicate_reads = int(record["duplicate_reads"])


def _restore_bank(runner: "StreamRunner", record: Any) -> None:
    runner.bank.load(
        [
            (
                (str(entry["reader"]), str(entry["epc"])),
                int(entry["num_antennas"]),
                _as_complex_matrix(entry["weighted"]),
                float(entry["weight"]),
                int(entry["updates"]),
            )
            for entry in record
        ]
    )


def _restore_tracker(
    runner: "StreamRunner", record: Optional[Mapping[str, Any]]
) -> None:
    if runner.tracker is None:
        return
    runner.tracker.reset()
    if record is None:
        return
    runner.tracker._state = np.asarray(record["state"], dtype=float)
    runner.tracker._covariance = np.asarray(record["covariance"], dtype=float)
    runner.tracker._last_time = float(record["last_time"])


def _restore_baseline(runner: "StreamRunner", record: Any) -> None:
    if record is None:
        runner.dwatch.baseline = None
        return
    runner.dwatch.baseline = [_as_spectrum_set(entry) for entry in record]
