"""The pull-based streaming loop: reads in, :class:`TrackFix` out.

:class:`StreamRunner` wires the streaming pieces around a calibrated,
baselined :class:`~repro.core.pipeline.DWatch`:

.. code-block:: text

    TagRead --> BoundedReadQueue --> WindowAssembler --> CovarianceBank
    (ingest)    (backpressure)       (columnar,          (closed-form
                                      event-time)         window fold)
                                                             |
    TrackFix <-- KalmanTracker <-- localize <-- evidence <-- P-MUSIC
    (poll)       (deadzones)        (Step 4)    (Step 3)    spectra

The loop is *pull-based*: producers call :meth:`StreamRunner.ingest`
(possibly from another thread — the queue is the synchronisation
point), the consumer calls :meth:`StreamRunner.poll` whenever it wants
fixes, and :meth:`StreamRunner.run` composes both over any read
iterable.  Every stage is instrumented through :mod:`repro.obs`
(spans feed the ``latency.stream.window`` histogram); with
observability disabled each hook is a single flag check, so streaming
results are bit-identical with or without tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.baseline import SpectrumSet
from repro.core.likelihood import LocationEstimate
from repro.core.pipeline import DWatch
from repro.core.tracker import KalmanTracker
from repro.dsp.spectrum import AngularSpectrum
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    EstimationError,
    LocalizationError,
    ReproError,
)
from repro.geometry.point import Point
from repro.dsp.batch import BatchPMusicConfig, batched_pmusic_from_covariances
from repro.stream.covariance import CovarianceBank
from repro.stream.drift import BaselineDriftTracker
from repro.stream.events import FixQuality, TagRead, TrackFix
from repro.stream.health import HealthConfig, HealthTracker
from repro.stream.provenance import FixProvenance, ReaderProvenance
from repro.stream.queue import BoundedReadQueue
from repro.stream.window import SnapshotWindow, WindowAssembler, WindowConfig


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming loop.

    Parameters
    ----------
    window:
        Window assembly shape (sweeps per window, lateness bound).
    queue_capacity, drop_policy, block_timeout_s:
        Ingest queue bound and overload behaviour (see
        :class:`~repro.stream.queue.BoundedReadQueue`).
    decay:
        Per-snapshot forgetting factor of the covariance bank.  ``1.0``
        is the running sample covariance of the whole stream; the
        default ``0.8`` forgets a 10-sweep window in roughly a window,
        so a walking target does not smear the spectra.
    drift_alpha:
        EWMA weight of the baseline drift tracker; ``0`` (default)
        keeps the baseline frozen, as the batch pipeline does.
    max_targets:
        Upper bound on simultaneously tracked targets per window.
    smoothing:
        Whether the constant-velocity Kalman tracker smooths fixes and
        bridges deadzone windows (prediction-only fixes).
    health:
        Quarantine thresholds of the per-reader health tracker.
    min_evidence_readers:
        Minimum number of *detecting* readers a window needs before a
        position is attempted.  The default ``1`` preserves the original
        behaviour (any detection localizes); raising it trades coverage
        for ghost suppression when parts of the fleet are unhealthy.
    deployment_id:
        Optional fleet deployment id this runner serves.  Purely a
        label: it flows into the ingest queue's per-deployment drop
        metrics and the fleet health document, never into the numerics
        or the checkpoint fingerprint (so a checkpoint hands off
        between labeled and unlabeled runners of the same deployment).
    """

    window: WindowConfig = field(default_factory=WindowConfig)
    queue_capacity: int = 4096
    drop_policy: str = "drop-oldest"
    block_timeout_s: float = 1.0
    decay: float = 0.8
    drift_alpha: float = 0.0
    max_targets: int = 1
    smoothing: bool = True
    health: HealthConfig = field(default_factory=HealthConfig)
    min_evidence_readers: int = 1
    deployment_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_targets < 1:
            raise ConfigurationError("max_targets must be at least 1")
        if self.min_evidence_readers < 1:
            raise ConfigurationError("min_evidence_readers must be at least 1")


class StreamRunner:
    """Continuous device-free tracking over an endless read stream.

    Parameters
    ----------
    dwatch:
        A calibrated pipeline facade with baseline spectra collected;
        both are preconditions (raising the same typed errors the batch
        path would) because streaming fixes are meaningless without
        them.
    config:
        Streaming knobs; the defaults mirror the paper's deployment.
    """

    def __init__(self, dwatch: DWatch, config: Optional[StreamConfig] = None) -> None:
        if not dwatch.calibration:
            raise CalibrationError(
                "streaming needs calibrated readers; "
                "run calibrate() or set_calibration() first"
            )
        if dwatch.baseline is None:
            raise LocalizationError(
                "streaming needs baseline spectra; run collect_baseline() first"
            )
        self.dwatch = dwatch
        self.config = config or StreamConfig()
        self.queue = BoundedReadQueue(
            capacity=self.config.queue_capacity,
            policy=self.config.drop_policy,
            block_timeout_s=self.config.block_timeout_s,
            deployment=self.config.deployment_id,
        )
        self.assembler = WindowAssembler.for_readers(
            dwatch.readers, self.config.window
        )
        self.bank = CovarianceBank(decay=self.config.decay)
        self.drift = BaselineDriftTracker(alpha=self.config.drift_alpha)
        self.tracker: Optional[KalmanTracker] = (
            KalmanTracker() if self.config.smoothing else None
        )
        self.health = HealthTracker.for_readers(
            dwatch.readers, self.config.health
        )
        self.fixes_emitted = 0
        self.rejected_reads = 0
        #: Identities of the checkpoints this run restored from, oldest
        #: first.  Appended to by :meth:`restore`, carried forward into
        #: the next checkpoint, and stamped onto every fix's provenance.
        self.lineage: List[str] = []
        #: Optional callback ``(window_start_s, window_end_s) ->
        #: fault kinds`` set by chaos harnesses so fix provenance can
        #: name the faults active over each window.  ``None`` (the
        #: default) records no faults.
        self.fault_probe: Optional[
            Callable[[float, float], Tuple[str, ...]]
        ] = None

    def ingest(self, read: TagRead) -> bool:
        """Offer one read to the bounded queue; returns acceptance.

        Safe to call from a producer thread.  Under the ``block``
        policy this may raise
        :class:`~repro.errors.BackpressureError` after the timeout.
        """
        return self.queue.put(read)

    def poll(self) -> List[TrackFix]:
        """Drain the queue, assemble windows, localize every closed one.

        The drained reads become columns once and are assembled as one
        batch (see :meth:`WindowAssembler.assemble`); the windows and
        fixes do not depend on how the stream was cut into polls.  A
        malformed read (unknown reader, out-of-slot or non-finite
        timestamp) is counted and dropped rather than crashing the
        loop: a live pipeline must outlast one bad report.  Structural
        configuration errors still surface through
        :attr:`rejected_reads` and the ``stream.reads.rejected``
        counter.
        """
        columns = self.assembler.columns(self.queue.drain())
        windows, rejected = self.assembler.assemble(columns)
        bad = rejected != 0
        if bad.any():
            count = int(bad.sum())
            self.rejected_reads += count
            obs.count("stream.reads.rejected", count)
            columns = columns.take(~bad)
        fixes = [self._process_window(window) for window in windows]
        # Reader health counts only the reads assembly accepted (late
        # ones included: they are real reads); a rejected read's NaN or
        # infinite time must never reach ``last_read_s``.  Health's
        # read bookkeeping feeds no window decision, so noting the
        # batch after assembly changes no fix.
        self.health.note_reads(columns)
        obs.gauge("stream.queue.depth", float(len(self.queue)))
        return fixes

    def finish(self) -> List[TrackFix]:
        """End of stream: drain everything and close all pending windows."""
        fixes = self.poll()
        fixes.extend(
            self._process_window(window)
            for window in self.assembler.flush()
        )
        return fixes

    def run(
        self, source: Iterable[TagRead], chunk_size: int = 256
    ) -> Iterator[TrackFix]:
        """Pump an entire read iterable through the loop, yielding fixes.

        The one-call composition of :meth:`ingest`, :meth:`poll` and
        :meth:`finish` for single-threaded replay and synthetic runs.
        Reads are ingested in chunks (one queue lock acquisition and
        one poll per chunk rather than per read); the chunk never
        exceeds the queue capacity, so no replay read is ever dropped
        that per-read ingestion would have admitted, and the emitted
        fixes are identical either way.
        """
        chunk_size = max(1, min(chunk_size, self.queue.capacity))
        chunk: List[TagRead] = []
        for read in source:
            chunk.append(read)
            if len(chunk) >= chunk_size:
                self.queue.put_many(chunk)
                chunk.clear()
                yield from self.poll()
        if chunk:
            self.queue.put_many(chunk)
        yield from self.finish()

    def checkpoint(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every piece of mutable stream state.

        Covers the covariance bank, window assembler, queued reads,
        Kalman tracker, baseline spectra (drift-adapted), drift and
        health counters — everything needed for :meth:`restore` to
        continue the run *bit-identically*, as if the process never
        died.  See :mod:`repro.stream.checkpoint` for the format.
        """
        from repro.stream.checkpoint import checkpoint_state

        return checkpoint_state(self)

    def restore(self, state: Mapping[str, Any]) -> None:
        """Adopt a checkpoint produced by :meth:`checkpoint`.

        The runner must be built over an identically configured
        deployment (same readers, window shape, decay); a fingerprint
        mismatch raises :class:`~repro.errors.CheckpointError` instead
        of silently corrupting later fixes.
        """
        from repro.stream.checkpoint import restore_state

        restore_state(self, state)

    def _process_window(self, window: SnapshotWindow) -> TrackFix:
        with obs.span(
            "stream.window", index=window.index, sweeps=window.sweeps
        ) as sp:
            online, failed = self._window_spectra(window)
            for reader_name, error in failed:
                self.health.note_violation(reader_name, error)
            self.health.observe_window(online.spectra.keys())
            quarantined = self.health.quarantined()
            included = self._exclude_quarantined(online, quarantined)
            evidence = self.dwatch.evidence_from_spectra(included, missing="skip")
            detecting = any(item.has_detection for item in evidence)
            if self.drift.enabled and self.dwatch.baseline is not None:
                self.drift.update(self.dwatch.baseline, included, detecting)
            active_detecting = sum(
                1 for item in evidence if item.has_detection
            )
            estimates: List[LocationEstimate]
            if 0 < active_detecting < self.config.min_evidence_readers:
                # Below the minimum-evidence threshold: refusing to
                # localize beats emitting a ghost from one reader's say-so.
                obs.count("stream.fixes.insufficient")
                estimates = []
                insufficient = True
            else:
                estimates = self.dwatch.localize_from_evidence(
                    evidence, self.config.max_targets
                )
                insufficient = False
            position: Optional[Point] = (
                estimates[0].position if estimates else None
            )
            predicted_only = False
            if self.tracker is not None and (
                position is not None or self.tracker.initialized
            ):
                point = self.tracker.update(window.end_s, position)
                position = point.position
                predicted_only = point.predicted_only
            quality = self._fix_quality(
                quarantined=quarantined,
                active_readers=len(included.spectra),
                estimates=estimates,
                position=position,
                predicted_only=predicted_only,
                insufficient=insufficient,
            )
            if quality.degraded:
                obs.count("stream.fixes.degraded")
            provenance = self._fix_provenance(window, online, included, failed)
            self.fixes_emitted += 1
            obs.count("stream.fixes")
            obs.count("stream.fixes.by_quality", labels={"level": quality.level})
            sp.set(located=position is not None, quality=quality.level)
        return TrackFix(
            index=window.index,
            time_s=window.end_s,
            position=position,
            raw_estimates=tuple(estimates),
            predicted_only=predicted_only,
            sweeps=window.sweeps,
            reads=window.reads,
            quality=quality,
            provenance=provenance,
        )

    def _fix_provenance(
        self,
        window: SnapshotWindow,
        online: SpectrumSet,
        included: SpectrumSet,
        failed: List[Tuple[str, Exception]],
    ) -> FixProvenance:
        """The audit record of one window: who and what made the fix.

        Every field is read off state the runner already holds, so the
        stamp costs no numerics — fixes stay bit-identical with or
        without anyone ever looking at provenance.
        """
        contributed = set(included.spectra)
        produced = set(online.spectra)
        failed_names = {name for name, _ in failed}
        readers: List[ReaderProvenance] = []
        for name in sorted(self.dwatch.readers):
            if name in contributed:
                role = "contributed"
            elif name in produced:
                role = "excluded"
            elif name in failed_names:
                role = "failed"
            else:
                role = "silent"
            readers.append(
                ReaderProvenance(
                    name=name, health=self.health.state_of(name), role=role
                )
            )
            obs.count(
                "stream.reader.windows", labels={"reader": name, "role": role}
            )
        active_faults: Tuple[str, ...] = ()
        if self.fault_probe is not None:
            active_faults = tuple(
                self.fault_probe(window.start_s, window.end_s)
            )
        return FixProvenance(
            window_index=window.index,
            readers=tuple(readers),
            active_faults=active_faults,
            watermark_s=window.watermark_s,
            lateness_s=self.assembler.lateness_s,
            closed_by=window.closed_by,
            checkpoint_lineage=tuple(self.lineage),
        )

    def _fix_quality(
        self,
        quarantined: "frozenset[str]",
        active_readers: int,
        estimates: List[LocationEstimate],
        position: Optional[Point],
        predicted_only: bool,
        insufficient: bool,
    ) -> FixQuality:
        """Stamp one window's fix with its health-aware trust level."""
        total = self.health.total
        healthy = self.health.healthy_count
        healthy_fraction = healthy / total if total else 0.0
        if insufficient:
            level = "insufficient"
        elif quarantined or active_readers < total:
            level = "degraded"
        else:
            level = "full"
        if position is None:
            confidence = 0.0
        elif predicted_only or not estimates:
            confidence = 0.5 * healthy_fraction
        else:
            confidence = healthy_fraction * min(
                1.0, estimates[0].normalized_likelihood
            )
        return FixQuality(
            level=level,
            confidence=confidence,
            active_readers=active_readers,
            healthy_readers=healthy,
            total_readers=total,
            quarantined=tuple(sorted(quarantined)),
        )

    @staticmethod
    def _exclude_quarantined(
        online: SpectrumSet, quarantined: "frozenset[str]"
    ) -> SpectrumSet:
        """Online spectra without the quarantined readers' contributions.

        Returns ``online`` unchanged (same object) when nothing is
        quarantined, so the healthy path stays bit-identical to a build
        without health tracking.
        """
        if not quarantined:
            return online
        filtered = SpectrumSet()
        for reader_name, per_tag in online.spectra.items():
            if reader_name not in quarantined:
                filtered.spectra[reader_name] = per_tag
        return filtered

    def _window_spectra(
        self, window: SnapshotWindow
    ) -> Tuple[SpectrumSet, List[Tuple[str, Exception]]]:
        """Fold the window into the covariance bank; spectra from ``R``.

        Every pair folds the window in one bank call per antenna count,
        then every pair's spectrum comes from one P-MUSIC call per
        (configuration, antenna count) — one of each on a uniform
        deployment.  The calibration correction is a per-antenna
        diagonal multiply, so applying it to the snapshot columns
        before the fold is algebraically identical to correcting a
        batch matrix.

        Failures are isolated per reader: a reader with a pair whose
        spectrum fails (no noise subspace, no peak), or whose columns
        the chain rejects, is reported in the second return value — and
        all its spectra withheld — instead of killing the whole window.
        Every pair folds the window first, so a failing pair leaves no
        other pair behind.  The health tracker turns repeated failures
        into a quarantine.
        """
        online = SpectrumSet()
        errors: Dict[str, Exception] = {}
        readers = [reader for reader, _ in window.pairs]
        corrected = window.snapshots
        for reader_name in sorted(set(readers)):
            offsets = self.dwatch.calibration.get(reader_name)
            if offsets is None:
                continue
            rows = [p for p, name in enumerate(readers) if name == reader_name]
            size = int(window.antennas[rows[0]])
            if offsets.num_antennas != size:
                errors[reader_name] = CalibrationError(
                    f"snapshot rows ({size}) != offset entries "
                    f"({offsets.num_antennas})"
                )
                continue
            if corrected is window.snapshots:
                corrected = window.snapshots.copy()
            corrected[rows, :, :size] *= offsets.correction()
        # (configuration, antenna count) -> pair rows, in pair order.
        groups: Dict[Tuple[BatchPMusicConfig, int], List[int]] = {}
        for p, reader_name in enumerate(readers):
            if reader_name in errors:
                continue
            array = self.dwatch.readers[reader_name].array
            config = BatchPMusicConfig(
                spacing_m=array.spacing_m, wavelength_m=array.wavelength_m
            )
            groups.setdefault((config, int(window.antennas[p])), []).append(p)
        spectra: Dict[int, Optional[AngularSpectrum]] = {}
        for (config, size), rows in groups.items():
            pairs = [window.pairs[p] for p in rows]
            try:
                self.bank.fold(pairs, corrected[rows, :, :size], window.columns[rows])
                stack = self.bank.covariances(pairs, size)
                finite = np.isfinite(stack).all(axis=(1, 2))
                computed = iter(
                    batched_pmusic_from_covariances(stack[finite], config)
                )
                for p, ok in zip(rows, finite):
                    spectra[p] = next(computed) if ok else None
            except (ReproError, ValueError, ArithmeticError) as exc:
                # Everything the spectral chain can raise: the repro
                # taxonomy, shape/eigensolver failures (LinAlgError is
                # a ValueError subclass), and floating-point faults.
                for p in rows:
                    errors.setdefault(readers[p], exc)
        for p, (reader_name, epc) in enumerate(window.pairs):
            if reader_name in errors:
                continue
            spectrum = spectra[p]
            if spectrum is None:
                errors[reader_name] = EstimationError(
                    f"no P-MUSIC spectrum for tag {epc!r}: no noise "
                    "subspace or no peaks"
                )
                online.spectra.pop(reader_name, None)
                continue
            online.spectra.setdefault(reader_name, {})[epc] = spectrum
        failed = [(name, errors[name]) for name in sorted(errors)]
        return online, failed
