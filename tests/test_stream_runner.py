"""StreamRunner end to end: fixes, preconditions, drift and CLI parity."""

import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.core.baseline import SpectrumSet
from repro.core.pipeline import DWatch
from repro.dsp.spectrum import AngularSpectrum
from repro.errors import CalibrationError, ConfigurationError, LocalizationError
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementConfig, MeasurementSession
from repro.sim.target import human_target
from repro.stream import StreamConfig, StreamRunner
from repro.stream.drift import BaselineDriftTracker
from repro.stream.provenance import fix_record
from repro.stream.synthetic import (
    SyntheticStreamConfig,
    measurement_reads,
    synthetic_reads,
    target_positions,
)
from repro.stream.window import WindowConfig


@pytest.fixture(scope="module")
def tracking():
    """A small calibrated, baselined hall deployment shared by the module."""
    scene = hall_scene(rng=5, num_tags=8, num_antennas=6)
    dwatch = DWatch(scene, cell_size=0.1)
    dwatch.calibrate(rng=6)
    session = MeasurementSession(scene, rng=7)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    return scene, dwatch


class TestEndToEnd:
    def test_static_target_is_tracked_in_every_window(self, tracking):
        scene, dwatch = tracking
        config = SyntheticStreamConfig(fixes=3, moving=False)
        runner = StreamRunner(dwatch)
        fixes = list(
            runner.run(synthetic_reads(scene, config, rng=8))
        )
        assert [fix.index for fix in fixes] == [0, 1, 2]
        assert runner.fixes_emitted == 3
        assert all(fix.sweeps == config.sweeps_per_fix for fix in fixes)
        located = [fix for fix in fixes if fix.position is not None]
        assert located, "a static target in coverage must be found"
        truth = target_positions(scene, config)[0]
        for fix in located:
            error = float(np.hypot(fix.position.x - truth.x, fix.position.y - truth.y))
            assert error < 1.5

    def test_ingest_poll_finish_equals_run(self, tracking):
        scene, dwatch = tracking
        config = SyntheticStreamConfig(fixes=2, moving=False)
        reads = list(synthetic_reads(scene, config, rng=8))

        via_run = list(StreamRunner(dwatch).run(iter(reads)))

        runner = StreamRunner(dwatch)
        via_calls = []
        for read in reads:
            assert runner.ingest(read)
            via_calls.extend(runner.poll())
        via_calls.extend(runner.finish())

        assert len(via_calls) == len(via_run)
        for a, b in zip(via_calls, via_run):
            # The whole record, provenance included, and every raw
            # estimate: one poll per read changes nothing.
            assert fix_record(a) == fix_record(b)
            assert a.raw_estimates == b.raw_estimates
            assert (a.sweeps, a.reads, a.quality) == (b.sweeps, b.reads, b.quality)


class TestNonFiniteReads:
    """A read with a non-finite time or I/Q value is counted and dropped."""

    def _reads(self, scene):
        config = SyntheticStreamConfig(fixes=4, moving=False)
        return list(synthetic_reads(scene, config, rng=8))

    def test_nan_iq_does_not_poison_the_pair(self, tracking):
        scene, dwatch = tracking
        reads = self._reads(scene)
        reads[0] = dataclasses.replace(reads[0], iq=complex(math.nan, 0.0))
        runner = StreamRunner(dwatch)
        fixes = list(runner.run(iter(reads)))
        assert runner.rejected_reads == 1
        assert len(fixes) == 4
        for fix in fixes[1:]:
            roles = {r.name: r.role for r in fix.provenance.readers}
            assert roles[reads[0].reader_name] != "failed"

    @pytest.mark.parametrize("time_s", [math.nan, math.inf])
    def test_non_finite_time_is_rejected(self, tracking, time_s):
        scene, dwatch = tracking
        reads = self._reads(scene)
        reads[5] = dataclasses.replace(reads[5], time_s=time_s)
        runner = StreamRunner(dwatch)
        assert len(list(runner.run(iter(reads)))) == 4
        assert runner.rejected_reads == 1

    def test_rejected_read_never_reaches_reader_health(self, tracking):
        scene, dwatch = tracking
        reads = self._reads(scene)
        reads[5] = bad = dataclasses.replace(reads[5], time_s=math.inf)
        runner = StreamRunner(dwatch)
        list(runner.run(iter(reads)))
        assert runner.rejected_reads == 1
        (record,) = [
            r for r in runner.health.report() if r.name == bad.reader_name
        ]
        assert math.isfinite(record.last_read_s)
        assert record.reads == sum(
            1 for read in reads if read.reader_name == bad.reader_name
        ) - 1


class TestPreconditions:
    def test_uncalibrated_pipeline_is_rejected(self, tracking):
        scene, _ = tracking
        bare = DWatch(scene, cell_size=0.1)
        with pytest.raises(CalibrationError, match="calibrat"):
            StreamRunner(bare)

    def test_missing_baseline_is_rejected(self, tracking):
        scene, dwatch = tracking
        calibrated = DWatch(scene, cell_size=0.1)
        calibrated.set_calibration(dwatch.calibration)
        with pytest.raises(LocalizationError, match="baseline"):
            StreamRunner(calibrated)

    def test_config_rejects_zero_targets(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(max_targets=0)


def flat_set(level):
    """A one-reader, one-tag spectrum set at a constant ``level``."""
    angles = np.linspace(0.0, np.pi, 16)
    spectra = SpectrumSet()
    spectra.spectra["r"] = {
        "tag": AngularSpectrum(angles=angles, values=np.full(16, level))
    }
    return spectra


class TestDriftTracker:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            BaselineDriftTracker(alpha=-0.1)
        with pytest.raises(ConfigurationError):
            BaselineDriftTracker(alpha=1.0)

    def test_zero_alpha_disables_updates(self):
        tracker = BaselineDriftTracker(alpha=0.0)
        assert not tracker.enabled
        assert not tracker.update([flat_set(1.0)], flat_set(2.0), detecting=False)
        assert tracker.applied_updates == 0
        assert tracker.frozen_updates == 0

    def test_update_blends_toward_online(self):
        tracker = BaselineDriftTracker(alpha=0.25)
        baseline = [flat_set(1.0), flat_set(1.0)]
        assert tracker.update(baseline, flat_set(2.0), detecting=False)
        assert tracker.applied_updates == 1
        for spectrum_set in baseline:
            np.testing.assert_allclose(
                spectrum_set.spectra["r"]["tag"].values, 1.25
            )

    def test_detection_freezes_the_update(self):
        tracker = BaselineDriftTracker(alpha=0.25)
        baseline = [flat_set(1.0)]
        assert not tracker.update(baseline, flat_set(2.0), detecting=True)
        assert tracker.frozen_updates == 1
        assert tracker.applied_updates == 0
        np.testing.assert_allclose(baseline[0].spectra["r"]["tag"].values, 1.0)

    def test_missing_online_entries_are_skipped(self):
        tracker = BaselineDriftTracker(alpha=0.5)
        baseline = [flat_set(1.0)]
        empty = SpectrumSet()
        assert tracker.update(baseline, empty, detecting=False)
        np.testing.assert_allclose(baseline[0].spectra["r"]["tag"].values, 1.0)

    def test_runner_routes_every_window_through_the_tracker(self, tracking):
        scene, dwatch = tracking
        # Deep copy: drift mutates the baseline, and the fixture is shared.
        isolated = copy.deepcopy(dwatch)
        runner = StreamRunner(isolated, StreamConfig(drift_alpha=0.01))
        config = SyntheticStreamConfig(fixes=2, moving=False)
        fixes = list(runner.run(synthetic_reads(scene, config, rng=8)))
        drift = runner.drift
        assert drift.applied_updates + drift.frozen_updates == len(fixes)
        # A present target must freeze at least the windows that saw it.
        detected = [f for f in fixes if f.raw_estimates]
        assert drift.frozen_updates >= len(detected) > 0


class TestReaderFailure:
    """A pair whose spectrum fails fails its reader, after every pair folded."""

    SWEEPS = 12

    @pytest.fixture(scope="class")
    def deployment(self):
        # Three antennas: the default subarray is the whole array, so no
        # smoothing or forward-backward averaging mixes the antennas and
        # the failing pair below has an exactly flat MUSIC spectrum.
        scene = hall_scene(rng=5, num_tags=4, num_antennas=3)
        dwatch = DWatch(scene, cell_size=0.1)
        dwatch.calibrate(rng=6)
        session = MeasurementSession(
            scene, MeasurementConfig(num_snapshots=self.SWEEPS), rng=7
        )
        dwatch.collect_baseline([session.capture() for _ in range(2)])
        capture = session.capture([human_target(scene.room.center)])
        return scene, dwatch, capture

    def _run(self, deployment, capture, monkeypatch):
        scene, dwatch, _ = deployment
        seen = []
        evidence = dwatch.evidence_from_spectra

        def spy(online, missing="error"):
            seen.append(online.spectra)
            return evidence(online, missing)

        monkeypatch.setattr(dwatch, "evidence_from_spectra", spy)
        config = StreamConfig(window=WindowConfig(sweeps_per_window=self.SWEEPS))
        runner = StreamRunner(dwatch, config)
        fixes = list(runner.run(measurement_reads(capture, scene, 0.0)))
        monkeypatch.undo()
        assert len(fixes) == len(seen) == 1
        return runner, fixes[0], seen[0]

    def test_peakless_pair_fails_its_reader_only(self, deployment, monkeypatch):
        _, _, capture = deployment
        reader = capture.readers()[0]
        tags = sorted(capture.tags_for(reader))
        bad = tags[0]
        # One antenna per sweep, antenna 0 the weakest: R is diagonal,
        # the noise subspace is exactly antenna 0, and the MUSIC
        # spectrum is flat, so Nor(·) finds no peak.
        flat = np.zeros((3, self.SWEEPS), dtype=complex)
        for sweep in range(self.SWEEPS):
            flat[sweep % 3, sweep] = 0.5 if sweep % 3 == 0 else 1.0
        broken = copy.deepcopy(capture)
        broken.snapshots[reader][bad] = flat
        without = copy.deepcopy(capture)
        del without.snapshots[reader][bad]

        runner, fix, spectra = self._run(deployment, broken, monkeypatch)
        roles = {r.name: r.role for r in fix.provenance.readers}
        assert roles[reader] == "failed"
        assert reader not in spectra
        # No rollback: every pair of the failing reader folded the window.
        for epc in tags:
            assert runner.bank.pair(reader, epc, 3).updates == self.SWEEPS

        _, _, reference = self._run(deployment, without, monkeypatch)
        others = [name for name in capture.readers() if name != reader]
        assert others and sorted(spectra) == sorted(others)
        for name in others:
            for epc, spectrum in reference[name].items():
                assert np.array_equal(spectra[name][epc].values, spectrum.values)


class TestCliBitIdentity:
    """``repro stream`` output must not depend on observability flags."""

    @pytest.fixture(scope="class")
    def recording(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("stream") / "hall.jsonl"
        assert (
            main(
                [
                    "--quiet",
                    "stream",
                    "--environment",
                    "hall",
                    "--seed",
                    "7",
                    "--fixes",
                    "2",
                    "--record",
                    str(path),
                ]
            )
            == 0
        )
        return path

    def replay_stdout(self, capsys, recording, extra):
        from repro.cli import main

        capsys.readouterr()  # discard anything pending
        code = main(
            ["--quiet", "stream", "--replay", str(recording), *extra]
        )
        assert code == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_stdout_hash_survives_trace_and_metrics(
        self, capsys, recording, tmp_path
    ):
        plain = self.replay_stdout(capsys, recording, [])
        observed = self.replay_stdout(
            capsys,
            recording,
            [
                "--trace",
                str(tmp_path / "trace.jsonl"),
                "--metrics",
                str(tmp_path / "metrics.jsonl"),
            ],
        )
        assert plain == observed
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "metrics.jsonl").exists()
