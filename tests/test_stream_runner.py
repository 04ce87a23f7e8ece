"""StreamRunner end to end: fixes, preconditions, drift and CLI parity."""

import copy
import hashlib

import numpy as np
import pytest

from repro.core.baseline import SpectrumSet
from repro.core.pipeline import DWatch
from repro.dsp.spectrum import AngularSpectrum
from repro.errors import CalibrationError, ConfigurationError, LocalizationError
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.stream import StreamConfig, StreamRunner
from repro.stream.drift import BaselineDriftTracker
from repro.stream.synthetic import (
    SyntheticStreamConfig,
    synthetic_reads,
    target_positions,
)


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
            assert a.index == b.index
            assert a.position == b.position
            assert a.predicted_only == b.predicted_only


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
