"""Tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import EXIT_ERROR, _build_scene, build_parser, main
from repro.errors import UsageError


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.shutdown()
    yield
    obs.shutdown()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.environment == "hall"
        assert args.seed == 1
        assert args.trace is None
        assert args.metrics is None
        assert args.quiet is False

    def test_coverage_spacing(self):
        args = build_parser().parse_args(["coverage", "--spacing", "0.5"])
        assert args.spacing == 0.5

    def test_rejects_unknown_environment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--environment", "castle"])

    def test_quiet_and_observability_flags(self):
        args = build_parser().parse_args(
            ["--quiet", "demo", "--trace", "t.jsonl", "--metrics", "m.jsonl"]
        )
        assert args.quiet is True
        assert args.trace == "t.jsonl"
        assert args.metrics == "m.jsonl"

    def test_stats_default_file(self):
        args = build_parser().parse_args(["stats"])
        assert args.file == "metrics.jsonl"


class TestSceneBuilding:
    def test_unknown_environment_raises_usage_error(self):
        with pytest.raises(UsageError, match="unknown environment"):
            _build_scene("castle", seed=1)

    def test_known_environment_builds(self):
        scene = _build_scene("hall", seed=1)
        assert scene.readers


class TestCommands:
    def test_coverage_runs(self, capsys):
        assert main(["coverage", "--environment", "hall", "--spacing", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "#" in out or "." in out

    def test_experiment_fig03(self, capsys):
        assert main(["experiment", "fig03"]) == 0
        out = capsys.readouterr().out
        assert "offset_deg" in out

    def test_experiment_unknown_figure(self, capsys):
        assert main(["experiment", "fig99"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err
        assert "fig99" in err

    def test_demo_runs_end_to_end(self, capsys):
        assert main(["demo", "--environment", "hall", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "likelihood surface" in out

    def test_quiet_suppresses_progress(self, capsys):
        assert main(["--quiet", "experiment", "fig03"]) == 0
        captured = capsys.readouterr()
        assert "running experiment" not in captured.err
        assert "offset_deg" in captured.out


class TestObservabilityFlags:
    def test_demo_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert (
            main(
                [
                    "demo",
                    "--environment",
                    "hall",
                    "--seed",
                    "3",
                    "--trace",
                    str(trace),
                    "--metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        span_names = set()
        with open(trace) as handle:
            for line in handle:
                record = json.loads(line)
                assert record["type"] == "span"
                span_names.add(record["name"])
        for stage in (
            "pipeline.calibrate",
            "pipeline.baseline",
            "pipeline.evidence",
            "pipeline.localize",
        ):
            assert stage in span_names
        metric_names = set()
        with open(metrics) as handle:
            for line in handle:
                metric_names.add(json.loads(line)["name"])
        assert "pipeline.fixes" in metric_names
        assert "latency.pipeline.localize" in metric_names
        # The run's shutdown() must leave observability off again.
        assert not obs.is_enabled()

    def test_stats_renders_snapshot(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        registry = obs.MetricsRegistry()
        registry.counter("pipeline.fixes").inc(4)
        registry.histogram("latency.pipeline.localize").observe(12.5)
        registry.write_jsonl(str(metrics))
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.fixes" in out
        assert "latency.pipeline.localize" in out

    def test_stats_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "no metrics file" in err

    def test_stats_prefix_filters(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        registry = obs.MetricsRegistry()
        registry.counter("pipeline.fixes").inc(4)
        registry.counter("stream.fixes").inc(2)
        registry.write_jsonl(str(metrics))
        assert main(["stats", str(metrics), "--prefix", "stream."]) == 0
        out = capsys.readouterr().out
        assert "stream.fixes" in out
        assert "pipeline.fixes" not in out

    def test_stats_unmatched_prefix_is_usage_error(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        registry = obs.MetricsRegistry()
        registry.counter("pipeline.fixes").inc(1)
        registry.write_jsonl(str(metrics))
        assert main(["stats", str(metrics), "--prefix", "strm."]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "no metrics" in err and "strm." in err
        # The error names what IS there, so the typo is obvious.
        assert "pipeline.fixes" in err


def run_stream(tmp_path, capsys, *extra):
    """One tiny CLI stream run; returns (exit_code, stdout)."""
    code = main(
        [
            "--quiet",
            "stream",
            "--environment",
            "table",
            "--seed",
            "5",
            "--fixes",
            "2",
            *extra,
        ]
    )
    captured = capsys.readouterr()
    return code, captured.out


class TestStreamTelemetryFlags:
    def test_stdout_is_byte_identical_with_telemetry_on(self, tmp_path, capsys):
        # The acceptance bar for "provenance is metadata": the default
        # human-readable output must not change when the fix log and the
        # ops endpoint are enabled.
        code_plain, out_plain = run_stream(tmp_path, capsys)
        assert code_plain == 0
        code_flagged, out_flagged = run_stream(
            tmp_path,
            capsys,
            "--fix-log",
            str(tmp_path / "fixes.jsonl"),
            "--serve-metrics",
            "0",
        )
        assert code_flagged == 0
        assert out_flagged == out_plain

    def test_fix_log_feeds_provenance_command(self, tmp_path, capsys):
        fix_log = tmp_path / "fixes.jsonl"
        code, _ = run_stream(tmp_path, capsys, "--fix-log", str(fix_log))
        assert code == 0
        assert main(["provenance", str(fix_log)]) == 0
        out = capsys.readouterr().out
        assert "fix log:" in out
        assert "environment table" in out
        assert "faults seen:" in out
        assert "path=" not in out
        # The first window has no history and waits for the watermark.
        assert "closed=watermark" in out

    def test_provenance_json_mode_is_machine_readable(self, tmp_path, capsys):
        fix_log = tmp_path / "fixes.jsonl"
        run_stream(tmp_path, capsys, "--fix-log", str(fix_log))
        assert main(["provenance", str(fix_log), "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["provenance"]["window_index"] == record["index"]

    def test_provenance_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["provenance", str(tmp_path / "gone.jsonl")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestRetainCommand:
    @staticmethod
    def _fill(directory):
        for i in range(3):
            (directory / f"rec{i}.jsonl").write_text(
                json.dumps({"kind": "dwatch-reads", "schema": 1}) + "\n"
            )
        (directory / "foreign.txt").write_text("not ours\n")

    def test_dry_run_by_default(self, tmp_path, capsys):
        self._fill(tmp_path)
        assert main(["retain", str(tmp_path), "--max-count", "1"]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "delete 2" in out
        assert len(list(tmp_path.glob("rec*.jsonl"))) == 3  # nothing touched

    def test_apply_deletes_only_recognised_artefacts(self, tmp_path, capsys):
        self._fill(tmp_path)
        assert (
            main(["retain", str(tmp_path), "--max-count", "1", "--apply"]) == 0
        )
        capsys.readouterr()
        assert len(list(tmp_path.glob("rec*.jsonl"))) == 1
        assert (tmp_path / "foreign.txt").exists()

    def test_unbounded_policy_is_usage_error(self, tmp_path, capsys):
        assert main(["retain", str(tmp_path)]) == EXIT_ERROR
        assert "at least one bound" in capsys.readouterr().err
