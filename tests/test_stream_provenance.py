"""Per-fix provenance: records, the fix-log format, the ring, the runner."""

import dataclasses
import json

import pytest

from repro.core.pipeline import DWatch
from repro.errors import RecordingError
from repro.faults import FaultInjector, chaos_plan, scene_schedules
from repro.geometry.point import Point
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.stream import (
    FIXLOG_KIND,
    FIXLOG_SCHEMA,
    READER_ROLES,
    FixLogHeader,
    FixProvenance,
    FixQuality,
    ProvenanceRing,
    ReaderProvenance,
    StreamRunner,
    SyntheticStreamConfig,
    TrackFix,
    checkpoint_id,
    checkpoint_state,
    read_fix_log,
    read_fix_log_header,
    restore_state,
    synthetic_reads,
    write_fix_log,
)

PROVENANCE = FixProvenance(
    window_index=4,
    readers=(
        ReaderProvenance(name="r0", health="healthy", role="contributed"),
        ReaderProvenance(name="r1", health="quarantined", role="excluded"),
    ),
    active_faults=("outage",),
    watermark_s=1.25,
    lateness_s=0.02,
    checkpoint_lineage=("abc123def456",),
    closed_by="complete",
)


def some_fix(index=0, provenance=None):
    return TrackFix(
        index=index,
        time_s=0.5 * index,
        position=Point(1.0 + index, 2.0),
        quality=FixQuality(level="full", confidence=1.0),
        provenance=provenance,
    )


class TestRecords:
    def test_vocabularies_are_closed(self):
        assert all(r.role in READER_ROLES for r in PROVENANCE.readers)

    def test_round_trip_through_dict(self):
        assert FixProvenance.from_dict(PROVENANCE.to_dict()) == PROVENANCE

    def test_contributing_names(self):
        assert PROVENANCE.contributing == ("r0",)

    def test_provenance_is_metadata_not_identity(self):
        fix = some_fix(provenance=PROVENANCE)
        assert dataclasses.replace(fix, provenance=None) == fix
        assert "provenance" not in repr(fix)


class TestFixLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fixes.jsonl"
        fixes = [some_fix(0, PROVENANCE), some_fix(1)]
        assert write_fix_log(path, fixes) == 2
        loaded = list(read_fix_log(path))
        assert [f.index for f in loaded] == [0, 1]
        assert loaded[0].provenance == PROVENANCE
        assert loaded[1].provenance is None
        assert loaded[0].position == (1.0, 2.0)
        assert loaded[0].quality_level == "full"

    def test_header_survives(self, tmp_path):
        path = tmp_path / "fixes.jsonl"
        header = FixLogHeader(environment="hall", seed=9, description="run")
        write_fix_log(path, [some_fix()], header)
        assert read_fix_log_header(path) == header

    def test_first_line_is_a_versioned_header(self, tmp_path):
        path = tmp_path / "fixes.jsonl"
        write_fix_log(path, [])
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == FIXLOG_KIND
        assert first["schema"] == FIXLOG_SCHEMA

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(RecordingError, match="cannot open"):
            list(read_fix_log(tmp_path / "absent.jsonl"))

    def test_foreign_header_raises(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"kind": "something-else", "schema": 1}\n')
        with pytest.raises(RecordingError, match="header"):
            read_fix_log_header(path)

    def test_future_schema_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"kind": FIXLOG_KIND, "schema": 99}) + "\n")
        with pytest.raises(RecordingError, match="unsupported schema"):
            list(read_fix_log(path))

    def test_truncated_line_names_its_number(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        write_fix_log(path, [some_fix(0, PROVENANCE)])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordingError, match="line 2"):
            list(read_fix_log(path))

    def test_record_with_retired_spectral_path_fields_loads(self, tmp_path):
        # Fix logs written before the scalar fallback was removed carry
        # ``spectral_path`` and ``scalar_fallbacks``; they still load,
        # and the retired keys are dropped.
        path = tmp_path / "old.jsonl"
        write_fix_log(path, [some_fix(0, PROVENANCE)])
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["provenance"]["spectral_path"] = "mixed"
        record["provenance"]["scalar_fallbacks"] = ["r1"]
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        (loaded,) = read_fix_log(path)
        assert loaded.provenance == PROVENANCE
        assert "spectral_path" not in loaded.provenance.to_dict()

    def test_logs_without_closed_by_load_as_none(self, tmp_path):
        path = tmp_path / "old.jsonl"
        write_fix_log(path, [some_fix(0, PROVENANCE)])
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        del record["provenance"]["closed_by"]
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        (loaded,) = read_fix_log(path)
        assert loaded.provenance.closed_by is None
        assert loaded.provenance == dataclasses.replace(
            PROVENANCE, closed_by=None
        )

    def test_crash_leaves_parseable_prefix(self, tmp_path):
        # Header goes to disk eagerly: a writer that never appends (a
        # crash before the first fix) still leaves a valid, empty log.
        from repro.stream import FixLogWriter

        path = tmp_path / "crash.jsonl"
        FixLogWriter(path).close()
        assert list(read_fix_log(path)) == []


class TestRing:
    def test_capacity_evicts_oldest(self):
        ring = ProvenanceRing(capacity=3)
        for i in range(5):
            ring.push(some_fix(i))
        assert len(ring) == 3
        assert [r["index"] for r in ring.recent()] == [2, 3, 4]
        assert [r["index"] for r in ring.recent(limit=1)] == [4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(RecordingError, match="capacity"):
            ProvenanceRing(capacity=0)


@pytest.fixture(scope="module")
def deployment():
    scene = hall_scene(rng=25, num_tags=4, num_antennas=4)
    dwatch = DWatch(scene, cell_size=0.1)
    dwatch.calibrate(rng=26)
    session = MeasurementSession(scene, rng=27)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    return scene, dwatch


class TestRunnerIntegration:
    def test_every_fix_carries_provenance(self, deployment):
        scene, dwatch = deployment
        runner = StreamRunner(dwatch)
        reads = synthetic_reads(scene, SyntheticStreamConfig(fixes=3), rng=28)
        fixes = list(runner.run(iter(reads)))
        assert fixes
        # The first window waits for the watermark, later complete ones
        # close early, and the end of the stream flushes the last.
        assert [f.provenance.closed_by for f in fixes] == [
            "watermark", "complete", "flush"
        ]
        for fix in fixes:
            assert fix.provenance is not None
            assert fix.provenance.window_index == fix.index
            names = [r.name for r in fix.provenance.readers]
            assert names == sorted(r.name for r in scene.readers)
            assert all(r.role in READER_ROLES for r in fix.provenance.readers)

    def test_healthy_stream_contributes_all_readers_batched(self, deployment):
        scene, dwatch = deployment
        runner = StreamRunner(dwatch)
        reads = synthetic_reads(scene, SyntheticStreamConfig(fixes=2), rng=29)
        fixes = list(runner.run(iter(reads)))
        final = fixes[-1].provenance
        assert final.active_faults == ()
        assert set(final.contributing) == {r.name for r in scene.readers}
        assert final.checkpoint_lineage == ()
        assert final.watermark_s is not None

    def test_chaos_faults_are_stamped(self, deployment):
        scene, dwatch = deployment
        plan = chaos_plan("reader-loss", scene, fixes=3, seed=3)
        injector = FaultInjector(plan, scene_schedules(scene))
        runner = StreamRunner(dwatch)
        runner.fault_probe = injector.active_kinds
        reads = synthetic_reads(scene, SyntheticStreamConfig(fixes=3), rng=30)
        fixes = list(runner.run(injector.inject(reads)))
        stamped = [f for f in fixes if "outage" in f.provenance.active_faults]
        assert stamped  # the outage overlapped at least one fix window

    def test_restored_runner_stamps_lineage(self, deployment):
        scene, dwatch = deployment
        runner = StreamRunner(dwatch)
        reads = synthetic_reads(scene, SyntheticStreamConfig(fixes=2), rng=31)
        list(runner.run(iter(reads)))
        state = checkpoint_state(runner)
        resumed = StreamRunner(dwatch)
        restore_state(resumed, state)
        more = synthetic_reads(scene, SyntheticStreamConfig(fixes=1), rng=32)
        fixes = list(resumed.run(iter(more)))
        expected = (checkpoint_id(state),)
        for fix in fixes:
            assert fix.provenance.checkpoint_lineage == expected
