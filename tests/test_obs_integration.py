"""Observability integration: the instrumented pipeline end to end.

The load-bearing guarantee: with observability disabled (the default)
the pipeline's numeric output is **bit-identical** to an observed run
on the same seed — the instrumentation touches no randomness and no
numbers, only clocks and counters.
"""

import pytest

from repro import obs
from repro.core.pipeline import DWatch
from repro.obs.trace import load_trace_jsonl
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.sim.target import human_target


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.shutdown()
    yield
    obs.shutdown()


def run_pipeline(enabled: bool, trace_file=None):
    """One full calibrate/baseline/localize run on a fixed seed."""

    def body():
        scene = hall_scene(rng=21)
        dwatch = DWatch(scene)
        dwatch.calibrate(rng=22)
        session = MeasurementSession(scene, rng=23)
        dwatch.collect_baseline([session.capture() for _ in range(2)])
        # Targets on tag-to-array lines are guaranteed to shadow paths;
        # try a few until one localizes (not every midpoint is covered
        # by two readers).
        for tag in scene.tags[:6]:
            for reader in scene.readers[:2]:
                position = (tag.position + reader.array.centroid) / 2.0
                if not scene.room.contains(position, margin=0.5):
                    continue
                target = human_target(position)
                estimates = dwatch.localize(session.capture([target]))
                if estimates:
                    return estimates
        return []

    if not enabled:
        return body(), None
    with obs.observed(trace_file=trace_file) as state:
        estimates = body()
    return estimates, state


class TestBitIdenticalRegression:
    def test_localize_identical_with_obs_on_and_off(self):
        plain, _ = run_pipeline(enabled=False)
        observed, _ = run_pipeline(enabled=True)
        assert len(plain) == len(observed)
        for a, b in zip(plain, observed):
            # Bitwise equality, not approximate: observability must not
            # perturb a single float anywhere in the pipeline.
            assert a.position.x == b.position.x
            assert a.position.y == b.position.y
            assert a.likelihood == b.likelihood
            assert a.per_reader_angles == b.per_reader_angles


class TestPipelineTelemetry:
    def test_stage_spans_cover_the_workflow(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        _, state = run_pipeline(enabled=True, trace_file=trace)
        names = {record["name"] for record in load_trace_jsonl(trace)}
        # The four workflow steps of Section 4.4, by span name.
        assert "pipeline.calibrate" in names
        assert "pipeline.baseline" in names
        assert "pipeline.evidence" in names
        assert "pipeline.localize" in names
        # And the inner stages: every P-MUSIC spectrum comes from the
        # batched kernel.
        assert "batch.eigendecomposition" in names
        assert "batch.pmusic" in names
        assert "calibration.ga" in names
        assert "calibration.polish" in names
        assert "grid.modes" in names

    def test_metrics_registry_sees_the_run(self):
        _, state = run_pipeline(enabled=True)
        snap = {r["name"]: r for r in state.registry.snapshot()}
        assert snap["pipeline.fixes"]["value"] >= 1.0
        assert snap["grid.cells_evaluated"]["value"] > 0.0
        assert snap["pmusic.peaks_found"]["value"] > 0.0
        assert snap["calibration.residual"]["count"] >= 1
        assert snap["latency.pipeline.localize"]["count"] >= 1

    def test_trace_tree_is_well_formed(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        run_pipeline(enabled=True, trace_file=trace)
        records = load_trace_jsonl(trace)
        by_id = {record["span_id"]: record for record in records}
        for record in records:
            parent = record["parent_id"]
            if parent is not None:
                assert parent in by_id
                # Children stay within their root's trace.
                assert by_id[parent]["trace_id"] == record["trace_id"]
            assert record["duration_ms"] >= 0.0
