"""A stream fix is a function of the reads alone.

The same reads must give the same fix records, bit for bit, however
they reach the runner: polled after every read, per sweep, per window
or in arbitrary chunks; in processes with different hash seeds; and in
fresh runners that share one calibrated ``DWatch``, also after another
runner on it was abandoned mid-stream.  These are the checks a
benchmark applies when it compares repeated passes, or a served fix
with an in-process replay, so each test compares whole records (the
fix-log record without provenance, plus every raw estimate).

The deployment is the hall benchmark deployment: 4 readers x 6
antennas x 10 tags, 0.1 m grid, seed 71.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np
import pytest

from repro.serve.registry import DeploymentSpec
from repro.serve.shard import build_runner
from repro.sim.environments import hall_scene
from repro.stream.events import TagRead, TrackFix
from repro.stream.provenance import fix_record
from repro.stream.runner import StreamRunner
from repro.stream.synthetic import SyntheticStreamConfig, synthetic_reads

HALL = DeploymentSpec(
    deployment_id="hall-0",
    environment="hall",
    seed=71,
    num_tags=10,
    num_antennas=6,
    num_readers=4,
    cell_size=0.1,
)
WINDOWS = 24
SWEEPS = 10
READS_SEED = 5


def hall_reads() -> List[TagRead]:
    """``WINDOWS`` windows of a person walking through the hall deployment."""
    scene = hall_scene(
        rng=HALL.seed,
        num_tags=HALL.num_tags,
        num_antennas=HALL.num_antennas,
        num_readers=HALL.num_readers,
    )
    config = SyntheticStreamConfig(fixes=WINDOWS, sweeps_per_fix=SWEEPS)
    return list(synthetic_reads(scene, config, rng=READS_SEED))


def output(fix: TrackFix) -> Dict[str, Any]:
    """What a fix shows its user: the record without provenance, raw estimates."""
    record = {k: v for k, v in fix_record(fix).items() if k != "provenance"}
    record["raw"] = [
        [e.position.x, e.position.y, e.likelihood, e.normalized_likelihood]
        for e in fix.raw_estimates
    ]
    return record


def run_chunks(runner: StreamRunner, chunks: Sequence[Sequence[TagRead]]) -> List[str]:
    """Every fix of the stream as canonical JSON, one poll per chunk."""
    fixes: List[TrackFix] = []
    for chunk in chunks:
        runner.queue.put_many(chunk)
        fixes.extend(runner.poll())
    fixes.extend(runner.finish())
    return [json.dumps(output(fix), sort_keys=True) for fix in fixes]


def chunked(reads: Sequence[TagRead], sizes: Sequence[int]) -> List[Sequence[TagRead]]:
    chunks, start = [], 0
    for size in sizes:
        if start >= len(reads):
            break
        chunks.append(reads[start : start + size])
        start += size
    if start < len(reads):
        chunks.append(reads[start:])
    return chunks


def random_sizes(seed: int, total: int, low: int, high: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(low, high + 1, size=total)]


@pytest.fixture(scope="module")
def hall():
    """The hall runner's ``DWatch`` and config, the reads and the reference fixes."""
    runner = build_runner(HALL)
    reads = hall_reads()
    per_window = len(reads) // WINDOWS
    reference = run_chunks(
        StreamRunner(runner.dwatch, runner.config), chunked(reads, [per_window] * WINDOWS)
    )
    assert len(reference) == WINDOWS
    return runner.dwatch, runner.config, reads, reference


class TestPollBoundaries:
    def test_per_read_polls(self, hall):
        dwatch, config, reads, reference = hall
        runner = StreamRunner(dwatch, config)
        assert run_chunks(runner, [[read] for read in reads]) == reference

    def test_per_sweep_polls(self, hall):
        dwatch, config, reads, reference = hall
        per_sweep = len(reads) // (WINDOWS * SWEEPS)
        runner = StreamRunner(dwatch, config)
        sizes = [per_sweep] * (WINDOWS * SWEEPS)
        assert run_chunks(runner, chunked(reads, sizes)) == reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_chunks(self, hall, seed):
        dwatch, config, reads, reference = hall
        runner = StreamRunner(dwatch, config)
        sizes = random_sizes(seed, len(reads), 1, 3000)
        assert run_chunks(runner, chunked(reads, sizes)) == reference

    def test_odd_chunks(self, hall):
        dwatch, config, reads, reference = hall
        runner = StreamRunner(dwatch, config)
        assert run_chunks(runner, chunked(reads, [37] * len(reads))) == reference


class TestSharedDWatch:
    def test_fresh_runners_after_an_abandoned_pass(self, hall):
        dwatch, config, reads, reference = hall
        per_sweep = len(reads) // (WINDOWS * SWEEPS)
        # A pass cut off in the middle of a window and a sweep, as a
        # deadline would cut it, leaves nothing behind on the DWatch.
        abandoned = StreamRunner(dwatch, config)
        cut = (WINDOWS // 2) * SWEEPS * per_sweep + 3 * per_sweep + 17
        for chunk in chunked(reads[:cut], [per_sweep] * (WINDOWS * SWEEPS)):
            abandoned.queue.put_many(chunk)
            abandoned.poll()
        for _ in range(2):
            runner = StreamRunner(dwatch, config)
            sizes = [per_sweep] * (WINDOWS * SWEEPS)
            assert run_chunks(runner, chunked(reads, sizes)) == reference


#: Builds the hall runner and prints the hash of its fixes, fed in
#: seeded random chunks; run under two hash seeds.
_CHILD = """
import hashlib, sys
sys.path.insert(0, {tests!r})
import test_stream_determinism as t
from repro.serve.shard import build_runner

runner = build_runner(t.HALL)
reads = t.hall_reads()
lines = t.run_chunks(runner, t.chunked(reads, t.random_sizes(7, len(reads), 1, 3000)))
print(len(lines), hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


class TestHashSeed:
    def test_two_hash_seeds_give_the_in_process_fixes(self, hall):
        *_, reference = hall
        want = f"{len(reference)} " + hashlib.sha256(
            "\n".join(reference).encode()
        ).hexdigest()
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(__file__).resolve().parent.parent / "src")
        got = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            result = subprocess.run(
                [sys.executable, "-c", _CHILD.format(tests=tests)],
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
                check=False,
            )
            assert result.returncode == 0, result.stderr
            got.append(result.stdout.strip().splitlines()[-1])
        assert got == [want, want]

