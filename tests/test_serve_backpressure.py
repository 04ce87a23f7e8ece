"""Ingest admission control: shed watermarks, backpressure acks, waits.

Two layers:

* protocol + publisher semantics against a scripted server (exact
  control over which acks come back, no pipeline builds);
* one end-to-end shed through a real stalled shard, proving the
  watermark fires and that honoring the acks loses **zero** reads.
"""

import socketserver
import threading
import time

import pytest

from repro.errors import SourceUnavailableError
from repro.serve import protocol
from repro.serve.publisher import ReadPublisher
from repro.serve.registry import DeploymentRegistry, DeploymentSpec
from repro.serve.shard import Admission, DeploymentShard, build_runner
from repro.serve.supervisor import ShardSupervisor
from repro.sim.environments import hall_scene
from repro.stream.events import TagRead
from repro.stream.provenance import fix_record
from repro.stream.synthetic import SyntheticStreamConfig, synthetic_reads


def read(n):
    return TagRead(reader_name="r", epc=f"tag-{n}", time_s=float(n), iq=1j)


class TestAckFrames:
    def test_ok_ack_is_byte_identical_to_schema_one(self):
        # Backward compatibility: old clients never see the new keys.
        assert protocol.batch_ack_frame(7, 12, 0) == {
            "op": "ack",
            "seq": 7,
            "accepted": 12,
            "dropped": 0,
        }

    def test_backpressure_ack_carries_the_hint(self):
        ack = protocol.batch_ack_frame(
            7, 0, 0, status="backpressure", retry_after_s=0.25
        )
        assert ack["status"] == "backpressure"
        assert ack["retry_after_s"] == 0.25
        assert ack["accepted"] == 0


class TestAdmission:
    def test_unpacks_as_the_historical_pair(self):
        accepted, dropped = Admission(5, 1)
        assert (accepted, dropped) == (5, 1)

    def test_shed_defaults_off(self):
        verdict = Admission(5, 0)
        assert not verdict.shed
        assert verdict.retry_after_s is None


class _ScriptedHandler(socketserver.StreamRequestHandler):
    """Acks the handshake, then plays the server's scripted verdicts."""

    def handle(self):
        self.connection.settimeout(5.0)
        frame = protocol.read_frame(self.rfile)
        hello = protocol.parse_hello(frame)
        protocol.write_frame(
            self.wfile, protocol.ack_frame(deployment=hello.deployment)
        )
        while True:
            frame = protocol.read_frame(self.rfile)
            if frame is None or frame.get("op") == "bye":
                return
            seq = int(frame.get("seq", -1))
            reads = frame.get("reads", [])
            script = self.server.script  # type: ignore[attr-defined]
            verdict = script.pop(0) if script else "ok"
            if verdict == "backpressure":
                ack = protocol.batch_ack_frame(
                    seq, 0, 0, status="backpressure", retry_after_s=0.01
                )
            else:
                ack = protocol.batch_ack_frame(seq, len(reads), 0)
            protocol.write_frame(self.wfile, ack)


class _ScriptedServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


@pytest.fixture()
def scripted():
    """(address, script) — mutate ``script`` before publishing."""
    server = _ScriptedServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    thread = threading.Thread(
        target=server.serve_forever, name="test-scripted-ingest", daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestPublisherHonorsBackpressure:
    def test_waits_then_resends_the_same_batch(self, scripted):
        scripted.script[:] = ["backpressure", "backpressure", "ok"]
        sleeps = []
        publisher = ReadPublisher(
            *scripted.server_address,
            deployment="dep-a",
            readers=("r",),
            sleep=sleeps.append,
        )
        accepted, dropped = publisher.publish([read(0), read(1)], batch_size=2)
        assert (accepted, dropped) == (2, 0)
        assert publisher.backpressure_waits == 2
        # The advertised hint is exactly what was slept.
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.01)]
        # Backpressure did not consume the reconnect budget or skew RTTs.
        assert publisher.batches_acked == 1
        assert len(publisher.rtts_ms) == 1

    def test_gives_up_after_the_wait_bound(self, scripted):
        scripted.script[:] = ["backpressure"] * 10
        publisher = ReadPublisher(
            *scripted.server_address,
            deployment="dep-a",
            readers=("r",),
            sleep=lambda _s: None,
            max_backpressure_waits=3,
        )
        with pytest.raises(SourceUnavailableError, match="backpressure"):
            publisher.publish([read(0)], batch_size=1)
        assert publisher.backpressure_waits == 3

    def test_plain_acks_skip_the_backpressure_path(self, scripted):
        publisher = ReadPublisher(
            *scripted.server_address,
            deployment="dep-a",
            readers=("r",),
            sleep=lambda _s: None,
        )
        accepted, dropped = publisher.publish(
            [read(n) for n in range(6)], batch_size=2
        )
        assert (accepted, dropped) == (6, 0)
        assert publisher.backpressure_waits == 0


class TestRealShardSheds:
    """End-to-end: a wedged worker backs the queue past the watermark."""

    @pytest.fixture(scope="class")
    def shed_run(self):
        registry = DeploymentRegistry()
        registry.register(
            DeploymentSpec(
                deployment_id="dep-shed",
                seed=23,
                num_tags=2,
                num_antennas=2,
                num_readers=2,
            )
        )
        supervisor = ShardSupervisor(
            registry,
            workers="thread",
            ingress_capacity=64,
            shed_watermark=0.25,
            shed_retry_after_s=0.05,
        )
        supervisor.start()
        result = {}
        try:
            batch = [read(n) for n in range(8)]
            # Wedge the worker so nothing drains, then pour until the
            # watermark trips.
            supervisor.stall("dep-shed", 2.0)
            verdicts = []
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                verdict = supervisor.route("dep-shed", batch)
                verdicts.append(verdict)
                if verdict.shed:
                    break
            result["verdicts"] = verdicts
            # Once the worker resumes and drains, admission reopens.
            deadline = time.monotonic() + 15.0
            reopened = None
            while time.monotonic() < deadline:
                reopened = supervisor.route("dep-shed", batch)
                if not reopened.shed:
                    break
                time.sleep(0.05)
            result["reopened"] = reopened
        finally:
            supervisor.stop(drain=True)
        return result

    def test_watermark_sheds_instead_of_dropping(self, shed_run):
        final = shed_run["verdicts"][-1]
        assert final.shed
        assert final.accepted == 0
        assert final.dropped == 0  # shed is a refusal, not a loss

    def test_shed_verdict_advertises_a_positive_hint(self, shed_run):
        final = shed_run["verdicts"][-1]
        assert final.retry_after_s is not None
        assert final.retry_after_s > 0.0

    def test_earlier_batches_were_accepted_normally(self, shed_run):
        first = shed_run["verdicts"][0]
        assert not first.shed
        assert first.accepted == 8

    def test_admission_reopens_after_the_drain(self, shed_run):
        assert shed_run["reopened"] is not None
        assert not shed_run["reopened"].shed


class TestStalledBacklogLosesNoAckedRead:
    """A stall lets acked reads pile up past the runner queue's bound."""

    SPEC = DeploymentSpec(
        deployment_id="dep-backlog",
        seed=41,
        num_tags=3,
        num_antennas=3,
        num_readers=2,
    )

    @pytest.fixture(scope="class")
    def backlog_run(self):
        spec = self.SPEC
        scene = hall_scene(
            rng=spec.seed,
            num_tags=spec.num_tags,
            num_antennas=spec.num_antennas,
            num_readers=spec.num_readers,
        )
        reads = list(
            synthetic_reads(
                scene, SyntheticStreamConfig(fixes=30), rng=spec.seed + 3
            )
        )
        shard = DeploymentShard(spec).start()
        try:
            deadline = time.monotonic() + 60.0
            while shard.state != "live" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert shard.state == "live"
            shard.stall(1.0)
            verdicts = [
                shard.route(reads[start : start + 500])
                for start in range(0, len(reads), 500)
            ]
        finally:
            shard.stop(drain=True)
        runner = shard._runner
        assert runner is not None
        return {
            "reads": reads,
            "verdicts": verdicts,
            "runner_capacity": runner.queue.capacity,
            "runner_dropped": runner.queue.stats.dropped,
            "records": shard.fix_records(),
        }

    def test_every_read_was_acked(self, backlog_run):
        verdicts = backlog_run["verdicts"]
        assert not any(verdict.shed for verdict in verdicts)
        assert sum(verdict.accepted for verdict in verdicts) == len(
            backlog_run["reads"]
        )
        # The backlog outgrows the runner queue, which is the hazard.
        assert len(backlog_run["reads"]) > backlog_run["runner_capacity"]

    def test_runner_queue_drops_nothing(self, backlog_run):
        assert backlog_run["runner_dropped"] == 0

    def test_fixes_match_an_in_process_replay(self, backlog_run):
        runner = build_runner(self.SPEC)
        expected = [fix_record(fix) for fix in runner.run(backlog_run["reads"])]
        assert backlog_run["records"] == expected
