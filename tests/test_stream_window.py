"""Event-time window assembly: reassembly, closing, lateness, torn sweeps."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import DWatch
from repro.errors import ConfigurationError, StreamError
from repro.rfid.hub import AntennaHub
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementConfig, MeasurementSession
from repro.stream import StreamRunner
from repro.stream.events import TagRead
from repro.stream.synthetic import (
    SyntheticStreamConfig,
    measurement_reads,
    synthetic_reads,
)
from repro.stream.window import (
    SnapshotWindow,
    WindowAssembler,
    WindowConfig,
    sweep_slot,
)

NUM_ANTENNAS = 4
SCHEDULE = AntennaHub(num_antennas=NUM_ANTENNAS).sweep_schedule()
SWEEP_S = SCHEDULE.duration
SLOT_S = AntennaHub(num_antennas=NUM_ANTENNAS).slot_duration_s


def make_assembler(sweeps_per_window=2, lateness_s=None):
    return WindowAssembler(
        {"r": SCHEDULE},
        WindowConfig(sweeps_per_window=sweeps_per_window, lateness_s=lateness_s),
    )


def sweep_reads(sweep_index, epc="tag", value=None, antennas=None):
    """One sweep of reads for ``epc``, slot-timestamped (all antennas by default)."""
    return [
        TagRead(
            reader_name="r",
            epc=epc,
            time_s=sweep_index * SWEEP_S + m * SLOT_S,
            iq=value if value is not None else complex(sweep_index, m),
        )
        for m in (range(NUM_ANTENNAS) if antennas is None else antennas)
    ]


def interleave(*sweeps):
    """Reads of several per-tag sweeps merged into event-time order."""
    return sorted(
        (read for sweep in sweeps for read in sweep), key=lambda r: r.time_s
    )


def push_all(assembler, reads):
    emitted = []
    for read in reads:
        emitted.extend(assembler.push(read))
    return emitted


class TestConfig:
    def test_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(sweeps_per_window=0)

    def test_rejects_negative_lateness(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(lateness_s=-0.1)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(window_duration_s=0.0)

    def test_assembler_needs_readers(self):
        with pytest.raises(ConfigurationError):
            WindowAssembler({})


class TestAssembly:
    def test_in_order_stream_emits_complete_windows(self):
        assembler = make_assembler(sweeps_per_window=2)
        emitted = []
        for sweep in range(6):
            for read in sweep_reads(sweep):
                emitted.extend(assembler.push(read))
        # Watermark (one sweep of lateness by default) has passed the
        # first two windows; window 2 is still pending.
        assert [w.index for w in emitted] == [0, 1]
        window = emitted[0]
        assert isinstance(window, SnapshotWindow)
        assert window.sweeps == 2
        matrix = window.measurement.matrix("r", "tag")
        assert matrix.shape == (NUM_ANTENNAS, 2)
        # Column t, row m carries the sample of sweep t, antenna m.
        expected = np.array(
            [[complex(t, m) for t in range(2)] for m in range(NUM_ANTENNAS)]
        )
        np.testing.assert_array_equal(matrix, expected)

    def test_flush_emits_pending_windows(self):
        assembler = make_assembler(sweeps_per_window=2)
        for read in sweep_reads(0):
            assembler.push(read)
        windows = assembler.flush()
        assert [w.index for w in windows] == [0]
        assert windows[0].sweeps == 1  # only one sweep arrived

    def test_final_slot_boundary_read_stays_in_its_sweep(self):
        # A read stamped exactly at a sweep boundary belongs to the
        # *preceding* sweep's final antenna only if it lands inside the
        # half-open slot; exactly on the boundary starts the next sweep.
        assembler = make_assembler(sweeps_per_window=1)
        boundary = TagRead(reader_name="r", epc="tag", time_s=SWEEP_S, iq=1j)
        assembler.push(boundary)
        windows = assembler.flush()
        # One sweep (index 1) with one antenna: torn, so no matrix.
        assert windows == [] or all(w.sweeps == 0 for w in windows)
        assert assembler.torn_sweeps == 1

    def test_unknown_reader_raises_stream_error(self):
        assembler = make_assembler()
        with pytest.raises(StreamError, match="unknown reader"):
            assembler.push(
                TagRead(reader_name="ghost", epc="tag", time_s=0.0, iq=0j)
            )

    def test_negative_time_raises_stream_error(self):
        assembler = make_assembler()
        with pytest.raises(StreamError, match="negative"):
            assembler.push(
                TagRead(reader_name="r", epc="tag", time_s=-1e-3, iq=0j)
            )

    def test_duplicate_slot_reads_are_counted(self):
        assembler = make_assembler()
        first = sweep_reads(0)[0]
        assembler.push(first)
        assembler.push(first)
        assert assembler.duplicate_reads == 1


class TestLateness:
    def test_out_of_order_within_bound_is_admitted(self):
        assembler = make_assembler(sweeps_per_window=2, lateness_s=SWEEP_S)
        reads = sweep_reads(0) + sweep_reads(1)
        # Deliver the first sweep's reads *after* the second sweep's.
        reordered = reads[NUM_ANTENNAS:] + reads[:NUM_ANTENNAS]
        emitted = []
        for read in reordered:
            emitted.extend(assembler.push(read))
        emitted.extend(assembler.flush())
        assert assembler.late_reads == 0
        assert [w.index for w in emitted] == [0]
        assert emitted[0].sweeps == 2

    def test_reads_beyond_lateness_bound_are_dropped_and_counted(self):
        assembler = make_assembler(sweeps_per_window=1, lateness_s=0.0)
        emitted = []
        for read in sweep_reads(0) + sweep_reads(1):
            emitted.extend(assembler.push(read))
        # Window 0 has been emitted; a straggler from it is late.
        assert [w.index for w in emitted] == [0]
        straggler = sweep_reads(0)[1]
        assert assembler.push(straggler) == []
        assert assembler.late_reads == 1
        # Late reads never mutate already-emitted windows.
        assert emitted[0].measurement.matrix("r", "tag").shape == (NUM_ANTENNAS, 1)

    def test_torn_sweeps_are_counted_and_excluded(self):
        assembler = make_assembler(sweeps_per_window=2)
        reads = sweep_reads(0) + sweep_reads(1)[:-1]  # sweep 1 misses a slot
        for read in reads:
            assembler.push(read)
        windows = assembler.flush()
        assert windows[0].sweeps == 1
        assert windows[0].torn_sweeps == 1
        assert assembler.torn_sweeps == 1


class TestCompletenessClose:
    """A complete window closes on the first read past its end."""

    def primed(self, epcs, next_epcs=None):
        """An assembler whose window 0 (full sweeps of ``epcs``) closed.

        Window 1 holds sweep 2 of ``next_epcs`` (default ``epcs``) and
        the first read of sweep 3 of its first tag.
        """
        next_epcs = epcs if next_epcs is None else next_epcs
        assembler = make_assembler(sweeps_per_window=2)
        closed = push_all(
            assembler,
            interleave(*(sweep_reads(s, e) for s in (0, 1) for e in epcs))
            + interleave(*(sweep_reads(2, e) for e in next_epcs))
            + sweep_reads(3, next_epcs[0])[:1],
        )
        assert [(w.index, w.closed_by) for w in closed] == [(0, "watermark")]
        return assembler

    def test_in_order_stream_closes_on_first_read_of_next_window(self):
        assembler = make_assembler(sweeps_per_window=2)
        closes = []
        for sweep in range(6):
            for read in sweep_reads(sweep):
                closes.extend(
                    (sweep, read.time_s, w.index, w.closed_by)
                    for w in assembler.push(read)
                )
        # Window 0 has no history and waits one lateness bound (the
        # first read of sweep 3); window 1 closes on the very first
        # read of sweep 4, window 2 would on the first read of sweep 6.
        assert closes == [
            (3, 3 * SWEEP_S, 0, "watermark"),
            (4, 4 * SWEEP_S, 1, "complete"),
        ]

    def test_first_window_waits_for_the_watermark(self):
        assembler = make_assembler(sweeps_per_window=2)
        assert push_all(assembler, sweep_reads(0) + sweep_reads(1)) == []
        assert push_all(assembler, sweep_reads(2)[:1]) == []
        (window,) = push_all(assembler, sweep_reads(3)[:1])
        assert (window.index, window.closed_by) == (0, "watermark")

    def test_expected_pair_with_a_torn_sweep_waits(self):
        assembler = self.primed(("a", "b"))
        rest = interleave(
            sweep_reads(3, "a")[1:], sweep_reads(3, "b", antennas=[0, 1, 2])
        )
        assert push_all(assembler, rest) == []
        assert push_all(assembler, sweep_reads(4, "a")[:1]) == []
        (window,) = push_all(assembler, sweep_reads(5, "a")[:1])
        assert (window.index, window.closed_by) == (1, "watermark")
        assert window.torn_sweeps == 1

    def test_expected_pair_gone_silent_waits(self):
        assembler = self.primed(("a", "b"), ("a",))
        assert push_all(assembler, sweep_reads(3, "a")[1:]) == []
        assert push_all(assembler, sweep_reads(4, "a")[:1]) == []
        (window,) = push_all(assembler, sweep_reads(5, "a")[:1])
        assert window.closed_by == "watermark"
        assert window.measurement.tags_for("r") == ["a"]

    def test_new_pair_joins_the_expected_set(self):
        # Tag c is new in window 1 and has a full column there, so it
        # must complete: its torn sweep 3 holds the window back.
        assembler = self.primed(("a",), ("a", "c"))
        push_all(
            assembler,
            interleave(
                sweep_reads(3, "a")[1:], sweep_reads(3, "c", antennas=[0, 2, 3])
            ),
        )
        assert push_all(assembler, sweep_reads(4, "a")[:1]) == []
        (window,) = push_all(assembler, sweep_reads(5, "a")[:1])
        assert (window.index, window.closed_by) == (1, "watermark")

    def test_new_pair_that_completes_closes_the_window(self):
        assembler = self.primed(("a",), ("a", "c"))
        push_all(
            assembler, interleave(sweep_reads(3, "a")[1:], sweep_reads(3, "c"))
        )
        (window,) = push_all(assembler, sweep_reads(4, "a")[:1])
        assert (window.index, window.closed_by) == (1, "complete")
        assert window.measurement.tags_for("r") == ["a", "c"]

    def test_partial_only_pair_does_not_block(self):
        assembler = self.primed(("a",))
        push_all(
            assembler,
            interleave(
                sweep_reads(3, "a")[1:],
                sweep_reads(2, "junk", antennas=[1]),
                sweep_reads(3, "junk", antennas=[0, 2]),
            ),
        )
        (window,) = push_all(assembler, sweep_reads(4, "a")[:1])
        assert (window.index, window.closed_by) == (1, "complete")
        assert window.measurement.tags_for("r") == ["a"]
        assert window.torn_sweeps == 2

    def test_verdict_is_memoised(self):
        # Judged incomplete at the first read past its end, the window
        # waits for the watermark even once a straggler completes it.
        assembler = self.primed(("a",))
        push_all(assembler, sweep_reads(3, "a")[1:3])
        assert push_all(assembler, sweep_reads(4, "a")[:1]) == []
        assert push_all(assembler, sweep_reads(3, "a")[3:]) == []
        assert push_all(assembler, sweep_reads(4, "a")[1:]) == []
        (window,) = push_all(assembler, sweep_reads(5, "a")[:1])
        assert (window.closed_by, window.sweeps) == ("watermark", 2)

    def test_straddling_sweep_does_not_block_a_time_based_window(self):
        # 2.5-sweep windows: sweep 2 straddles the edge of windows 0 and
        # 1 and is torn on both sides; window 1 needs sweeps 3 and 4.
        assembler = WindowAssembler(
            {"r": SCHEDULE}, WindowConfig(window_duration_s=2.5 * SWEEP_S)
        )
        closes = [
            (read.time_s, w.index, w.closed_by)
            for sweep in range(6)
            for read in sweep_reads(sweep)
            for w in assembler.push(read)
        ]
        assert closes == [
            (3 * SWEEP_S + 2 * SLOT_S, 0, "watermark"),
            (5 * SWEEP_S, 1, "complete"),
        ]
        assert assembler.torn_sweeps == 2

    def test_flush_closes_say_so(self):
        assembler = make_assembler(sweeps_per_window=2)
        push_all(assembler, sweep_reads(0))
        (window,) = assembler.flush()
        assert window.closed_by == "flush"


#: A 3-antenna reader on a shorter sweep than "r": with 2-sweep windows
#: of "r", its sweeps straddle window edges.
SHORT_SCHEDULE = AntennaHub(num_antennas=3, slot_duration_s=0.7 * SLOT_S).sweep_schedule()


def stream_reads(seed, num_windows, extras):
    """An in-order stream with dropped reads, adjacent duplicates and extra pairs."""
    rng = np.random.default_rng(seed)
    end = num_windows * 2 * SWEEP_S
    reads = []
    for reader, schedule, epcs in (
        ("r", SCHEDULE, ["a", "b"] + [f"x{i}" for i in range(extras)]),
        ("q", SHORT_SCHEDULE, ["a", "c"]),
    ):
        sweep = 0
        while sweep * schedule.duration < end:
            for epc in epcs:
                # Extra pairs show up for a random stretch only.
                if epc.startswith("x") and rng.random() < 0.5:
                    continue
                for antenna, start, _ in schedule.slots:
                    reads.append(
                        TagRead(
                            reader_name=reader,
                            epc=epc,
                            time_s=sweep * schedule.duration + start,
                            iq=complex(rng.normal(), rng.normal()),
                        )
                    )
            sweep += 1
    reads.sort(key=lambda r: r.time_s)
    kept = []
    for read in reads:
        draw = rng.random()
        if draw < 0.02:
            continue  # dropped
        kept.append(read)
        if draw > 0.98:
            kept.append(read)  # adjacent duplicate
    return kept


def canonical(windows):
    return [
        (
            w.index,
            w.start_s,
            w.end_s,
            w.sweeps,
            w.reads,
            w.torn_sweeps,
            sorted(
                (reader, epc, matrix.tolist())
                for reader, tags in w.measurement.snapshots.items()
                for epc, matrix in tags.items()
            ),
        )
        for w in windows
    ]


class TestCloseProperty:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_push_equals_flush_only_for_in_order_streams(
        self, seed, num_windows, extras
    ):
        reads = stream_reads(seed, num_windows, extras)
        schedules = {"r": SCHEDULE, "q": SHORT_SCHEDULE}
        live = WindowAssembler(schedules, WindowConfig(sweeps_per_window=2))
        windows = push_all(live, reads) + live.flush()
        # Infinite lateness and no history: window 0 never closes
        # before flush, and every later window queues behind it.
        oracle = WindowAssembler(
            schedules, WindowConfig(sweeps_per_window=2, lateness_s=math.inf)
        )
        assert push_all(oracle, reads) == []
        assert canonical(windows) == canonical(oracle.flush())
        assert live.late_reads == 0


def messy(reads, seed):
    """``reads`` reordered within the lateness bound, with rejects and stragglers."""
    rng = np.random.default_rng(seed)
    out = list(reads)
    for k in rng.integers(0, len(out) - 1, size=len(out) // 10):
        out[k], out[k + 1] = out[k + 1], out[k]
    for k in sorted(rng.integers(0, len(out), size=12), reverse=True):
        kind = int(rng.integers(0, 4))
        read = out[k]
        if kind == 0:
            bad = TagRead("ghost", read.epc, read.time_s, read.iq)
        elif kind == 1:
            bad = TagRead(read.reader_name, read.epc, math.nan, read.iq)
        elif kind == 2:
            bad = TagRead(read.reader_name, read.epc, read.time_s, complex(math.inf, 0))
        else:
            # A straggler from three sweeps back: late once its window closed.
            bad = TagRead(read.reader_name, read.epc, max(0.0, read.time_s - 3 * SWEEP_S), read.iq)
        out.insert(k, bad)
    return out


def push_each(assembler, reads):
    """Per read: windows closed, and whether the read was rejected."""
    emitted, rejected = [], []
    for read in reads:
        try:
            emitted.extend(assembler.push(read))
            rejected.append(False)
        except StreamError:
            rejected.append(True)
    return emitted, rejected


class TestBatchedAssembly:
    """Assembling a batch equals pushing its reads one at a time."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_chunking_equals_per_read_pushes(self, seed, num_windows, extras, size):
        reads = messy(stream_reads(seed, num_windows, extras), seed)
        schedules = {"r": SCHEDULE, "q": SHORT_SCHEDULE}
        config = WindowConfig(sweeps_per_window=2)
        single = WindowAssembler(schedules, config)
        want, want_rejected = push_each(single, reads)
        batched = WindowAssembler(schedules, config)
        rng = np.random.default_rng(seed + 1)
        got, got_rejected, start = [], [], 0
        while start < len(reads):
            stop = start + int(rng.integers(1, size + 1))
            windows, rejected = batched.assemble(batched.columns(reads[start:stop]))
            got.extend(windows)
            got_rejected.extend(bool(code) for code in rejected)
            start = stop
        assert canonical(got) == canonical(want)
        assert [w.closed_by for w in got] == [w.closed_by for w in want]
        assert [w.watermark_s for w in got] == [w.watermark_s for w in want]
        assert got_rejected == want_rejected
        for counter in ("late_reads", "duplicate_reads", "torn_sweeps"):
            assert getattr(batched, counter) == getattr(single, counter)
        assert batched.pending_cells() == single.pending_cells()
        assert canonical(batched.flush()) == canonical(single.flush())

    @given(st.lists(st.floats(min_value=0.0, max_value=50 * SWEEP_S), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_slot_lookup_equals_sweep_slot(self, times):
        # Slot edges included: every read lands where sweep_slot, the
        # per-read reference the fault injector uses, puts it.
        edges = [k * SLOT_S for k in range(20)] + [k * 0.7 * SLOT_S for k in range(20)]
        schedules = {"r": SCHEDULE, "q": SHORT_SCHEDULE}
        for t in list(times) + edges:
            for name, schedule in schedules.items():
                assembler = WindowAssembler(
                    schedules, WindowConfig(sweeps_per_window=2, lateness_s=math.inf)
                )
                assembler.push(TagRead(name, "tag", t, 1j))
                ((_, _, ((_, _, ((sweep, antenna, _),)),)),) = assembler.pending_cells()
                assert (sweep, antenna) == sweep_slot(schedule, t)


@pytest.fixture(scope="module")
def tracking():
    scene = hall_scene(rng=5, num_tags=8, num_antennas=6)
    dwatch = DWatch(scene, cell_size=0.1)
    dwatch.calibrate(rng=6)
    session = MeasurementSession(scene, rng=7)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    return scene, dwatch


class TestCloseCheckpoint:
    def emissions(self, runner, reads):
        """Per poll: the (window, closed_by) pairs it emitted."""
        sequence = []
        for read in reads:
            runner.ingest(read)
            sequence.append(
                [(f.index, f.provenance.closed_by) for f in runner.poll()]
            )
        return sequence

    def test_restore_mid_window_keeps_the_close_sequence(self, tracking):
        scene, dwatch = tracking
        config = SyntheticStreamConfig(fixes=4, moving=False)
        reads = list(synthetic_reads(scene, config, rng=8))
        # Mid window 2: windows 0 and 1 are closed, 2 and 3 still due.
        cut = len(reads) * 5 // 8
        whole = self.emissions(StreamRunner(dwatch), reads)
        assert (2, "complete") in [e for poll in whole[cut:] for e in poll]

        first = StreamRunner(dwatch)
        self.emissions(first, reads[:cut])
        state = json.loads(json.dumps(first.checkpoint()))
        resumed = StreamRunner(dwatch)
        resumed.restore(state)
        assert self.emissions(resumed, reads[cut:]) == whole[cut:]

        # Without the expected set the next window waits for the
        # watermark, one sweep later than the uninterrupted run.
        del state["assembler"]["expected"]
        legacy = StreamRunner(dwatch)
        legacy.restore(state)
        assert self.emissions(legacy, reads[cut:]) != whole[cut:]


class TestMeasurementRoundtrip:
    def test_synthetic_reads_reassemble_the_exact_capture(self):
        # The acid test: flatten a real multi-reader capture into
        # slot-timestamped reads, reassemble, and demand bit-identical
        # snapshot matrices.
        scene = hall_scene(rng=3, num_tags=5, num_antennas=6)
        session = MeasurementSession(
            scene, MeasurementConfig(num_snapshots=4), rng=4
        )
        measurement = session.capture()
        assembler = WindowAssembler.for_readers(
            {reader.name: reader for reader in scene.readers},
            WindowConfig(sweeps_per_window=4),
        )
        for read in measurement_reads(measurement, scene, 0.0):
            assembler.push(read)
        windows = assembler.flush()
        assert len(windows) == 1
        rebuilt = windows[0].measurement
        assert assembler.torn_sweeps == 0
        assert sorted(rebuilt.readers()) == sorted(measurement.readers())
        for reader_name in measurement.readers():
            for epc in measurement.tags_for(reader_name):
                np.testing.assert_array_equal(
                    rebuilt.matrix(reader_name, epc),
                    measurement.matrix(reader_name, epc),
                )
