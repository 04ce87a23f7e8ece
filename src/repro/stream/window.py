"""Event-time window assembly: from loose tag reads to snapshot windows.

Reads arrive interleaved across readers, tags and TDM antenna slots,
and — over a real network — slightly out of order.  The assembler
groups them back into the ``(M, N)`` snapshot matrices the spectral
chain consumes:

* **Sweep reconstruction** — each read's sweep index and antenna slot
  are derived from its event time via the reader's
  :class:`~repro.rfid.hub.TdmSchedule` (the final slot is
  end-inclusive, so a read stamped exactly on the sweep boundary still
  lands in the sweep).  A sweep with all ``M`` antennas present becomes
  one snapshot column; torn sweeps are counted and discarded.
* **Windowing** — sweeps are grouped into fixed-length event-time
  windows, count-based (``sweeps_per_window`` sweeps, the paper's 10
  packets per fix) or time-based (an explicit ``window_duration_s``).
* **Closing** — a *complete* window closes on the first read whose
  event time reaches its end.  Complete means every expected (reader,
  tag) pair has a full column in each sweep of its reader that lies
  wholly inside the window; the expected pairs are those with a full
  column in the last closed window plus those with one in this window,
  so a pair that never yields a full column (a dead antenna, a garbage
  EPC) does not block.  The verdict is taken once, by one scan of the
  window's cells, when that first read past its end arrives.
* **Lateness** — every other window (an incomplete one, and the first
  window of an assembler's life, which has no expected pairs yet)
  closes only once the watermark (the largest event time seen, minus
  the lateness bound) passes its end, so out-of-order reads within the
  bound still make their window.  The lateness bound is therefore the
  upper bound on how long a window waits.  Reads later than that are
  counted and dropped — never silently reordered into an
  already-emitted window.

Each emitted window says why it closed (``closed_by``: ``"complete"``,
``"watermark"`` or ``"flush"``), and the ``stream.window.closes{by}``
counter tallies the same.

Assembly is columnar.  A drained batch becomes :class:`ReadColumns`
once (reader index, time, I/Q, EPC); rejection, the late and duplicate
counts and the TDM slot lookup are array operations over it, and each
pending window is a ``(pairs, sweeps, antennas)`` cube the reads are
scattered into.  The batch is cut at the first read that can close or
judge a window, which is then handled exactly as if the reads had come
one at a time, so the windows, and every count, do not depend on how
the stream was batched.  :meth:`WindowAssembler.push` is the one-read
call of the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.typing import NDArray

from repro import obs
from repro.constants import PACKETS_PER_FIX
from repro.errors import ConfigurationError, StreamError
from repro.rfid.hub import TdmSchedule
from repro.rfid.reader import Reader
from repro.sim.measurement import Measurement
from repro.stream.events import TagRead
from repro.utils.arrays import BoolArray, ComplexArray, FloatArray, IntArray

#: Per-read rejection codes (see :data:`ACCEPTED`).
Rejections = NDArray[np.int8]

#: Relative nudge applied before flooring times into sweep/window bins.
#: Timestamps are sums of slot multiples computed in floating point, so
#: a boundary read can sit a few ulps *below* its bin edge; the nudge
#: (one part in 10^9 of a bin — ten orders of magnitude above ulp noise,
#: five below a slot) snaps it back without ever moving an interior
#: read across a bin.
_TIME_EPS = 1e-9


def sweep_slot(schedule: TdmSchedule, time_s: float) -> Tuple[int, Optional[int]]:
    """Map an event time onto the TDM grid: ``(sweep_index, antenna)``.

    Applies the same edge-clamping the assembler uses, so boundary
    timestamps land in their sweep.  ``antenna`` is ``None`` only for
    a pathological schedule whose slots do not tile the sweep — the
    caller decides whether that is a drop or an error.  Shared with
    :mod:`repro.faults`, which must agree with the assembler about
    which antenna a read belongs to.
    """
    duration = schedule.duration
    sweep_index = int(math.floor(time_s / duration + _TIME_EPS))
    offset = time_s - sweep_index * duration
    # Clamp round-off at the sweep edges: the final slot of a sweep is
    # end-inclusive (see TdmSchedule.antenna_at), the first starts at
    # exactly zero.
    offset = min(max(offset, 0.0), duration)
    antenna = schedule.try_antenna_at(
        min(offset + duration * _TIME_EPS, duration)
    )
    return sweep_index, antenna


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the snapshot windows the assembler emits.

    Parameters
    ----------
    sweeps_per_window:
        Count-based window length: how many full antenna sweeps feed
        one fix (the paper collects 10 backscatter packets per fix).
    window_duration_s:
        Time-based window length; overrides the count-based length
        when set.
    lateness_s:
        How far behind the watermark an out-of-order read may arrive
        and still be admitted.  Defaults to one sweep duration.
    """

    sweeps_per_window: int = PACKETS_PER_FIX
    window_duration_s: Optional[float] = None
    lateness_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sweeps_per_window < 1:
            raise ConfigurationError("a window needs at least one sweep")
        if self.window_duration_s is not None and self.window_duration_s <= 0.0:
            raise ConfigurationError("window duration must be positive")
        if self.lateness_s is not None and self.lateness_s < 0.0:
            raise ConfigurationError("lateness bound cannot be negative")


#: Why :meth:`WindowAssembler.assemble` rejected a read (0: it did not).
ACCEPTED, UNKNOWN_READER, NOT_FINITE, OUTSIDE_SLOTS = 0, 1, 2, 3

_REJECTIONS = {
    UNKNOWN_READER: "read references an unknown reader",
    NOT_FINITE: "read carries a negative or non-finite time or I/Q value",
    OUTSIDE_SLOTS: "read falls outside every TDM slot of its reader",
}


@dataclass(frozen=True, eq=False)
class ReadColumns:
    """A batch of reads as columns, built once per drained batch.

    ``reader`` indexes ``readers`` (``-1`` for a reader outside it);
    ``epc`` indexes ``epcs``, the batch's distinct EPCs in sorted order.
    """

    readers: Tuple[str, ...]
    reader: IntArray
    epcs: Tuple[str, ...]
    epc: IntArray
    time_s: FloatArray
    iq: ComplexArray

    @classmethod
    def of(cls, reads: Sequence[TagRead], readers: Sequence[str]) -> "ReadColumns":
        """``reads`` as columns: one pass over the read objects per column."""
        n = len(reads)
        code = {name: k for k, name in enumerate(readers)}.get
        epcs = [read.epc for read in reads]
        distinct = tuple(sorted(set(epcs)))
        epc_code = {epc: k for k, epc in enumerate(distinct)}.__getitem__
        return cls(
            readers=tuple(readers),
            reader=np.fromiter(
                (code(read.reader_name, -1) for read in reads), np.int64, n
            ),
            epcs=distinct,
            epc=np.fromiter(map(epc_code, epcs), np.int64, n),
            time_s=np.fromiter([read.time_s for read in reads], np.float64, n),
            iq=np.fromiter([read.iq for read in reads], np.complex128, n),
        )

    def __len__(self) -> int:
        return len(self.time_s)

    def take(self, mask: BoolArray) -> "ReadColumns":
        """The reads where ``mask`` holds."""
        return ReadColumns(
            self.readers,
            self.reader[mask],
            self.epcs,
            self.epc[mask],
            self.time_s[mask],
            self.iq[mask],
        )


@dataclass(frozen=True, eq=False)
class SnapshotWindow:
    """One closed window, ready for spectral estimation.

    The window's (reader, tag) pairs with at least one full sweep are
    ``pairs``, sorted.  Pair ``p``'s snapshot columns, in sweep order,
    are the last ``columns[p]`` rows of ``snapshots[p]`` (a
    ``(P, sweeps, M)`` stack, zero before them), over its reader's
    ``antennas[p]`` antennas.
    """

    index: int
    start_s: float
    end_s: float
    pairs: Tuple[Tuple[str, str], ...]
    snapshots: ComplexArray
    columns: IntArray
    antennas: IntArray
    sweeps: int
    reads: int
    torn_sweeps: int
    #: Why the window closed: ``"complete"`` (every expected pair's
    #: sweeps were in at the first read past its end), ``"watermark"``
    #: (the lateness bound ran out) or ``"flush"`` (end of stream).
    closed_by: str
    #: The assembler's watermark right after the window closed.
    watermark_s: Optional[float] = None

    @property
    def measurement(self) -> Measurement:
        """The per-(reader, tag) ``(M, N)`` matrices the batch pipeline consumes."""
        measurement = Measurement()
        for p, (reader_name, epc) in enumerate(self.pairs):
            x = self.snapshots[p, self.sweeps - self.columns[p] :, : self.antennas[p]]
            measurement.snapshots.setdefault(reader_name, {})[epc] = np.ascontiguousarray(x.T)
        return measurement


class _PendingWindow:
    """One not-yet-closed window: a ``(pairs, sweeps, antennas)`` cube.

    Row ``p`` holds pair ``keys[p]`` of reader code ``codes[p]``; sweep
    ``s`` of it is its reader's sweep ``base[reader] + s``; ``filled``
    marks the cells a read set.  ``table[code, e]`` is the row of the
    pair of reader ``code`` and the window's ``e``-th EPC (``-1``: none).
    """

    def __init__(self, base: IntArray, sweeps: int, antennas: int) -> None:
        self.base = base
        self.reads = 0
        self.keys: List[Tuple[str, str]] = []
        self.codes: List[int] = []
        self.epcs: Dict[str, int] = {}
        self.table = np.full((len(base), 16), -1, dtype=np.intp)
        self.iq = np.zeros((8, sweeps, antennas), dtype=np.complex128)
        self.filled = np.zeros((8, sweeps, antennas), dtype=bool)

    def epc(self, epc: str) -> int:
        found = self.epcs.get(epc)
        if found is None:
            found = self.epcs[epc] = len(self.epcs)
            if found == self.table.shape[1]:
                self.table = np.concatenate([self.table, np.full_like(self.table, -1)], axis=1)
        return found

    def row(self, code: int, reader_name: str, epc: str) -> int:
        column = self.epc(epc)
        found = int(self.table[code, column])
        if found < 0:
            found = self.table[code, column] = len(self.keys)
            self.keys.append((reader_name, epc))
            self.codes.append(code)
            if found == len(self.iq):
                self.iq = np.concatenate([self.iq, np.zeros_like(self.iq)])
                self.filled = np.concatenate([self.filled, np.zeros_like(self.filled)])
        return found

    def rows(self, columns: "ReadColumns", reads: IntArray, names: Sequence[str]) -> IntArray:
        """The row of each of ``reads`` (created for new pairs)."""
        codes = columns.reader[reads]
        batch_epcs = columns.epc[reads]
        present = np.flatnonzero(np.bincount(batch_epcs))
        local = np.zeros(int(present[-1]) + 1, dtype=np.intp)
        local[present] = [self.epc(columns.epcs[e]) for e in present.tolist()]
        rows = self.table[codes, local[batch_epcs]]
        missing = rows < 0
        if missing.any():
            new = np.unique(codes[missing] * len(columns.epcs) + batch_epcs[missing])
            for code, e in zip(
                (new // len(columns.epcs)).tolist(), (new % len(columns.epcs)).tolist()
            ):
                self.row(code, names[code], columns.epcs[e])
            rows = self.table[codes, local[batch_epcs]]
        return rows


class WindowAssembler:
    """Groups a read stream into event-time snapshot windows.

    Parameters
    ----------
    schedules:
        Per-reader TDM schedules (sweep timing source).  Slots must be
        in time order (starts and ends increasing) and cover antennas
        ``0 .. M - 1``.
    config:
        Window shape; defaults mirror the paper's 10-sweep fix.
    """

    def __init__(
        self,
        schedules: Mapping[str, TdmSchedule],
        config: Optional[WindowConfig] = None,
    ) -> None:
        if not schedules:
            raise ConfigurationError("window assembler needs at least one reader")
        for name, schedule in schedules.items():
            if schedule.duration <= 0.0:
                raise ConfigurationError(
                    f"reader {name!r} has an empty TDM schedule"
                )
            slots = schedule.slots
            if sorted(antenna for antenna, _, _ in slots) != list(
                range(len(slots))
            ) or any(
                not start < end
                or (k and not (slots[k - 1][1] < start and slots[k - 1][2] < end))
                for k, (_, start, end) in enumerate(slots)
            ):
                raise ConfigurationError(
                    f"reader {name!r}: TDM slots must be in time order "
                    "and cover antennas 0..M-1"
                )
        self.schedules = dict(schedules)
        #: Reader names in code order, and each reader's code.
        self.readers: Tuple[str, ...] = tuple(self.schedules)
        self._codes = {name: code for code, name in enumerate(self.readers)}
        self._durations = [s.duration for s in self.schedules.values()]
        self._duration = np.array(self._durations)
        self._antennas = np.array([len(s.slots) for s in self.schedules.values()])
        #: Per reader (rows): slot start times, end times and antennas,
        #: padded past a reader's last slot with never-matching slots.
        width = int(self._antennas.max())
        self._slot_starts = np.full((len(self.readers), width), np.inf)
        self._slot_ends = np.full((len(self.readers), width), np.inf)
        self._slot_antennas = np.zeros((len(self.readers), width), dtype=np.int64)
        for code, schedule in enumerate(self.schedules.values()):
            for k, (antenna, start, end) in enumerate(schedule.slots):
                self._slot_starts[code, k] = start
                self._slot_ends[code, k] = end
                self._slot_antennas[code, k] = antenna
        self._last_slot = self._antennas - 1
        self.config = config or WindowConfig()
        sweep = max(self._durations)
        self.window_s = (
            self.config.window_duration_s
            if self.config.window_duration_s is not None
            else self.config.sweeps_per_window * sweep
        )
        self.lateness_s = (
            self.config.lateness_s if self.config.lateness_s is not None else sweep
        )
        #: Sweep slots of a window's cube: every sweep a read of the
        #: window can land in, with two sweeps of margin on each side
        #: for the time nudge (see :meth:`_base`).
        self._cube_sweeps = max(
            math.ceil(self.window_s / duration) + 4 for duration in self._durations
        )
        self._cube_antennas = int(self._antennas.max())
        self._pending: Dict[int, _PendingWindow] = {}
        self._max_time: Optional[float] = None
        self._emitted_through = -1
        #: (reader, tag) pairs with a full column in the last closed
        #: window; ``None`` before the first close, so the first window
        #: of an assembler's life waits for the watermark.
        self._expected: Optional[Set[Tuple[str, str]]] = None
        #: Highest window index whose completeness has been judged.  A
        #: window judged incomplete waits for the watermark without
        #: being rescanned on every read.
        self._judged_through = -1
        self.late_reads = 0
        self.torn_sweeps = 0
        self.duplicate_reads = 0

    @classmethod
    def for_readers(
        cls,
        readers: Mapping[str, Reader],
        config: Optional[WindowConfig] = None,
    ) -> "WindowAssembler":
        """Build an assembler from reader objects (hub sweep schedules)."""
        return cls(
            {name: reader.hub.sweep_schedule() for name, reader in readers.items()},
            config,
        )

    @property
    def watermark(self) -> Optional[float]:
        """Largest event time seen minus the lateness bound.

        Incomplete windows close once this passes their end; a
        complete window can close while it is still below.
        """
        if self._max_time is None:
            return None
        return self._max_time - self.lateness_s

    def columns(self, reads: Sequence[TagRead]) -> ReadColumns:
        """``reads`` as columns, reader codes in this assembler's order."""
        return ReadColumns.of(reads, self.readers)

    def push(self, read: TagRead) -> List[SnapshotWindow]:
        """Ingest one read; returns any windows it closed (often none).

        A one-read :meth:`assemble`; a rejected read raises
        :class:`~repro.errors.StreamError` and changes nothing.
        """
        windows, rejected = self.assemble(self.columns([read]))
        if rejected[0]:
            raise StreamError(
                _REJECTIONS[int(rejected[0])],
                reader=read.reader_name,
                epc=read.epc,
                time_s=read.time_s,
            )
        return windows

    def assemble(
        self, columns: ReadColumns
    ) -> Tuple[List[SnapshotWindow], Rejections]:
        """Ingest a batch of reads in order; returns the windows they closed.

        Also returns each read's rejection code (``ACCEPTED``, or why
        the read was rejected: an unknown reader, a negative or
        non-finite time or I/Q value — which would never decay out of a
        pair's covariance — or a time outside every TDM slot).  A read
        whose window was already emitted is late: counted and dropped,
        never silently reordered into history a consumer has acted on.
        """
        n = len(columns)
        rejected = np.zeros(n, dtype=np.int8)
        if n == 0:
            return [], rejected
        reader, times = columns.reader, columns.time_s
        # The range test is False for a NaN time.
        good = (reader >= 0) & (times >= 0.0) & (times < math.inf) & np.isfinite(columns.iq)
        safe = times
        if not good.all():
            rejected[~good] = NOT_FINITE
            rejected[reader < 0] = UNKNOWN_READER
            safe = np.where(good, times, 0.0)
        index = np.floor(safe / self.window_s + _TIME_EPS).astype(np.int64)
        sweep, antenna = self._sweep_slots(reader, safe, good)
        emitted: List[SnapshotWindow] = []
        start = 0
        while start < n:
            rest = slice(start, n)
            in_time = good[rest] & (index[rest] > self._emitted_through)
            accepted = np.flatnonzero(in_time & (antenna[rest] >= 0))
            stop, closes = self._segment(start + accepted, index, times)
            part = slice(0, stop - start)
            late = int(np.count_nonzero(good[start:stop])) - int(
                np.count_nonzero(in_time[part])
            )
            if late:
                self.late_reads += late
                obs.count("stream.window.late_reads", late)
            rejected[start:stop][in_time[part] & (antenna[start:stop] < 0)] = OUTSIDE_SLOTS
            placed = start + accepted[accepted < stop - start]
            if placed.size:
                self._place(columns, placed, index, sweep, antenna)
            if closes:
                emitted.extend(self._emit_ready(self._max_time))
            start = stop
        return emitted, rejected

    def _sweep_slots(
        self, reader: IntArray, times: FloatArray, good: BoolArray
    ) -> Tuple[IntArray, IntArray]:
        """Per read: its reader's sweep index and antenna (``-1``: no slot).

        :func:`sweep_slot` over arrays, with the same float operations;
        the slot search compares each read with its reader's slot edges.
        """
        code = np.where(good, reader, 0)
        duration = self._duration[code]
        index = np.floor(times / duration + _TIME_EPS)
        offset = np.minimum(np.maximum(times - index * duration, 0.0), duration)
        probe = np.minimum(offset + duration * _TIME_EPS, duration)[:, None]
        # The first slot with start <= probe < end: slot edges may
        # overlap by an ulp, and the earlier slot wins.
        slot = np.sum(self._slot_ends[code] <= probe, axis=1)
        inside = np.sum(self._slot_starts[code] <= probe, axis=1) > slot
        last = self._last_slot[code]
        antenna = np.where(
            inside, self._slot_antennas[code, np.minimum(slot, last)], -1
        )
        # The final slot is end-inclusive (TdmSchedule.antenna_at).
        closing = ~inside & (probe[:, 0] == self._slot_ends[code, last])
        antenna[closing] = self._slot_antennas[code[closing], last[closing]]
        return index.astype(np.int64), antenna

    def _segment(self, at: IntArray, index: IntArray, times: FloatArray) -> Tuple[int, bool]:
        """End of the run of reads no window can close in.

        ``at`` are the reads, in order from the current one, that
        assembly will place.  Returns ``(stop, closes)``: ``closes``
        when read ``stop - 1`` is the first whose arrival lets the
        earliest pending window close or be judged — its end at most
        the largest event time so far (less the lateness bound once
        judged).  The state they are judged against (emitted and
        judged cursors) is fixed until that read.
        """
        if not at.size:
            return len(times), False
        latest = np.maximum.accumulate(times[at])
        first = np.minimum.accumulate(index[at])
        if self._max_time is not None:
            latest = np.maximum(latest, self._max_time)
        if self._pending:
            first = np.minimum(first, min(self._pending))
        lag = np.where(first <= self._judged_through, self.lateness_s, 0.0)
        due = (first + 1) * self.window_s <= latest - lag
        if not due.any():
            return len(times), False
        return int(at[int(np.argmax(due))]) + 1, True

    def _base(self, index: int) -> IntArray:
        """Per reader: the sweep index of sweep slot 0 in window ``index``'s cube.

        Two sweeps below the one holding the window start: a read of
        the window is at most the time nudge early, which moves it at
        most one sweep down.
        """
        start_s = index * self.window_s
        return np.array(
            [math.floor(start_s / duration) - 2 for duration in self._durations]
        )

    def _window(self, index: int) -> _PendingWindow:
        window = self._pending.get(index)
        if window is None:
            window = self._pending[index] = _PendingWindow(
                self._base(index), self._cube_sweeps, self._cube_antennas
            )
        return window

    def _place(
        self,
        columns: ReadColumns,
        at: IntArray,
        index: IntArray,
        sweep: IntArray,
        antenna: IntArray,
    ) -> None:
        """Scatter the accepted reads ``at`` (in order) into their windows."""
        windows = index[at]
        single = windows.min() == windows.max()
        for window_index in [int(windows[0])] if single else np.unique(windows).tolist():
            reads = at if single else at[windows == window_index]
            window = self._window(window_index)
            codes = columns.reader[reads]
            rows = window.rows(columns, reads, self.readers)
            offsets = sweep[reads] - window.base[codes]
            if np.any((offsets < 0) | (offsets >= self._cube_sweeps)):
                raise StreamError("read lands outside its window's sweeps")
            cells = (rows * self._cube_sweeps + offsets) * self._cube_antennas + antenna[reads]
            values = columns.iq[reads]
            ordered = np.sort(cells)
            if np.any(ordered[1:] == ordered[:-1]):
                # The last read of a cell wins, as if pushed one at a time.
                cells, first_from_end = np.unique(cells[::-1], return_index=True)
                values = values[len(values) - 1 - first_from_end]
            filled = window.filled.reshape(-1)
            duplicates = len(reads) - len(cells) + int(np.count_nonzero(filled[cells]))
            window.iq.reshape(-1)[cells] = values
            filled[cells] = True
            window.reads += len(reads)
            if duplicates:
                self.duplicate_reads += duplicates
                obs.count("stream.window.duplicate_reads", duplicates)
        latest = float(columns.time_s[at].max())
        if self._max_time is None or latest > self._max_time:
            self._max_time = latest

    def flush(self) -> List[SnapshotWindow]:
        """Close and emit every pending window (end of stream)."""
        watermark = self.watermark
        emitted = [
            self._close(index, "flush", watermark) for index in sorted(self._pending)
        ]
        self._pending.clear()
        if emitted:
            self._emitted_through = max(w.index for w in emitted)
        return [w for w in emitted if w.sweeps > 0]

    def _emit_ready(self, max_time: float) -> List[SnapshotWindow]:
        """Close pending windows in order while each may close.

        A window may close once the watermark passes its end, or — if
        judged complete — once the largest event time reaches it.  The
        first window that may not close stops the scan, so windows
        always close in index order.
        """
        watermark = max_time - self.lateness_s
        emitted: List[SnapshotWindow] = []
        for index in sorted(self._pending):
            end_s = (index + 1) * self.window_s
            if end_s <= watermark:
                closed_by = "watermark"
            elif end_s <= max_time and index > self._judged_through:
                self._judged_through = index
                if not self._complete(index):
                    break
                closed_by = "complete"
            else:
                break
            window = self._close(index, closed_by, watermark)
            del self._pending[index]
            self._emitted_through = max(self._emitted_through, index)
            if window.sweeps > 0:
                emitted.append(window)
        return emitted

    def _full(self, window: _PendingWindow) -> Tuple[BoolArray, BoolArray, IntArray]:
        """Per row and sweep: a full column, any read; and each row's reader code."""
        rows = len(window.keys)
        codes = np.array(window.codes, dtype=np.int64)
        counts = window.filled[:rows].sum(axis=2)
        return counts == self._antennas[codes][:, None], counts > 0, codes

    def _complete(self, index: int) -> bool:
        """Whether every expected pair of window ``index`` is in.

        Expected are the pairs with a full column in the last closed
        window plus those with one in this window.  Each must have a
        full column in every sweep of its reader that lies wholly
        inside the window; a sweep straddling the window edge is torn
        on this side and never counts.  ``False`` before the first
        close, when there is nothing to expect yet.
        """
        if self._expected is None:
            return False
        window = self._pending[index]
        full, _, codes = self._full(window)
        start_s, end_s = index * self.window_s, (index + 1) * self.window_s
        # Per reader: the cube's sweep slots wholly inside the window.
        lo = np.array(
            [math.ceil(start_s / d - _TIME_EPS) for d in self._durations]
        ) - window.base
        hi = np.array(
            [int(math.floor(end_s / d + _TIME_EPS)) for d in self._durations]
        ) - window.base
        slots = np.arange(self._cube_sweeps)
        inside = (slots >= lo[codes][:, None]) & (slots < hi[codes][:, None])
        done = (hi[codes] > lo[codes]) & ~np.any(inside & ~full, axis=1)
        if np.any(full.any(axis=1) & ~done):
            # A pair with a full column here is expected too.
            return False
        return self._expected <= {window.keys[p] for p in np.flatnonzero(done)}

    def _close(
        self, index: int, closed_by: str, watermark: Optional[float]
    ) -> SnapshotWindow:
        window = self._pending[index]
        full, present, codes = self._full(window)
        torn = int(np.sum(present & ~full))
        per_pair = full.sum(axis=1)
        order = sorted(
            (p for p in range(len(window.keys)) if per_pair[p]),
            key=window.keys.__getitem__,
        )
        rows = np.array(order, dtype=np.intp)
        columns = per_pair[rows]
        sweeps = int(columns.max()) if len(rows) else 0
        snapshots = np.zeros(
            (len(rows), sweeps, self._cube_antennas), dtype=np.complex128
        )
        if len(rows):
            selected = full[rows]
            # Right-align each pair's full sweeps, in sweep order.
            slot = np.cumsum(selected, axis=1) - 1 + (sweeps - columns)[:, None]
            pair, cube_sweep = np.nonzero(selected)
            snapshots[pair, slot[pair, cube_sweep]] = window.iq[rows[pair], cube_sweep]
        pairs = tuple(window.keys[p] for p in order)
        self._expected = set(pairs)
        if torn:
            self.torn_sweeps += torn
            obs.count("stream.window.torn_sweeps", torn)
        obs.count("stream.window.closed")
        obs.count("stream.window.closes", labels={"by": closed_by})
        return SnapshotWindow(
            index=index,
            start_s=index * self.window_s,
            end_s=(index + 1) * self.window_s,
            pairs=pairs,
            snapshots=snapshots,
            columns=columns,
            antennas=self._antennas[codes[rows]],
            sweeps=sweeps,
            reads=window.reads,
            torn_sweeps=torn,
            closed_by=closed_by,
            watermark_s=watermark,
        )

    # -- checkpoints --------------------------------------------------------

    def pending_cells(
        self,
    ) -> List[Tuple[int, int, List[Tuple[str, str, List[Tuple[int, int, complex]]]]]]:
        """Every pending window's reads: ``(index, reads, pairs)``.

        ``pairs`` lists ``(reader, epc, cells)`` sorted by pair, each
        cell ``(sweep, antenna, iq)`` in sweep then antenna order.
        """
        pending = []
        for index in sorted(self._pending):
            window = self._pending[index]
            pairs = []
            for row in sorted(range(len(window.keys)), key=window.keys.__getitem__):
                key = window.keys[row]
                base = int(window.base[window.codes[row]])
                sweeps, antennas = np.nonzero(window.filled[row])
                pairs.append(
                    (
                        key[0],
                        key[1],
                        [
                            (base + int(s), int(m), complex(window.iq[row, s, m]))
                            for s, m in zip(sweeps, antennas)
                        ],
                    )
                )
            pending.append((index, window.reads, pairs))
        return pending

    def restore_cells(
        self,
        pending: Sequence[
            Tuple[int, int, Sequence[Tuple[str, str, Sequence[Tuple[int, int, complex]]]]]
        ],
    ) -> None:
        """Replace the pending windows with :meth:`pending_cells` output."""
        self._pending.clear()
        for index, reads, pairs in pending:
            window = self._window(index)
            window.reads = reads
            for reader_name, epc, cells in pairs:
                code = self._codes.get(reader_name)
                if code is None:
                    raise StreamError(
                        "checkpointed cell names an unknown reader",
                        reader=reader_name,
                        epc=epc,
                    )
                row = window.row(code, reader_name, epc)
                for sweep_index, antenna, iq in cells:
                    offset = sweep_index - int(window.base[code])
                    if not 0 <= offset < self._cube_sweeps:
                        raise StreamError(
                            "checkpointed cell lies outside its window",
                            reader=reader_name,
                            epc=epc,
                        )
                    window.iq[row, offset, antenna] = iq
                    window.filled[row, offset, antenna] = True
