"""Incrementally maintained array covariances for the streaming path.

The batch pipeline rebuilds ``R = X X^H / N`` from every window's full
snapshot matrix.  Online, consecutive windows of the same (reader, tag)
pair are highly redundant, so the stream engine instead keeps one
exponentially-weighted covariance per pair and folds each window's
``N`` snapshot columns ``x_0 .. x_{N-1}`` (oldest first) in at once, in
closed form:

.. math::

    S \\leftarrow \\lambda^N S + \\sum_n \\lambda^{N-1-n} x_n x_n^H,
    \\qquad
    w \\leftarrow \\lambda^N w + \\sum_n \\lambda^{N-1-n}

with ``R = S / w``.  This is the column-by-column rank-1 recursion
``S <- lambda S + x x^H`` unrolled, so it agrees with it to rounding.
Decay ``1.0`` makes it the running sample covariance of everything seen
(the tier-1 equivalence test pins it against
:func:`repro.dsp.covariance.sample_covariance` at ``atol=1e-10``);
decay below one forgets old sweeps geometrically, so a moving target
stops smearing the estimate while the per-window spectra still benefit
from more than one window's worth of snapshots.

A :class:`CovarianceBank` keeps every pair's sums as rows of one
``(P, M, M)`` array per antenna count and folds a whole window's pairs
with one call (:meth:`CovarianceBank.fold`).  The fold is elementwise
over the stack, so a pair's sums are a function of that pair's columns
only: the same bits whatever other pairs, in whatever order, share the
call.  :class:`EwCovariance` is a handle on one row.

The P-MUSIC spectra are then computed straight from ``R`` by
:func:`repro.dsp.batch.batched_pmusic_from_covariances`, which never
touches raw snapshots again.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, EstimationError
from repro.utils.arrays import ArrayLike, ComplexArray, IntArray

PairKey = Tuple[str, str]


def _check_decay(decay: float) -> None:
    if not 0.0 < decay <= 1.0:
        raise ConfigurationError(f"decay must be in (0, 1], got {decay}")


class _Rows:
    """Growable ``(P, M, M)`` sums, ``(P,)`` weights and update counts."""

    def __init__(self, num_antennas: int, capacity: int = 8) -> None:
        self.num_antennas = num_antennas
        self.size = 0
        self.sums = np.zeros((capacity, num_antennas, num_antennas), dtype=np.complex128)
        self.weights = np.zeros(capacity, dtype=np.float64)
        self.updates = np.zeros(capacity, dtype=np.int64)

    def add(self) -> int:
        if self.size == len(self.weights):
            grow = max(8, self.size)
            m = self.num_antennas
            self.sums = np.concatenate(
                [self.sums, np.zeros((grow, m, m), dtype=np.complex128)]
            )
            self.weights = np.concatenate([self.weights, np.zeros(grow)])
            self.updates = np.concatenate(
                [self.updates, np.zeros(grow, dtype=np.int64)]
            )
        self.size += 1
        return self.size - 1

    def fold(
        self, rows: IntArray, columns: ComplexArray, counts: IntArray, decay: float
    ) -> None:
        """Fold ``columns`` (``(P, N, M)``, right-aligned) into ``rows``.

        Row ``p`` takes its last ``counts[p]`` columns; the ones before
        must be zero.  Left padding with zero columns leaves the sums
        bit-identical: every term is added in time order onto an exact
        zero, so a pair gives the same bits alone or in any stack.
        """
        n = columns.shape[1]
        # Python float powers: one rounding per exponent, the same for
        # every pair and stack.
        ages = [decay ** (n - 1 - k) for k in range(n)]
        acc = np.zeros((len(rows), self.num_antennas, self.num_antennas), dtype=np.complex128)
        conj = columns.conj()
        for k in range(n):
            scaled = columns[:, k, :] * ages[k]
            acc += scaled[:, :, None] * conj[:, k, None, :]
        # Per-pair lambda^N and sum of lambda^(N-1-n): both functions of
        # the pair's own column count only.
        powers = {int(c): decay ** int(c) for c in np.unique(counts)}
        totals = {c: sum(ages[n - c :]) for c in powers}
        retained = np.array([powers[int(c)] for c in counts])
        added = np.array([totals[int(c)] for c in counts])
        self.sums[rows] = self.sums[rows] * retained[:, None, None] + acc
        self.weights[rows] = self.weights[rows] * retained + added
        self.updates[rows] += counts

    def covariances(self, rows: IntArray) -> ComplexArray:
        weights = self.weights[rows]
        if np.any(weights <= 0.0):
            raise EstimationError("no snapshots folded in yet")
        r = self.sums[rows] / weights[:, None, None]
        return (r + r.conj().transpose(0, 2, 1)) / 2.0


class EwCovariance:
    """Exponentially-weighted covariance of one (reader, tag) pair.

    Parameters
    ----------
    num_antennas:
        Array size ``M``.
    decay:
        Per-column forgetting factor in ``(0, 1]``.  ``1.0`` weights
        every snapshot equally (the running sample covariance).

    Built alone it owns its storage; :meth:`CovarianceBank.pair`
    returns handles on the bank's rows.
    """

    def __init__(self, num_antennas: int, decay: float = 1.0) -> None:
        if num_antennas < 1:
            raise ConfigurationError("covariance needs at least one antenna")
        _check_decay(decay)
        self._store = _Rows(num_antennas, capacity=1)
        self._row = self._store.add()
        self.decay = decay

    @classmethod
    def _on(cls, store: _Rows, row: int, decay: float) -> "EwCovariance":
        handle = cls.__new__(cls)
        handle._store, handle._row, handle.decay = store, row, decay
        return handle

    @property
    def num_antennas(self) -> int:
        """Array size ``M``."""
        return self._store.num_antennas

    @property
    def weight(self) -> float:
        """Effective number of snapshots behind the current estimate."""
        return float(self._store.weights[self._row])

    @property
    def updates(self) -> int:
        """Snapshot columns folded in so far."""
        return int(self._store.updates[self._row])

    def update(self, column: ArrayLike) -> None:
        """Fold one snapshot column in as a rank-1 update."""
        x = np.asarray(column, dtype=np.complex128)
        if x.shape != (self.num_antennas,):
            raise EstimationError(
                f"column must have shape ({self.num_antennas},), got {x.shape}"
            )
        self.update_matrix(x[:, None])

    def update_matrix(self, snapshots: ArrayLike) -> None:
        """Fold in every column of an ``(M, N)`` snapshot matrix, in closed form."""
        x = np.asarray(snapshots, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.num_antennas:
            raise EstimationError(
                f"snapshots must be ({self.num_antennas}, N), got {x.shape}"
            )
        self._store.fold(
            np.array([self._row]),
            np.ascontiguousarray(x.T)[None],
            np.array([x.shape[1]]),
            self.decay,
        )

    def covariance(self) -> ComplexArray:
        """The current Hermitian ``(M, M)`` estimate."""
        return self._store.covariances(np.array([self._row]))[0]


class CovarianceBank:
    """Per-(reader, tag) exponentially weighted covariances for a whole stream.

    Rows of one ``(P, M, M)`` sum array and one ``(P,)`` weight array
    per antenna count ``M``, in the order pairs first appeared.
    """

    def __init__(self, decay: float = 1.0) -> None:
        _check_decay(decay)
        self.decay = decay
        self._stores: Dict[int, _Rows] = {}
        self._rows: Dict[PairKey, Tuple[_Rows, int]] = {}

    def _locate(self, key: PairKey, num_antennas: int) -> Tuple[_Rows, int]:
        found = self._rows.get(key)
        if found is None:
            store = self._stores.get(num_antennas)
            if store is None:
                store = self._stores[num_antennas] = _Rows(num_antennas)
            found = self._rows[key] = (store, store.add())
        elif found[0].num_antennas != num_antennas:
            raise EstimationError(
                f"pair {key!r} has {found[0].num_antennas} antennas, "
                f"not {num_antennas}"
            )
        return found

    def _rows_of(self, pairs: Sequence[PairKey], num_antennas: int) -> Tuple[_Rows, IntArray]:
        located = [self._locate(key, num_antennas) for key in pairs]
        store = self._stores[num_antennas]
        return store, np.array([row for _, row in located], dtype=np.intp)

    def pair(self, reader_name: str, epc: str, num_antennas: int) -> EwCovariance:
        """Get-or-create the estimator of one (reader, tag) pair."""
        store, row = self._locate((reader_name, epc), num_antennas)
        return EwCovariance._on(store, row, self.decay)

    def fold(
        self, pairs: Sequence[PairKey], columns: ComplexArray, counts: IntArray
    ) -> None:
        """Fold one window into many pairs at once.

        ``columns`` is ``(P, N, M)``: pair ``p``'s snapshot columns, in
        time order, are its last ``counts[p]`` rows along axis 1; the
        rows before them are zero.  ``pairs`` must be distinct.
        """
        if not pairs:
            return
        if len(set(pairs)) != len(pairs):
            raise EstimationError("a pair appears more than once in one fold")
        store, rows = self._rows_of(pairs, int(columns.shape[2]))
        store.fold(rows, np.ascontiguousarray(columns), np.asarray(counts), self.decay)

    def covariances(self, pairs: Sequence[PairKey], num_antennas: int) -> ComplexArray:
        """The ``(P, M, M)`` Hermitian estimates of ``pairs``, in that order."""
        store, rows = self._rows_of(pairs, num_antennas)
        return store.covariances(rows)

    def covariance(self, reader_name: str, epc: str) -> ComplexArray:
        """The current estimate of one pair (must have been updated)."""
        found = self._rows.get((reader_name, epc))
        if found is None:
            raise EstimationError(
                f"no covariance tracked for reader {reader_name!r} / tag {epc!r}"
            )
        store, row = found
        return store.covariances(np.array([row]))[0]

    def entries(self) -> Iterator[Tuple[PairKey, int, ComplexArray, float, int]]:
        """``(pair, M, sums, weight, updates)`` of every pair, sorted by pair."""
        for key in sorted(self._rows):
            store, row = self._rows[key]
            yield (
                key,
                store.num_antennas,
                store.sums[row],
                float(store.weights[row]),
                int(store.updates[row]),
            )

    def load(
        self,
        entries: Sequence[Tuple[PairKey, int, ComplexArray, float, int]],
    ) -> None:
        """Replace every pair with checkpointed ``entries`` (see :meth:`entries`)."""
        self._stores.clear()
        self._rows.clear()
        for key, num_antennas, sums, weight, updates in entries:
            store, row = self._locate(key, num_antennas)
            store.sums[row] = sums
            store.weights[row] = weight
            store.updates[row] = updates

    def __len__(self) -> int:
        return len(self._rows)
