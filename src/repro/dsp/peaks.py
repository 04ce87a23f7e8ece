"""Peak detection and peak-region segmentation for angular spectra.

Both work on stacks of spectra at once (:func:`batched_candidate_peaks`,
:func:`batched_region_starts`); the one-spectrum helpers are one-row
calls.  Peak detection gives exactly what :func:`scipy.signal.find_peaks`
gives: a row with no two adjacent equal values (so no plateau) whose
candidates are all at least ``distance`` apart needs neither scipy's
plateau handling nor its distance filter, and is resolved in array form;
every other row goes through scipy itself.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.signal import find_peaks as _scipy_find_peaks

from repro.dsp.spectrum import AngularSpectrum, SpectrumPeak
from repro.errors import EstimationError
from repro.utils.arrays import FloatArray, IntArray


def batched_candidate_peaks(
    values: FloatArray, heights: FloatArray, distance: int
) -> Tuple[IntArray, IntArray]:
    """Every row's peaks: scipy's interior maxima plus the boundaries.

    ``values`` is ``(N, G)``; row ``i`` keeps peaks at least
    ``heights[i]`` high, interior ones at least ``distance`` samples
    apart (scipy's rule: the higher wins).  A grid endpoint is a peak
    when it exceeds its neighbour and clears the height; scipy never
    reports an endpoint, so the two sets never overlap.  A row whose
    maximum is not positive has no peaks.  Returns ``(rows, indices)``
    in ascending row-major order.
    """
    n, size = values.shape
    inner = values[:, 1:-1]
    interior = (
        (inner > values[:, :-2])
        & (inner > values[:, 2:])
        & (inner >= heights[:, None])
    )
    rows, cols = np.nonzero(interior)
    cols = cols + 1
    slow = np.any(values[:, 1:] == values[:, :-1], axis=1)
    close = (rows[1:] == rows[:-1]) & (np.diff(cols) < distance)
    slow[rows[1:][close]] = True
    has_peak = values.max(axis=1) > 0.0
    slow &= has_peak
    keep = has_peak[rows] & ~slow[rows]
    found_rows, found_cols = [rows[keep]], [cols[keep]]
    for i in np.flatnonzero(slow):
        indices, _ = _scipy_find_peaks(values[i], height=heights[i], distance=distance)
        found_rows.append(np.full(len(indices), i, dtype=np.intp))
        found_cols.append(indices.astype(np.intp))
    first = has_peak & (values[:, 0] > values[:, 1]) & (values[:, 0] >= heights)
    last = (
        has_peak
        & (values[:, -1] > values[:, -2])
        & (values[:, -1] >= heights)
    )
    found_rows += [np.flatnonzero(first), np.flatnonzero(last)]
    found_cols += [
        np.zeros(int(first.sum()), dtype=np.intp),
        np.full(int(last.sum()), size - 1, dtype=np.intp),
    ]
    flat = np.sort(
        np.concatenate(found_rows) * size + np.concatenate(found_cols)
    )
    return flat // size, flat % size


def batched_region_starts(
    values: FloatArray, rows: IntArray, indices: IntArray
) -> IntArray:
    """Flat offsets of every peak region, for ``np.maximum.reduceat``.

    ``rows``/``indices`` are ascending row-major peaks (as
    :func:`batched_candidate_peaks` returns them).  Each row is split
    into one region per peak at the minima between adjacent peaks (the
    first minimum on ties), so each grid point belongs to the lobe of
    its peak.  A row's first region starts at the row's first sample;
    a row without peaks is one region.  The offsets index
    ``values.ravel()``.
    """
    n, size = values.shape
    flat = values.ravel()
    keys = rows * size + indices
    # Adjacent peaks of one row: the region boundary is the argmin of
    # values[left:right].  The peak at ``right`` is never that minimum
    # (it exceeds its left neighbour), so the half-open span suffices,
    # and consecutive spans of a row tile it without overlap.
    pair = np.flatnonzero(rows[1:] == rows[:-1])
    lo, hi = keys[pair], keys[pair + 1]
    lengths = hi - lo
    total = int(lengths.sum())
    splits = np.empty(0, dtype=np.intp)
    if total:
        offsets = np.cumsum(lengths) - lengths
        positions = np.arange(total) + np.repeat(lo - offsets, lengths)
        segment_min = np.minimum.reduceat(flat[positions], offsets)
        hit = np.flatnonzero(flat[positions] == np.repeat(segment_min, lengths))
        segment = np.repeat(np.arange(len(lo)), lengths)[hit]
        _, first = np.unique(segment, return_index=True)
        splits = positions[hit[first]]
    return np.sort(np.concatenate([np.arange(n) * size, splits]))


def find_spectrum_peaks(
    spectrum: AngularSpectrum,
    min_relative_height: float = 0.05,
    min_separation: float = 0.05,
) -> List[SpectrumPeak]:
    """Detect local maxima of an angular spectrum.

    Parameters
    ----------
    spectrum:
        The spectrum to analyse.
    min_relative_height:
        Minimum peak height as a fraction of the global maximum.
    min_separation:
        Minimum angular separation between reported peaks (radians).

    Returns
    -------
    list of SpectrumPeak
        Peaks sorted by descending value.
    """
    values = spectrum.values
    peak_value = float(values.max())
    if peak_value <= 0.0:
        return []
    grid_step = float(np.mean(np.diff(spectrum.angles)))
    distance = max(1, int(round(min_separation / grid_step)))
    _, indices = batched_candidate_peaks(
        np.asarray(values, dtype=np.float64)[None, :],
        np.array([min_relative_height * peak_value]),
        distance,
    )
    peaks = [
        SpectrumPeak(
            angle=float(spectrum.angles[i]), value=float(values[i]), index=int(i)
        )
        for i in indices.tolist()
    ]
    return sorted(peaks, key=lambda p: p.value, reverse=True)


def region_starts_from_indices(
    values: np.ndarray, indices: List[int]
) -> Optional[np.ndarray]:
    """Region start offsets of one spectrum from its ascending peak indices.

    A one-row :func:`batched_region_starts`; ``None`` for an empty
    index list.
    """
    if not indices:
        return None
    row = np.asarray(values, dtype=np.float64)[None, :]
    cols = np.asarray(indices, dtype=np.intp)
    starts = batched_region_starts(row, np.zeros(len(cols), dtype=np.intp), cols)
    if len(starts) > 1 and not np.all(np.diff(starts) > 0):
        raise EstimationError("degenerate peak region")
    return starts
