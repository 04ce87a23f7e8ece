"""Peak detection and peak-region segmentation for angular spectra."""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from scipy.signal import find_peaks as _scipy_find_peaks

from repro.dsp.spectrum import AngularSpectrum, SpectrumPeak
from repro.errors import EstimationError

try:  # pragma: no cover - exercised through _verified_fast_peaks below
    from scipy.signal._peak_finding_utils import (
        _local_maxima_1d,
        _select_by_peak_distance,
    )
except ImportError:  # pragma: no cover - older/newer scipy layout
    _local_maxima_1d = None
    _select_by_peak_distance = None


def _fast_peak_indices(
    values: np.ndarray, height: float, distance: int
) -> np.ndarray:
    """``find_peaks(values, height=..., distance=...)`` without the wrapper.

    Replays the exact condition sequence of :func:`scipy.signal.find_peaks`
    for the two conditions this module uses — local maxima, then the
    height filter (``peak_heights >= height``), then the distance
    filter — by calling the same compiled kernels the wrapper calls.
    The wrapper's argument unpacking/property bookkeeping costs more
    than the kernels themselves at our 361-point grids.
    """
    peaks, _, _ = _local_maxima_1d(values)
    peaks = peaks[values[peaks] >= height]
    keep = _select_by_peak_distance(peaks, values[peaks], float(distance))
    result: np.ndarray = peaks[keep]
    return result


def _verified_fast_peaks() -> bool:
    """Whether the private-kernel path matches ``find_peaks`` bit for bit.

    Checked once at import over vectors with plateaus, ties and edge
    runs; any mismatch (or a scipy that moved the private kernels)
    falls back to the public wrapper for every call.
    """
    if _local_maxima_1d is None or _select_by_peak_distance is None:
        return False
    probe = np.array(
        [0.0, 1.0, 0.5, 1.0, 1.0, 0.2, 3.0, 0.1, 0.3, 0.3, 0.1, 2.0, 2.5, 2.5]
    )
    try:
        for distance in (1, 2, 6):
            for height in (0.0, 0.2, 0.5, 1.0):
                reference, _ = _scipy_find_peaks(
                    probe, height=height, distance=distance
                )
                if not np.array_equal(
                    reference, _fast_peak_indices(probe, height, distance)
                ):
                    return False
    except (TypeError, ValueError):  # signature drift in the private API
        return False
    return True


_USE_FAST_PEAKS = _verified_fast_peaks()


def _find_peak_indices(
    values: np.ndarray, height: float, distance: int
) -> np.ndarray:
    """Interior peak indices, via the verified fast path when possible."""
    if (
        _USE_FAST_PEAKS
        and values.dtype == np.float64
        and values.flags.c_contiguous
    ):
        return _fast_peak_indices(values, height, distance)
    indices, _ = _scipy_find_peaks(values, height=height, distance=distance)
    return indices


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
    peaks = [
        SpectrumPeak(
            angle=float(spectrum.angles[i]), value=float(values[i]), index=int(i)
        )
        for i in candidate_peak_indices(
            values, min_relative_height * peak_value, distance
        )
    ]
    return sorted(peaks, key=lambda p: p.value, reverse=True)


def candidate_peak_indices(
    values: np.ndarray, height: float, distance: int
) -> List[int]:
    """Ascending peak indices: scipy's interior maxima plus boundaries.

    Grid endpoints can hold genuine maxima (a path arriving near 0 or
    pi); scipy never reports index 0 or the last index (its scan runs
    strictly inside the array), so the boundary checks below never
    duplicate an interior peak and a plain concatenation stays sorted
    and unique — the same set the historical
    ``sorted(set(scipy) | set(boundaries))`` produced.
    """
    indices = _find_peak_indices(values, height, distance)
    out: List[int] = []
    if values[0] > values[1] and values[0] >= height:
        out.append(0)
    out.extend(indices.tolist())
    last = len(values) - 1
    if values[last] > values[last - 1] and values[last] >= height:
        out.append(last)
    return out


def region_starts_from_indices(
    values: np.ndarray, indices: List[int]
) -> Optional[np.ndarray]:
    """Partition the grid into one region per peak, from ascending peak indices.

    Region boundaries sit at the minima between adjacent peaks, so each
    grid point is attributed to the peak whose lobe it belongs to —
    the lobes P-MUSIC's ``Nor(·)`` scales to unit height.  Returned as
    a start-offset array ready for ``np.maximum.reduceat``.  Region
    ends are implicitly the next start (the last runs to
    ``values.size``, which always exceeds its start), so the
    degenerate-region error reduces to a strictly-increasing check.
    ``None`` for an empty index list.
    """
    if not indices:
        return None
    starts = np.empty(len(indices), dtype=np.intp)
    starts[0] = 0
    for j in range(len(indices) - 1):
        left = indices[j]
        right = indices[j + 1]
        starts[j + 1] = left + int(values[left : right + 1].argmin())
    if len(indices) > 1 and not np.all(np.diff(starts) > 0):
        raise EstimationError("degenerate peak region")
    return starts
