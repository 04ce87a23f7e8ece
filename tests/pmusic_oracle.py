"""Textbook smoothing, MUSIC and P-MUSIC (Eq. 14), one item at a time: the tolerance oracles.

Written straight from Section 4.2, independent of ``repro.dsp``:
snapshot-domain spatial smoothing with forward-backward averaging
(:func:`smoothed_oracle`), ``eigh``, the eigenvalue-threshold source
count and the MUSIC pseudo-spectrum ``1 / ||U_N^H a||^2``
(:func:`music_oracle`), then per-lobe ``Nor(·)`` and Bartlett power
``a^H R a / M^2`` from the unsmoothed sample covariance
(:func:`pmusic_oracle`).  A peak is a local maximum (scipy) or an
endpoint above its neighbour, at least ``min_height`` of the global
maximum.
"""

import numpy as np
from scipy.signal import find_peaks


def _steer(n, grid, spacing_m, wavelength_m):
    return np.exp(-2j * np.pi * spacing_m / wavelength_m * np.outer(np.arange(n), np.cos(grid)))


def smoothed_oracle(x, length, forward_backward=True):
    """Average of the ``(length, length)`` subarray covariances of ``(M, S)`` snapshots."""
    m, s = x.shape
    blocks = [x[k:k + length] for k in range(m - length + 1)]
    smoothed = sum(b @ b.conj().T / s for b in blocks) / len(blocks)
    if forward_backward:
        smoothed = (smoothed + np.flip(smoothed.conj())) / 2.0
    return smoothed


def music_oracle(x, spacing_m, wavelength_m, subarray_size=None, forward_backward=True,
                 num_sources=None, threshold_ratio=0.03, grid=None):
    """``(grid, B)`` of one ``(M, S)`` snapshot matrix; ``ValueError`` if undefined."""
    m = x.shape[0]
    grid = np.linspace(0.0, np.pi, 361) if grid is None else grid
    length = min(subarray_size or max(min(6, m - 2), 3), m)
    smoothed = smoothed_oracle(x, length, forward_backward and length < m)
    values, vectors = np.linalg.eigh(smoothed)
    values, vectors = values[::-1], vectors[:, ::-1]
    p = num_sources or min(max(int(np.sum(values > threshold_ratio * values[0])), 1), length - 1)
    if values[0] <= 0.0 or not 0 < p < length:
        raise ValueError("no noise subspace")
    noise = vectors[:, p:].conj().T @ _steer(length, grid, spacing_m, wavelength_m)
    return grid, 1.0 / np.maximum(np.sum(np.abs(noise) ** 2, 0), 1e-15)


def pmusic_oracle(x, spacing_m, wavelength_m, subarray_size=None, forward_backward=True,
                  num_sources=None, threshold_ratio=0.03, min_height=0.02,
                  min_separation=0.05, grid=None):
    """``(grid, Omega)`` of one ``(M, S)`` snapshot matrix; ``ValueError`` if undefined."""
    m, s = x.shape
    grid, music = music_oracle(x, spacing_m, wavelength_m, subarray_size, forward_backward,
                               num_sources, threshold_ratio, grid)
    height = min_height * music.max()
    distance = max(1, int(round(min_separation / np.mean(np.diff(grid)))))
    peaks = list(find_peaks(music, height=height, distance=distance)[0])
    if music[0] > music[1] and music[0] >= height:
        peaks.insert(0, 0)
    if music[-1] > music[-2] and music[-1] >= height:
        peaks.append(len(music) - 1)
    if not peaks:
        raise ValueError("no peaks")
    cuts = [0] + [a + int(np.argmin(music[a:b + 1])) for a, b in zip(peaks, peaks[1:])]
    normalized = music.copy()
    for start, end in zip(cuts, cuts[1:] + [len(music)]):
        normalized[start:end] /= music[start:end].max()
    r = x @ x.conj().T / s
    a = _steer(m, grid, spacing_m, wavelength_m)
    power = np.maximum(np.real(np.sum(a.conj() * (r @ a), axis=0)) / m**2, 0.0)
    return grid, power * normalized
