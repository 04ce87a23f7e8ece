"""Property-based equivalence: the batched kernel == textbook MUSIC and Eq. 14.

:mod:`repro.dsp.batch` is the one implementation of MUSIC (Eq. 8) and
P-MUSIC (Eq. 14); these tests drive it with randomized stacks
(hypothesis) and with a seed scene, and compare every spectrum against
the per-item oracles in ``tests/pmusic_oracle.py`` to a tolerance
scaled to that spectrum's peak.  Smoothing from the full covariance and smoothing from snapshots
agree only to rounding, so exact equality is not expected there.  One
test keeps exact equality: a stack gives the same spectra as its items
run one at a time, because the fix pipeline batches pairs differently
on different paths (per reader in the stream, fleet-wide in
``compute_spectra``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.baseline import compute_spectra
from repro.dsp.batch import (
    BatchPMusicConfig,
    batched_pmusic_from_covariances,
    batched_pmusic_spectra,
    batched_sample_covariance,
)
from repro.dsp.covariance import sample_covariance
from repro.dsp.music import MusicEstimator
from repro.dsp.pmusic import PMusicEstimator
from repro.errors import EstimationError
from repro.geometry.point import Point
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.sim.target import human_target
from repro.stream.covariance import EwCovariance
from tests.pmusic_oracle import music_oracle, pmusic_oracle

HALF_WAVE = DEFAULT_WAVELENGTH_M / 2.0
CONFIG = BatchPMusicConfig(spacing_m=HALF_WAVE, wavelength_m=DEFAULT_WAVELENGTH_M)

#: Largest kernel-vs-oracle difference allowed, relative to the
#: spectrum's peak.  Over 3,000 random single-item draws the largest
#: observed difference was 2e-11 of the peak.
PEAK_RTOL = 1e-8

seeds = st.integers(min_value=0, max_value=2**31)
antenna_counts = st.integers(min_value=3, max_value=8)
snapshot_counts = st.integers(min_value=4, max_value=16)
stack_sizes = st.integers(min_value=1, max_value=5)


def _random_stack(seed, n, m, s):
    rng = np.random.default_rng(seed)
    # A few coherent plane waves plus noise: representative of the
    # multipath snapshots the pipeline sees, and guaranteed to carry
    # enough structure for peak detection on almost every draw.
    stack = []
    for _ in range(n):
        x = 0.05 * (rng.normal(size=(m, s)) + 1j * rng.normal(size=(m, s)))
        for _ in range(rng.integers(1, 3)):
            theta = rng.uniform(0.0, np.pi)
            phase = np.exp(
                -2j
                * np.pi
                * HALF_WAVE
                / DEFAULT_WAVELENGTH_M
                * np.cos(theta)
                * np.arange(m)
            )
            signal = rng.normal() + 1j * rng.normal()
            x += np.outer(phase, signal * np.exp(1j * rng.uniform(0, 2 * np.pi, s)))
        stack.append(x)
    return np.stack(stack)


def _oracles(stack, **knobs):
    """Per-item oracle spectra, or ``None`` when any item has none."""
    try:
        return [
            pmusic_oracle(x, HALF_WAVE, DEFAULT_WAVELENGTH_M, **knobs) for x in stack
        ]
    except ValueError:
        return None


def _assert_close_to_oracle(got, want):
    grid, values = want
    np.testing.assert_array_equal(got.angles, grid)
    np.testing.assert_allclose(
        got.values, values, rtol=0.0, atol=PEAK_RTOL * values.max()
    )


class TestSnapshotDomainEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seeds, stack_sizes, antenna_counts, snapshot_counts)
    def test_batched_equals_scalar_estimator(self, seed, n, m, s):
        stack = _random_stack(seed, n, m, s)
        oracle = _oracles(stack)
        if oracle is None:
            # Raise parity: a stack with an item the oracle cannot
            # normalize (no noise subspace, no peak) raises.
            with pytest.raises(EstimationError):
                batched_pmusic_spectra(stack, CONFIG)
            return
        batched = batched_pmusic_spectra(stack, CONFIG)
        assert len(batched) == n
        for got, want in zip(batched, oracle):
            _assert_close_to_oracle(got, want)

    @settings(max_examples=20, deadline=None)
    @given(seeds, stack_sizes, antenna_counts, snapshot_counts)
    def test_batched_sample_covariance_exact(self, seed, n, m, s):
        stack = _random_stack(seed, n, m, s)
        batched = batched_sample_covariance(stack)
        for i in range(n):
            assert np.array_equal(batched[i], sample_covariance(stack[i]))

    @settings(max_examples=20, deadline=None)
    @given(seeds, antenna_counts, snapshot_counts)
    def test_pinned_sources_and_no_forward_backward(self, seed, m, s):
        stack = _random_stack(seed, 3, m, s)
        config = BatchPMusicConfig(
            spacing_m=HALF_WAVE,
            wavelength_m=DEFAULT_WAVELENGTH_M,
            num_sources=1,
            forward_backward=False,
        )
        oracle = _oracles(stack, num_sources=1, forward_backward=False)
        if oracle is None:
            with pytest.raises(EstimationError):
                batched_pmusic_spectra(stack, config)
            return
        for got, want in zip(batched_pmusic_spectra(stack, config), oracle):
            _assert_close_to_oracle(got, want)

    @settings(max_examples=20, deadline=None)
    @given(seeds, stack_sizes, antenna_counts, snapshot_counts)
    def test_stack_equals_single_item_calls(self, seed, n, m, s):
        # Exact: batching is a dispatch optimization, so a pair's
        # spectrum cannot depend on which other pairs share its stack.
        stack = _random_stack(seed, n, m, s)
        estimator = PMusicEstimator(spacing_m=HALF_WAVE)
        try:
            batched = batched_pmusic_spectra(stack, CONFIG)
        except EstimationError:
            return
        for item, got in zip(stack, batched):
            want = estimator.spectrum(item)
            assert np.array_equal(got.angles, want.angles)
            assert np.array_equal(got.values, want.values)


class TestMusicEstimatorOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds,
        antenna_counts,
        snapshot_counts,
        st.booleans(),
        st.booleans(),
        # 8 pins more sources than any subarray has elements, which
        # leaves no noise subspace.  Larger pins than 1 are left out:
        # on a one-path draw they split near-equal noise eigenvalues,
        # where the noise subspace is ill-conditioned (a pin of 2
        # differed from the oracle by up to 7e-8 of the peak in 10,000
        # draws; a pin of 1 or the threshold count by 3e-11).
        st.sampled_from([None, 1, 8]),
    )
    def test_spectrum_matches_music_oracle(
        self, seed, m, s, smoothed, forward_backward, num_sources
    ):
        x = _random_stack(seed, 1, m, s)[0]
        knobs = dict(
            subarray_size=None if smoothed else m,
            forward_backward=forward_backward,
            num_sources=num_sources,
        )
        estimator = MusicEstimator(
            spacing_m=HALF_WAVE, wavelength_m=DEFAULT_WAVELENGTH_M, **knobs
        )
        try:
            want = music_oracle(x, HALF_WAVE, DEFAULT_WAVELENGTH_M, **knobs)
        except ValueError:
            # Raise parity: no noise subspace in the oracle, so none in
            # the kernel either.
            with pytest.raises(EstimationError):
                estimator.spectrum(x)
            return
        _assert_close_to_oracle(estimator.spectrum(x), want)


class TestCovarianceDomainEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seeds, stack_sizes, antenna_counts, snapshot_counts)
    def test_batched_equals_stream_reference(self, seed, n, m, s):
        stack = _random_stack(seed, n, m, s)
        decay = 0.8
        covariances = []
        for item in stack:
            estimator = EwCovariance(num_antennas=m, decay=decay)
            estimator.update_matrix(item)
            covariances.append(estimator.covariance())
        # The EW covariance is the sample covariance of the columns
        # scaled by sqrt(S * decay^age / weight).
        ages = np.arange(s - 1, -1, -1)
        weight = np.sum(decay**ages)
        scaled = stack * np.sqrt(s * decay**ages / weight)[None, None, :]
        oracle = _oracles(scaled)
        batched = batched_pmusic_from_covariances(np.stack(covariances), CONFIG)
        if oracle is None:
            # Parity: an item the oracle cannot normalize (no noise
            # subspace, no peak) has no spectrum.
            assert any(item is None for item in batched)
            return
        for got, want in zip(batched, oracle):
            _assert_close_to_oracle(got, want)


class TestSeedSceneOracle:
    def test_hall_scene_batch_matches_oracle(self):
        scene = hall_scene(rng=5)
        readers = {reader.name: reader for reader in scene.readers}
        session = MeasurementSession(scene, rng=6)
        target = human_target(
            Point(scene.room.center.x, scene.room.center.y)
        )
        for capture in (session.capture(), session.capture([target])):
            batched = compute_spectra(capture, readers)
            pairs = 0
            for reader_name in capture.readers():
                array = readers[reader_name].array
                for epc in capture.tags_for(reader_name):
                    want = pmusic_oracle(
                        capture.matrix(reader_name, epc),
                        array.spacing_m,
                        array.wavelength_m,
                    )
                    _assert_close_to_oracle(batched.for_pair(reader_name, epc), want)
                    pairs += 1
            assert pairs > 0
