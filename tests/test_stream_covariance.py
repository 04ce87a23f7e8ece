"""Incremental covariance: EW updates, window folds, smoothing and P-MUSIC from R."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.dsp.bartlett import bartlett_power_spectrum
from repro.dsp.batch import (
    BatchPMusicConfig,
    batched_bartlett_spectra,
    batched_pmusic_from_covariances,
    batched_smoothed_from_full,
)
from repro.dsp.covariance import is_hermitian, sample_covariance
from repro.dsp.pmusic import PMusicEstimator
from repro.dsp.spectrum import default_angle_grid
from repro.errors import ConfigurationError, EstimationError
from repro.stream.covariance import CovarianceBank, EwCovariance
from tests.pmusic_oracle import smoothed_oracle

SPACING = 0.163
WAVELENGTH = 2.0 * SPACING
CONFIG = BatchPMusicConfig(spacing_m=SPACING, wavelength_m=WAVELENGTH)


def snapshots(rng, m=8, n=32):
    return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))


class TestEwCovariance:
    def test_decay_one_reproduces_sample_covariance(self, rng):
        # The tier-1 equivalence the streaming engine stands on: with
        # no forgetting, the rank-1 recursion is exactly the batch
        # sample covariance of everything seen.
        x = snapshots(rng)
        est = EwCovariance(num_antennas=8, decay=1.0)
        est.update_matrix(x)
        np.testing.assert_allclose(
            est.covariance(), sample_covariance(x), atol=1e-10
        )

    def test_decay_one_streaming_across_windows(self, rng):
        # Feeding two windows sequentially equals one concatenated batch.
        a, b = snapshots(rng, n=16), snapshots(rng, n=24)
        est = EwCovariance(num_antennas=8, decay=1.0)
        est.update_matrix(a)
        est.update_matrix(b)
        np.testing.assert_allclose(
            est.covariance(),
            sample_covariance(np.hstack([a, b])),
            atol=1e-10,
        )

    @pytest.mark.parametrize("columns", [1, 2, 7])
    def test_update_matrix_equals_repeated_update(self, rng, columns):
        # The closed-form window fold is the rank-1 recursion unrolled:
        # equal to it to rounding, and bit-identical for one column.
        history, x = snapshots(rng, m=4, n=3), snapshots(rng, m=4, n=columns)
        matrix = EwCovariance(num_antennas=4, decay=0.8)
        looped = EwCovariance(num_antennas=4, decay=0.8)
        matrix.update_matrix(history)
        looped.update_matrix(history)
        matrix.update_matrix(x)
        for n in range(columns):
            looped.update(x[:, n])
        if columns == 1:
            np.testing.assert_array_equal(matrix.covariance(), looped.covariance())
            assert matrix.weight == looped.weight
        else:
            np.testing.assert_allclose(
                matrix.covariance(), looped.covariance(), rtol=1e-13, atol=1e-15
            )
            assert matrix.weight == pytest.approx(looped.weight, rel=1e-14)
        assert matrix.updates == looped.updates

    def test_decay_discounts_old_snapshots(self, rng):
        old = np.ones(4, dtype=complex)
        new = 1j * np.ones(4, dtype=complex)
        est = EwCovariance(num_antennas=4, decay=0.5)
        est.update(old)
        for _ in range(16):
            est.update(new)
        # The surviving weight of the first snapshot is 0.5**16.
        r = est.covariance()
        np.testing.assert_allclose(r, np.outer(new, new.conj()), atol=1e-3)

    def test_weight_tracks_effective_count(self):
        est = EwCovariance(num_antennas=2, decay=1.0)
        est.update(np.ones(2))
        est.update(np.ones(2))
        assert est.weight == pytest.approx(2.0)
        assert est.updates == 2

    def test_estimate_is_hermitian(self, rng):
        est = EwCovariance(num_antennas=6, decay=0.8)
        est.update_matrix(snapshots(rng, m=6))
        assert is_hermitian(est.covariance())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            EwCovariance(num_antennas=0)
        with pytest.raises(ConfigurationError):
            EwCovariance(num_antennas=4, decay=0.0)
        with pytest.raises(ConfigurationError):
            EwCovariance(num_antennas=4, decay=1.5)

    def test_rejects_wrong_shapes_and_empty_reads(self):
        est = EwCovariance(num_antennas=4)
        with pytest.raises(EstimationError):
            est.update(np.ones(3))
        with pytest.raises(EstimationError):
            est.update_matrix(np.ones((3, 5)))
        with pytest.raises(EstimationError, match="no snapshots"):
            est.covariance()


class TestCovarianceBank:
    def test_pairs_are_independent(self, rng):
        bank = CovarianceBank(decay=1.0)
        a, b = snapshots(rng, m=4), snapshots(rng, m=4)
        bank.pair("r0", "t0", 4).update_matrix(a)
        bank.pair("r0", "t1", 4).update_matrix(b)
        assert len(bank) == 2
        np.testing.assert_allclose(
            bank.covariance("r0", "t0"), sample_covariance(a), atol=1e-10
        )
        np.testing.assert_allclose(
            bank.covariance("r0", "t1"), sample_covariance(b), atol=1e-10
        )

    def test_window_fold_equals_per_pair_updates(self, rng):
        bank = CovarianceBank(decay=0.8)
        a, b = snapshots(rng, m=4, n=5), snapshots(rng, m=4, n=3)
        columns = np.zeros((2, 5, 4), dtype=complex)
        columns[0], columns[1, 2:] = a.T, b.T
        bank.fold([("r0", "t0"), ("r0", "t1")], columns, np.array([5, 3]))
        for key, x in ((("r0", "t0"), a), (("r0", "t1"), b)):
            alone = EwCovariance(num_antennas=4, decay=0.8)
            alone.update_matrix(x)
            np.testing.assert_array_equal(bank.covariance(*key), alone.covariance())
            assert bank.pair(*key, 4).updates == x.shape[1]
        with pytest.raises(EstimationError, match="more than once"):
            bank.fold([("r0", "t0"), ("r0", "t0")], columns, np.array([5, 3]))

    def test_unknown_pair_raises(self):
        with pytest.raises(EstimationError, match="no covariance"):
            CovarianceBank().covariance("r", "t")


class TestSmoothedFromFull:
    def test_matches_snapshot_domain_smoothing(self, rng):
        # Diagonal-block averaging of the full R must equal the classic
        # subarray average computed from raw snapshots.
        x = snapshots(rng)
        full = sample_covariance(x)
        for fb in (False, True):
            np.testing.assert_allclose(
                batched_smoothed_from_full(full[None], 6, forward_backward=fb)[0],
                smoothed_oracle(x, 6, forward_backward=fb),
                atol=1e-12,
            )

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(EstimationError):
            batched_smoothed_from_full(np.ones((1, 3, 4)), 2)
        with pytest.raises(EstimationError):
            batched_smoothed_from_full(np.eye(4)[None], 1)


class TestBartlettFromCovariance:
    def test_matches_snapshot_domain_bartlett(self, rng):
        # Bartlett power from the stream's covariance (decay 1.0 makes
        # it the sample covariance) equals the snapshot-domain estimate.
        x = snapshots(rng)
        est = EwCovariance(num_antennas=8, decay=1.0)
        est.update_matrix(x)
        grid = default_angle_grid()
        via_cov = batched_bartlett_spectra(
            est.covariance()[None], SPACING, WAVELENGTH, grid
        )[0]
        via_snaps = bartlett_power_spectrum(x, SPACING, WAVELENGTH)
        np.testing.assert_allclose(via_cov, via_snaps.values, atol=1e-12)
        np.testing.assert_array_equal(grid, via_snaps.angles)


class TestPmusicFromCovariance:
    def test_matches_snapshot_domain_pmusic(self, rng):
        # The whole covariance-domain chain against the snapshot
        # estimator on the same data (decay 1.0 makes R the sample
        # covariance).
        x = snapshots(rng)
        est = EwCovariance(num_antennas=8, decay=1.0)
        est.update_matrix(x)
        from_cov = batched_pmusic_from_covariances(est.covariance()[None], CONFIG)[0]
        batch = PMusicEstimator(spacing_m=SPACING, wavelength_m=WAVELENGTH)
        from_snaps = batch.spectrum(x)
        np.testing.assert_array_equal(from_cov.angles, from_snaps.angles)
        np.testing.assert_allclose(from_cov.values, from_snaps.values, atol=1e-8)

    def test_rejects_non_square_covariance(self):
        with pytest.raises(EstimationError):
            batched_pmusic_from_covariances(np.ones((1, 3, 4)), CONFIG)


def _pairs(seed: int, count: int, m: int):
    """Per pair: an earlier window's columns and this window's, (N, M) each."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        columns = []
        for n in rng.integers(1, 13, size=2):
            x = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            # A coherent path, so most covariances have a peaked spectrum.
            phase = np.exp(-1j * np.pi * np.cos(rng.uniform(0, np.pi)) * np.arange(m))
            x += (rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))) * phase * 3
            columns.append(x)
        pairs.append(columns)
    return pairs


def _fold(bank, keys, windows, strided):
    """Fold each pair's window (right-aligned, zero-padded) in one call."""
    m = windows[0].shape[1]
    width = max(len(x) for x in windows)
    stack = np.zeros((len(windows), width, m), dtype=complex)
    for p, x in enumerate(windows):
        stack[p, width - len(x) :] = x
    if strided:
        # The same values through a non-contiguous view.
        wide = np.zeros((len(windows), width, 2 * m), dtype=complex)
        wide[:, :, ::2] = stack
        stack = wide[:, :, ::2]
    bank.fold(keys, stack, np.array([len(x) for x in windows]))


class TestPairIndependence:
    """A pair's covariance and spectrum depend on that pair alone, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=3, max_value=8),
        st.randoms(use_true_random=False),
    )
    def test_alone_equals_any_shuffled_stack(self, seed, count, m, shuffler):
        pairs = _pairs(seed, count, m)
        keys = [("r", f"t{p}") for p in range(count)]
        order = list(range(count))
        shuffler.shuffle(order)

        together = CovarianceBank(decay=0.8)
        for window in range(2):
            _fold(
                together,
                [keys[p] for p in order],
                [pairs[p][window] for p in order],
                strided=window == 1,
            )
        stack = together.covariances([keys[p] for p in order], m)
        config = BatchPMusicConfig(
            spacing_m=DEFAULT_WAVELENGTH_M / 2.0, wavelength_m=DEFAULT_WAVELENGTH_M
        )
        stacked = batched_pmusic_from_covariances(stack[:, ::-1, ::-1][:, ::-1, ::-1], config)

        for k, p in enumerate(order):
            alone = CovarianceBank(decay=0.8)
            for window in range(2):
                _fold(alone, [keys[p]], [pairs[p][window]], strided=False)
            r = alone.covariances([keys[p]], m)
            assert np.array_equal(r[0], stack[k])
            single = batched_pmusic_from_covariances(r, config)[0]
            if single is None:
                assert stacked[k] is None
            else:
                assert np.array_equal(single.values, stacked[k].values)
