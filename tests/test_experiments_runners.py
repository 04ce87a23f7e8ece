"""Smoke + shape tests for the experiment runners.

These run the figure reproductions at reduced size and assert the
*qualitative* claims each figure makes, which is exactly what the
reproduction is accountable for.  The room experiments (Figs. 14 and
16-18) are checked only by their ``benchmarks/`` files, which run the
same runners at larger sizes with stricter assertions.
"""


import pytest

import repro.experiments as experiments


class TestFig03:
    def test_offsets_random_and_wide(self):
        result = experiments.run_fig03(rng=1)
        assert len(result.offsets_deg) == 16
        assert result.offsets_deg[0] == 0.0
        # The paper's offsets span hundreds of degrees.
        assert result.spread_deg > 90.0

    def test_rows_one_per_port(self):
        result = experiments.run_fig03(rng=2)
        assert len(result.rows()) == 17  # header + 16 ports


class TestFig04:
    def test_music_leaks_onto_unblocked_peaks(self):
        result = experiments.run_fig04(rng=3)
        # MUSIC's failure: blocking one path changes other peaks too.
        assert result.unblocked_leakage > 0.3

    def test_all_blocked_case_underreports(self):
        result = experiments.run_fig04(rng=3)
        blocked_change = result.all_blocked_change[result.blocked_index]
        # With every path blocked the (normalized) MUSIC spectrum barely
        # registers the event at the blocked peak.
        assert blocked_change > -0.5


class TestFig09:
    def test_dwatch_improves_with_tags_phaser_flat(self):
        result = experiments.run_fig09(tag_counts=(1, 4, 8), trials=2, rng=4)
        assert result.dwatch_error_rad[-1] < result.dwatch_error_rad[0]
        # Phaser ignores extra tags entirely.
        assert result.phaser_error_rad[0] == pytest.approx(
            result.phaser_error_rad[-1]
        )

    def test_dwatch_beats_phaser_at_high_tag_counts(self):
        result = experiments.run_fig09(tag_counts=(8,), trials=2, rng=5)
        assert result.dwatch_error_rad[0] < result.phaser_error_rad[0]


class TestFig10:
    def test_calibration_mode_ordering(self):
        result = experiments.run_fig10(trials=2, rng=6)
        medians = result.medians()
        assert medians["dwatch"] <= medians["phaser"] + 0.5
        assert medians["none"] > 10 * max(medians["dwatch"], 0.1)


class TestFig12:
    def test_only_blocked_path_drops(self):
        result = experiments.run_fig12(rng=7)
        blocked = result.one_blocked_drop[result.blocked_index]
        others = [
            drop
            for index, drop in enumerate(result.one_blocked_drop)
            if index != result.blocked_index
        ]
        assert blocked > 0.8
        assert all(drop < 0.5 for drop in others)

    def test_all_paths_drop_when_all_blocked(self):
        result = experiments.run_fig12(rng=7)
        assert sum(1 for d in result.all_blocked_drop if d > 0.5) >= 2


class TestFig13:
    def test_pmusic_dominates_music_when_all_blocked(self):
        result = experiments.run_fig13(
            distances_m=(2.0, 4.0), trials=4, rng=8
        )
        for p_all, m_all in zip(result.pmusic_all, result.music_all):
            assert p_all > m_all

    def test_music_fails_all_blocked_case(self):
        result = experiments.run_fig13(distances_m=(4.0,), trials=4, rng=9)
        assert result.music_all[0] <= 0.25


class TestTableExperiments:
    def test_fig19_sparse_targets_found(self):
        result = experiments.run_fig19(
            separations_cm=(130.0,), snapshots=2, rng=14
        )
        assert result.targets_found[0] >= 2

    def test_fig21_fist_tracking_accuracy(self):
        result = experiments.run_fig21(tag_counts=(26,), letters=("P",), rng=15)
        assert result.median_error_cm[0] < 15.0

    def test_letter_waypoints_known_letters(self):
        from repro.experiments.fig21_fist import letter_waypoints
        from repro.geometry.point import Point

        for letter in ("P", "O"):
            waypoints = letter_waypoints(letter, Point(1.0, 1.0))
            assert len(waypoints) >= 5
        with pytest.raises(ValueError):
            letter_waypoints("Q", Point(0, 0))


class TestLatency:
    def test_fix_latency_below_half_second(self):
        result = experiments.run_latency(fixes=3, rng=16)
        # Paper: end-to-end below 0.5 s.
        assert result.mean_ms < 500.0
