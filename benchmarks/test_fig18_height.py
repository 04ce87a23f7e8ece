"""Fig. 18 — tag-array height difference degrades gracefully."""

import math


from conftest import print_rows, run_once

from repro.experiments import run_fig18


def test_fig18_height(benchmark):
    result = run_once(
        benchmark,
        run_fig18,
        height_differences_cm=(0, 40, 80, 120),
        num_locations=10,
        repeats=1,
        rng=111,
    )
    print_rows("Fig. 18: height-difference sweep (library)", result)
    assert result.height_difference_cm == [0.0, 40.0, 80.0, 120.0]
    # Paper: ~24 cm mean error at 40 cm difference, ~40 cm at 120 cm —
    # degradation is graceful, the system keeps working.  We assert the
    # large-height case stays within the paper's sub-metre regime and
    # that small height differences do not collapse coverage.
    valid = [err for err in result.mean_error_cm if not math.isnan(err)]
    assert valid, "no covered locations anywhere in the sweep"
    assert min(valid) < 100.0
    assert result.coverage[0] > 0.0
