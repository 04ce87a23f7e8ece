"""Fig. 14 — overall localization accuracy in the three environments."""

from conftest import print_rows, run_once

from repro.experiments import run_fig14


def test_fig14_overall_localization(benchmark):
    result = run_once(
        benchmark, run_fig14, num_locations=16, repeats=2, rng=107
    )
    print_rows("Fig. 14: per-environment localization", result)
    assert set(result.results) == {"library", "laboratory", "hall"}
    assert len(result.rows()) == 4  # header + one row per environment
    # Paper: decimeter-level medians (16.5 / 25.3 / 32.1 cm).  The
    # simulated substrate reproduces the decimeter regime for covered
    # locations in every environment.
    for name, outcome in result.results.items():
        assert outcome.covered > 0, f"{name} produced no covered locations"
        assert outcome.summary().median < 0.6, name
    # The rich-multipath library covers at least as much of the area as
    # the near-empty hall (the paper's central "bad multipath" claim).
    assert (
        result.results["library"].coverage
        >= result.results["hall"].coverage - 1e-9
    )
