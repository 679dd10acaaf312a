"""Benchmark E-F5: scanner threshold vs. server coverage and #scanners (Figure 5)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig5_scanner_threshold


def test_fig5_scanner_threshold(context):
    result = fig5_scanner_threshold(context)
    emit("Figure 5: scanner threshold sweep", result.render())

    counts = [point.scanner_line_count for point in result.points]
    coverages = [point.server_coverage_fraction for point in result.points]
    # Raising the threshold excludes fewer lines...
    assert counts == sorted(counts, reverse=True)
    # ...while the visible share of the backend barely moves (paper: 27% -> 28%).
    assert max(coverages) - min(coverages) < 0.10
    # The strict threshold (10) flags many more lines than the adopted one (100).
    assert result.scanners_at(10) > result.scanners_at(100)
    assert result.scanners_at(100) >= context.config.n_scanner_lines
    # Coverage sits well below 100%: remote backends are never contacted from a
    # single European ISP.
    assert 0.10 < result.coverage_at(100) < 0.75
