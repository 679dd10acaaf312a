"""Benchmark E-F10: downstream/upstream traffic ratios (Figure 10)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig10_direction_ratio


def test_fig10_direction_ratio(context):
    result = fig10_direction_ratio(context)
    emit("Figure 10: downstream/upstream byte ratio per provider", result.render())

    ratios = result.overall
    assert ratios
    # Both downstream-heavy and upstream-heavy providers exist; the spread covers
    # the paper's "less than 0.33 to more than 3" observation qualitatively.
    assert any(ratio > 1.5 for ratio in ratios.values())
    assert any(ratio < 0.75 for ratio in ratios.values())
    # The surveillance-style provider uploads more than it downloads.
    surveillance = context.anonymization.label("tencent")
    assert ratios[surveillance] < 1.0
    # The prime-time entertainment-style provider is downstream-heavy.
    assert ratios["T1"] > 1.5
