"""Benchmark E-A1 (ablation): active-DNS vantage-point diversity (Section 3.3)."""

from conftest import emit

from repro.experiments.disruption_experiments import ablation_vantage_points


def test_ablation_vantage_points(context):
    result = ablation_vantage_points(context)
    emit("Ablation: active-DNS vantage points", result.render())

    # Resolving from three vantage points (two in Europe, one in the US) discovers
    # more addresses than a single European vantage point (paper: ~17% more).
    assert result.all_vp_ips > result.single_vp_ips
    assert result.gain_fraction > 0.02
