"""Benchmark E-B1 (ablation): port-scan-only baseline vs. the methodology."""

from conftest import emit

from repro.experiments.disruption_experiments import ablation_portscan_baseline


def test_ablation_portscan_baseline(context):
    result = ablation_portscan_baseline(context)
    emit("Ablation: port-scan-only baseline", result.render())

    report = result.report
    # Probing only the standard IoT ports misses part of the backend addresses
    # (providers serving IoT on Web or non-standard ports only).
    assert report.miss_fraction > 0.02
    assert report.missed_backends
    # And the candidates it does find cannot be attributed to a provider.
    assert report.unattributable == report.candidate_ips
    assert len(report.reference_ips) > 0
