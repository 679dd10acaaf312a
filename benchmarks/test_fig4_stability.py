"""Benchmark E-F4: stability of the discovered backend IP sets (Figure 4)."""

from conftest import emit

from repro.core.stability import max_churn_by_provider
from repro.experiments.characterization import fig4_stability


def test_fig4_stability(context):
    result = fig4_stability(context)
    emit("Figure 4: stability of backend IP sets", result.render())

    churn = max_churn_by_provider(result.comparisons)
    # Providers on (shared) public cloud infrastructure churn; most others barely do.
    cloud_reliant = ["sap", "siemens", "amazon"]
    stable = ["tencent", "baidu", "google", "ibm", "huawei", "fujitsu"]
    assert max(churn.get(key, 0.0) for key in cloud_reliant) > 0.05
    assert all(churn.get(key, 0.0) < 0.05 for key in stable)
    # Day-over-day change is small for every provider (weekly measurements suffice).
    day1 = [c for c in result.comparisons if (c.compared_day - c.reference_day).days == 1]
    assert day1
    assert all(c.churn_fraction < 0.30 for c in day1)
