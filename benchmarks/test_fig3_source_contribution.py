"""Benchmark E-F3: per-source contribution of discovered IPs (Figure 3)."""

from conftest import emit

from repro.core.source_attribution import CATEGORY_PASSIVE_DNS, CATEGORY_SCAN
from repro.experiments.characterization import fig3_source_contribution


def test_fig3_source_contribution(context):
    result = fig3_source_contribution(context)
    emit("Figure 3: contribution of each data source", result.render())

    # Amazon has by far the most discovered addresses.
    totals = {b.provider_key: b.total for b in result.breakdowns if b.ip_version == 4}
    assert totals["amazon"] == max(totals.values())
    # Certificate scans alone contribute (almost) nothing for the SNI-based
    # provider (Google); passive DNS dominates there.
    google = result.breakdown_for("google", 4)
    assert google.fraction(CATEGORY_SCAN) <= 0.05
    assert google.fraction(CATEGORY_PASSIVE_DNS) >= 0.3
    # Certificate scans are the main single source for Microsoft/SAP/Tencent
    # (the paper detects all their backends via Censys).
    for key in ("microsoft", "sap", "tencent"):
        breakdown = result.breakdown_for(key, 4)
        single_source_scan = breakdown.fraction(CATEGORY_SCAN)
        assert single_source_scan >= breakdown.fraction(CATEGORY_PASSIVE_DNS)
    # IPv6 backends are discovered for Amazon and Google.
    assert result.breakdown_for("amazon", 6).total > 0
    assert result.breakdown_for("google", 6).total > 0
