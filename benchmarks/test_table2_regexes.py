"""Benchmark E-T2: regenerate Table 2 (Appendix A regexes and queries)."""

from conftest import emit

from repro.core.providers import PROVIDERS
from repro.experiments.characterization import table2_regexes


def test_table2_regexes(context):
    result = table2_regexes()
    emit("Table 2: domain patterns and external-service queries", result.render())

    providers = {row["provider"] for row in result.rows}
    assert providers == {spec.name for spec in PROVIDERS}
    flex = [row for row in result.rows if row["api_type"] == "Flexible Search"]
    basic = [row for row in result.rows if row["api_type"] == "Basic Search"]
    censys = [row for row in result.rows if row["data_source"] == "Censys"]
    assert len(flex) == 16
    assert basic and censys
    # The Google queries use the fixed FQDN, as in the paper's appendix.
    google_basic = [row for row in basic if row["provider"] == "Google IoT Core"]
    assert any("mqtt.googleapis.com" in row["query"] for row in google_basic)
    # Every flexible-search query is rrtype-anchored.
    assert all(row["query"].endswith("/A") for row in flex)
