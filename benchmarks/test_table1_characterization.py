"""Benchmark E-T1: regenerate Table 1 (provider characteristics)."""

from conftest import emit

from repro.core.providers import STRATEGY_DI, STRATEGY_PR
from repro.experiments.characterization import table1_characterization


def test_table1_characterization(context):
    result = table1_characterization(context)
    emit("Table 1: IoT backend characteristics", result.render())

    assert len(result.rows) == 16
    amazon = result.row_for("Amazon IoT")
    # Amazon operates by far the largest backend (paper: ~9,000 /24s vs hundreds).
    assert amazon["ipv4_slash24"] == max(row["ipv4_slash24"] for row in result.rows)
    # The single-country backends stay single-country.
    assert result.row_for("Baidu IoT")["countries"] == 1
    assert result.row_for("Huawei IoT")["countries"] == 1
    # The majority of providers span multiple countries.
    multi_country = sum(1 for row in result.rows if row["countries"] > 1)
    assert multi_country >= 10
    # Strategy split: nine dedicated-infrastructure, six public-cloud providers.
    strategies = [row["strategy"] for row in result.rows]
    assert strategies.count(STRATEGY_DI) == 9
    assert strategies.count(STRATEGY_PR) == 6
