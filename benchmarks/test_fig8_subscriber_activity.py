"""Benchmark E-F8: hourly active subscriber lines per provider (Figure 8)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig8_subscriber_activity


def test_fig8_subscriber_activity(context):
    result = fig8_subscriber_activity(context)
    emit("Figure 8: active subscriber lines per provider per hour", result.render())

    labels = result.providers()
    assert "T1" in labels and "T2" in labels and "T3" in labels
    # Subscriber-line counts differ by orders of magnitude between providers.
    totals = {label: result.total(label) for label in labels}
    assert max(totals.values()) > 10 * min(totals.values())
    # The prime-time provider (T1) peaks in the evening; the daytime provider (T3)
    # peaks during the day; the constant provider (T2) has no pronounced evening peak.
    assert result.peak_hour("T1") >= 17
    assert 8 <= result.peak_hour("T3") < 20
    # Providers without a European footprint show (at most) marginal activity from
    # the European ISP (the paper excludes them from the rest of the analysis).
    for key in ("huawei", "baidu"):
        label = context.anonymization.label(key)
        if label in labels:
            assert result.total(label) < 0.10 * result.total("T1")
