"""Benchmark E-F9: hourly downstream traffic volume per provider (Figure 9)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig8_subscriber_activity, fig9_traffic_volume


def test_fig9_traffic_volume(context):
    result = fig9_traffic_volume(context)
    emit("Figure 9: normalized downstream traffic volume per provider per hour", result.render())

    assert "T1" in result.providers()
    # Volumes differ strongly across providers.
    totals = {label: result.total(label) for label in result.providers()}
    assert max(totals.values()) > 10 * min(v for v in totals.values() if v > 0)
    # The number of subscriber lines is not a good predictor of traffic volume:
    # the per-line volume differs by more than a factor of three across providers.
    activity = fig8_subscriber_activity(context, min_lines_per_hour=1)
    per_line = {}
    for label in result.providers():
        lines = activity.total(label) if label in activity.providers() else 0.0
        if lines:
            per_line[label] = totals[label] / lines
    assert max(per_line.values()) > 3 * min(per_line.values())
