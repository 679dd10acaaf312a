"""Benchmark E-F7: subscriber-line loss when only TLS-certificate data is used (Figure 7)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig7_tls_only_loss


def test_fig7_tls_only_loss(context):
    result = fig7_tls_only_loss(context)
    emit("Figure 7: decrease in visible IoT subscriber lines (TLS-only discovery)", result.render())

    rows_v4 = [row for row in result.rows if row.ip_version == 4]
    assert rows_v4
    # For the SNI-based provider (T3 = Google) almost no subscriber line would
    # have been detectable from certificate scans alone.
    assert result.decrease_for("T3", 4) > 0.8
    # Several providers lose a noticeable share of their detectable lines, while
    # others are barely affected (Censys covers them completely).
    noticeable_losses = [row for row in rows_v4 if row.decrease_fraction > 0.2]
    small_losses = [row for row in rows_v4 if row.decrease_fraction < 0.1]
    assert len(noticeable_losses) >= 2
    assert len(small_losses) >= 2
