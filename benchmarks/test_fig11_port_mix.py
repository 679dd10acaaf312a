"""Benchmark E-F11: traffic volume per port and provider (Figure 11)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig11_port_mix


def test_fig11_port_mix(context):
    result = fig11_port_mix(context)
    emit("Figure 11: share of traffic volume per port and provider", result.render())

    assert result.mix
    # Secure MQTT on its standard port is used by more than half of the providers.
    mqtts_users = [label for label in result.mix if result.share(label, "TCP/8883 (MQTTS)") > 0.0]
    assert len(mqtts_users) >= len(result.mix) / 2
    # Web ports carry a substantial share for several providers...
    https_heavy = [label for label in result.mix if result.share(label, "TCP/443 (HTTPS)") > 0.05]
    assert len(https_heavy) >= 3
    # ...and some providers rely on non-standard or application-specific ports
    # (ActiveMQ on 61616, AMQP bulk ingestion on 5671).
    d4 = context.anonymization.label("sap")
    d3 = context.anonymization.label("ptc")
    assert result.share(d4, "TCP/5671 (AMQPS)") > 0.4
    assert result.share(d3, "TCP/61616 (ActiveMQ)") > 0.1
    # No single pattern describes all providers: the dominant port differs.
    assert len({result.dominant_port(label) for label in result.mix}) >= 3
