"""Outage drill: quantify the impact of a cloud-region outage on IoT traffic.

Replays the December 2021 study period, during which the ``us-east-1`` region of a
major cloud provider suffered a large-scale outage (Section 6.1 of the paper), and
then runs a hypothetical drill with a more severe outage to illustrate how the same
tooling supports what-if analyses.

Run with::

    python examples/outage_drill.py
"""

from __future__ import annotations

from repro.core.disruption import GROUP_EU, GROUP_US_EAST, outage_impact
from repro.core.report import format_percent
from repro.experiments.context import build_context
from repro.experiments.disruption_experiments import (
    fig15_fig16_outage,
    sec62_potential_disruptions,
)
from repro.outage.injector import OutageSchedule, aws_us_east_1_outage
from repro.simulation.config import ScenarioConfig


def main(config: "ScenarioConfig | None" = None) -> None:
    config = config or ScenarioConfig.small(seed=23).with_overrides(n_subscriber_lines=1500)
    print("Building world and replaying the December 2021 outage week...")
    context = build_context(config)

    result = fig15_fig16_outage(context, provider_label="T1")
    print("\nObserved impact on the affected provider (T1):")
    print(f"  downstream traffic drop, US-East regions : {format_percent(result.traffic_drop_us_east())}")
    print(f"  downstream traffic drop, EU regions      : {format_percent(result.traffic_drop_eu())}")
    print(f"  subscriber-line drop, US-East regions    : {format_percent(result.line_drop_us_east())}")
    print(f"  EU / US-East traffic ratio               : {result.eu_to_us_traffic_ratio():.1f}x")

    # What-if: a more severe outage that also breaks device retries.
    print("\nWhat-if drill: a harsher outage (80% capacity loss, devices give up)...")
    # The context's cached tables hold the replayed week; the drill regenerates
    # the outage period under the new schedule.
    world = context.world
    world.outage_schedule = OutageSchedule(
        [aws_us_east_1_outage(traffic_retention=0.2, device_retention=0.6)]
    )
    flows = world.workload_generator().generate_period_table(config.outage_period)
    window = result.report.outage_window
    drill = outage_impact(flows, context.anonymization.provider("T1"), window)
    print(f"  downstream traffic drop, US-East regions : {format_percent(drill.drop_vs_previous_week(GROUP_US_EAST))}")
    print(f"  subscriber-line drop, US-East regions    : {format_percent(drill.line_drop_vs_previous_week(GROUP_US_EAST))}")
    print(f"  downstream traffic drop, EU regions      : {format_percent(drill.drop_vs_previous_week(GROUP_EU))}")

    print("\nPotential disruptions during the main study week (Section 6.2):")
    disruptions = sec62_potential_disruptions(context)
    for kind, count in disruptions.bgp.counts_by_kind.items():
        print(f"  {kind.value:<16} {count}")
    print(f"  events touching backends: {len(disruptions.bgp.affecting_events)}")
    print(
        f"  backend IPs on blocklists: {disruptions.blocklists.total_listed_ips} "
        f"across {len(disruptions.blocklists.providers_affected())} providers"
    )


if __name__ == "__main__":
    main()
