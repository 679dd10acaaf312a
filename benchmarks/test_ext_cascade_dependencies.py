"""Benchmark E-X1 (extension): inter-provider hosting dependencies and cascade
exposure (Sections 4.2 and 7 of the paper)."""

from conftest import emit

from repro.core.dependencies import (
    cascade_exposure,
    hosting_dependencies,
    most_critical_organization,
    shared_hosting_organizations,
)
from repro.core.providers import CLOUD_AWS, get_provider
from repro.core.report import format_percent, render_table


def test_cascade_dependencies(context):
    dependencies = hosting_dependencies(
        context.result.combined,
        context.world.routing_table,
        context.world.as_registry,
    )
    critical = most_critical_organization(dependencies)
    impacts = cascade_exposure(dependencies, critical, minimum_fraction=0.0)
    rows = [
        [get_provider(impact.provider_key).name, format_percent(impact.affected_fraction)]
        for impact in impacts
    ]
    emit(
        f"Extension: cascade exposure to a full outage of {critical}",
        render_table(["Provider", "Backend share hosted there"], rows),
    )

    # Six providers rely on public clouds for their gateways (Section 4.2).
    third_party = [key for key, dep in dependencies.items() if dep.relies_on_third_party]
    assert len(third_party) >= 6
    # At least one hosting organisation serves several IoT backends, so outages can
    # cascade (Section 7); AWS is the most widely shared host.
    shared = shared_hosting_organizations(dependencies)
    assert CLOUD_AWS in shared and len(shared[CLOUD_AWS]) >= 3
    assert critical == CLOUD_AWS
    # Some providers would lose their entire gateway footprint in such an outage.
    assert any(impact.affected_fraction == 1.0 for impact in impacts)
