"""Benchmark E-S62: potential disruptions — BGP incidents and blocklists (Section 6.2)."""

from conftest import emit

from repro.experiments.disruption_experiments import sec62_potential_disruptions
from repro.routing.events import EventKind


def test_sec62_potential_disruptions(context):
    result = sec62_potential_disruptions(context)
    emit("Section 6.2: potential disruptions", result.render())

    # The study week contains many routing incidents (paper: 10 leaks, 40 possible
    # hijacks, 166 AS outages) ...
    counts = result.bgp.counts_by_kind
    assert counts[EventKind.BGP_LEAK] == 10
    assert counts[EventKind.POSSIBLE_HIJACK] == 40
    assert counts[EventKind.AS_OUTAGE] == 166
    # ... none of which touched the discovered backends.
    assert not result.bgp.any_backend_affected

    # A handful of backend addresses appear on blocklists (paper: 16 IPs across 6
    # providers), spread over several categories.
    assert 0 < result.blocklists.total_listed_ips <= context.config.n_blocklisted_backend_ips
    assert len(result.blocklists.providers_affected()) >= 3
    assert len(result.blocklists.category_counts()) >= 2
