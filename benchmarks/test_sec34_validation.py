"""Benchmark E-V34: ground-truth validation (Section 3.4)."""

from conftest import emit

from repro.experiments.characterization import sec34_validation


def test_sec34_validation(context):
    result = sec34_validation(context)
    emit("Section 3.4: validation against ground truth", result.render())

    # Cisco, Siemens, and Microsoft publish (parts of) their ranges.
    assert set(result.ground_truth) == {"cisco", "siemens", "microsoft"}
    # Every discovered address falls inside the published ranges.
    for report in result.ground_truth.values():
        assert report.all_inside
    # Microsoft's published space is much larger than the discovered set
    # (the paper finds 484 of >12,000 listed addresses).
    microsoft = result.ground_truth["microsoft"]
    assert microsoft.published_address_count > 4 * microsoft.discovered_count
    # The traffic volume attributed to missed servers stays below a few percent
    # (the paper reports an underestimation of less than 1%).
    for report in result.traffic_reports.values():
        assert report.underestimation_fraction < 0.05
