"""Tests for blocklists and the outage injector."""

from datetime import datetime

import pytest

from repro.outage.injector import OutageEvent, OutageSchedule, aws_us_east_1_outage
from repro.security.blocklists import (
    CATEGORY_ATTACKS,
    CATEGORY_MALWARE,
    Blocklist,
    BlocklistAggregate,
)


class TestBlocklists:
    def test_membership_and_normalisation(self):
        blocklist = Blocklist("test", CATEGORY_MALWARE)
        blocklist.add("10.0.0.1")
        assert "10.0.0.1" in blocklist
        assert "10.0.0.2" not in blocklist
        assert "not-an-ip" not in blocklist
        assert len(blocklist) == 1

    def test_aggregate_check(self):
        a = Blocklist("list-a", CATEGORY_MALWARE, {"10.0.0.1"})
        b = Blocklist("list-b", CATEGORY_ATTACKS, {"10.0.0.1", "10.0.0.2"})
        aggregate = BlocklistAggregate([a, b])
        matches = aggregate.check("10.0.0.1")
        assert {m.list_name for m in matches} == {"list-a", "list-b"}
        assert aggregate.check("10.9.9.9") == []
        many = aggregate.check_many(["10.0.0.1", "10.0.0.2", "10.0.0.3"])
        assert set(many) == {"10.0.0.1", "10.0.0.2"}

    def test_unmaintained_lists_excluded_by_default(self):
        stale = Blocklist("stale", CATEGORY_ATTACKS, {"10.0.0.9"}, well_maintained=False)
        aggregate = BlocklistAggregate([stale])
        assert aggregate.check("10.0.0.9") == []
        assert aggregate.check("10.0.0.9", include_unmaintained=True)
        assert aggregate.lists() == []
        assert aggregate.lists(include_unmaintained=True) == [stale]


class TestOutage:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            OutageEvent(
                "bad",
                "Cloud",
                ("us-east-1",),
                datetime(2021, 12, 7, 18),
                datetime(2021, 12, 7, 17),
            )
        with pytest.raises(ValueError):
            OutageEvent(
                "bad",
                "Cloud",
                ("us-east-1",),
                datetime(2021, 12, 7, 16),
                datetime(2021, 12, 7, 17),
                traffic_retention=2.0,
            )

    def test_schedule_factors(self):
        event = aws_us_east_1_outage(traffic_retention=0.4, device_retention=0.9)
        schedule = OutageSchedule([event])
        during = event.start
        before = event.start.replace(hour=event.start.hour - 2)
        assert schedule.traffic_factor("Amazon Web Services", "us-east-1", during) == 0.4
        assert schedule.device_factor("Amazon Web Services", "us-east-1", during) == 0.9
        assert schedule.traffic_factor("Amazon Web Services", "eu-west-1", during) == 1.0
        assert schedule.traffic_factor("Microsoft Azure", "us-east-1", during) == 1.0
        assert schedule.traffic_factor("Amazon Web Services", "us-east-1", before) == 1.0
        assert schedule.traffic_factor(None, "us-east-1", during) == 1.0

    def test_empty_schedule_is_neutral(self):
        schedule = OutageSchedule()
        assert schedule.traffic_factor("Cloud", "region", datetime(2022, 1, 1)) == 1.0
        assert len(schedule) == 0
