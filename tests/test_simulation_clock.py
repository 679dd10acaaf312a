"""Tests for the simulated clock and study periods."""

from datetime import date

import pytest

from repro.simulation.clock import (
    AWS_OUTAGE_DATE,
    MAIN_STUDY_PERIOD,
    OUTAGE_STUDY_PERIOD,
    StudyPeriod,
)


def test_main_period_matches_paper():
    assert MAIN_STUDY_PERIOD.start == date(2022, 2, 28)
    assert MAIN_STUDY_PERIOD.end == date(2022, 3, 7)
    assert MAIN_STUDY_PERIOD.n_days == 7


def test_outage_period_contains_outage_date():
    assert AWS_OUTAGE_DATE in OUTAGE_STUDY_PERIOD.days()


def test_invalid_period_rejected():
    with pytest.raises(ValueError):
        StudyPeriod(date(2022, 3, 7), date(2022, 2, 28))


def test_days_and_hours_counts():
    period = StudyPeriod(date(2022, 1, 1), date(2022, 1, 4))
    assert len(period.days()) == 3

