"""Simulated time: study periods.

The paper studies two periods:

* the *main* study period, February 28 -- March 7 2022 (one week), used for the
  footprint and traffic analyses (Sections 3--5), and
* the *outage* study period, December 3 -- 10 2021, which contains the AWS
  ``us-east-1`` outage of December 7 2021 (Section 6.1).

All timestamps in the simulation are timezone-naive :class:`datetime.datetime`
objects interpreted as the ISP's local time.  No component reads the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import List


@dataclass(frozen=True)
class StudyPeriod:
    """A half-open interval of whole days ``[start, end)`` used for measurements."""

    start: date
    end: date
    name: str = "study"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"study period end {self.end} must be after start {self.start}")

    @property
    def n_days(self) -> int:
        """Number of whole days covered by the period."""
        return (self.end - self.start).days

    def days(self) -> List[date]:
        """Return the list of dates in the period, in order."""
        return [self.start + timedelta(days=i) for i in range(self.n_days)]


#: Main study period (footprint + traffic analyses), Feb 28 -- Mar 7 2022.
MAIN_STUDY_PERIOD = StudyPeriod(date(2022, 2, 28), date(2022, 3, 7), name="main")

#: Preliminary / outage study period, Dec 3 -- 10 2021 (AWS us-east-1 outage on Dec 7).
OUTAGE_STUDY_PERIOD = StudyPeriod(date(2021, 12, 3), date(2021, 12, 10), name="outage")

#: The day the AWS us-east-1 outage occurred.
AWS_OUTAGE_DATE = date(2021, 12, 7)

#: Hours (local time) during which the outage degraded the affected region.
AWS_OUTAGE_HOURS = (16, 23)
