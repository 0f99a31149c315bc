"""Embodied-carbon attribution (paper §3.3).

The paper departs from the SCI specification's linear amortization [50]
and treats embodied carbon like a depreciating capital expense, using
**double-declining balance** over a five-year refresh period (40%/year):

.. math::

    R_f(y) = C_f (1 - 0.4)^y \\qquad
    D_f(y) = 0.4 R_f(y) \\qquad
    \\text{rate}(y) = D_f(y) / (24 \\cdot 365)

so machines are charged more embodied carbon early in life, rewarding
users who keep older hardware busy and extending refresh cycles.  Both
the paper's schedule and the linear baseline it compares against
(Table 4) are provided behind one interface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.units import HOURS_PER_YEAR


class DepreciationSchedule(abc.ABC):
    """How a machine's total embodied carbon is spread over its life."""

    @abc.abstractmethod
    def yearly_charge(self, total_embodied_g: float, age_years: int) -> float:
        """Embodied carbon (g) attributed to year ``age_years`` of life.

        ``age_years`` is a whole number of years since deployment;
        year 0 is the machine's first year.
        """

    def rate_per_hour(self, total_embodied_g: float, age_years: int) -> float:
        """The paper's carbon rate: the yearly charge divided by 24*365.

        This is the per-node rate; callers attribute a share of it to a
        job according to the fraction of the node the job holds.
        """
        if total_embodied_g < 0:
            raise ValueError("embodied carbon cannot be negative")
        if age_years < 0:
            raise ValueError("age cannot be negative")
        return self.yearly_charge(total_embodied_g, age_years) / HOURS_PER_YEAR


@dataclass(frozen=True)
class LinearDepreciation(DepreciationSchedule):
    """Straight-line amortization over ``lifetime_years`` (the standard
    practice of the SCI specification [50], used as the paper's baseline).

    Past the end of life the charge is zero — a fully depreciated machine
    carries no further embodied burden.
    """

    lifetime_years: int = 5

    def __post_init__(self) -> None:
        if self.lifetime_years <= 0:
            raise ValueError("lifetime must be positive")

    def yearly_charge(self, total_embodied_g: float, age_years: int) -> float:
        if total_embodied_g < 0:
            raise ValueError("embodied carbon cannot be negative")
        if age_years < 0:
            raise ValueError("age cannot be negative")
        if age_years >= self.lifetime_years:
            return 0.0
        return total_embodied_g / self.lifetime_years


@dataclass(frozen=True)
class DoubleDecliningBalance(DepreciationSchedule):
    """The paper's accelerated schedule: 40%/year of the remaining balance.

    With a five-year refresh period the annual rate is ``2/5 = 0.4``;
    the remaining (unaccounted-for) carbon after ``y`` years is
    ``C_f * 0.6**y`` and never quite reaches zero, so old machines keep a
    small positive rate — deliberately, since they still embody carbon.
    """

    lifetime_years: int = 5

    def __post_init__(self) -> None:
        if self.lifetime_years <= 0:
            raise ValueError("lifetime must be positive")

    @property
    def annual_rate(self) -> float:
        """The declining-balance rate: double the straight-line rate."""
        return 2.0 / self.lifetime_years

    def remaining(self, total_embodied_g: float, age_years: int) -> float:
        """Unaccounted-for carbon ``R_f(y)`` after ``age_years`` years."""
        if total_embodied_g < 0:
            raise ValueError("embodied carbon cannot be negative")
        if age_years < 0:
            raise ValueError("age cannot be negative")
        return total_embodied_g * (1.0 - self.annual_rate) ** age_years

    def yearly_charge(self, total_embodied_g: float, age_years: int) -> float:
        return self.annual_rate * self.remaining(total_embodied_g, age_years)


#: The schedule CBA uses by default (paper §3.3).
DEFAULT_SCHEDULE = DoubleDecliningBalance()


def carbon_rate_per_hour(
    total_embodied_g: float,
    age_years: int,
    schedule: DepreciationSchedule | None = None,
) -> float:
    """Per-node embodied-carbon rate (gCO2e/h) — Table 2/5's "Carbon Rate"."""
    schedule = schedule or DEFAULT_SCHEDULE
    return schedule.rate_per_hour(total_embodied_g, age_years)

