"""Power-efficiency incentive schemes from the paper's related work.

§8 surveys alternatives to EBA/CBA; two are concrete enough to
implement and compare against:

* **Fugaku's points system** (Solórzano et al., SC'24 [52]): jobs that
  draw less than the node's "standard power" earn bonus node-hours for
  the user's future allocation.  Charging stays time-based; efficiency
  is rewarded out-of-band.
* **Scheduler-priority incentives** (Georgiou et al. [21]): an
  energy-efficiency score that a scheduler can feed into job priority —
  users "pay" in queue position rather than allocation.

Having these behind the same interfaces lets the benchmarks ask the
paper's implicit question: how far does a bonus scheme go compared to
charging for impact directly?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accounting.base import AccountingMethod, MachinePricing, UsageRecord
from repro.units import core_hours


@dataclass(frozen=True)
class FugakuPointsAccounting(AccountingMethod):
    """Time-based charging with a power-efficiency rebate.

    The charge is node-time (like Runtime), but jobs whose mean power
    stays below ``standard_power_fraction`` of the attributed TDP are
    rebated ``bonus_fraction`` of their charge — the points are
    returned to the allocation, mirroring Fugaku's bonus node-hours.
    """

    standard_power_fraction: float = 0.7
    bonus_fraction: float = 0.1
    name: str = field(default="Fugaku", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.standard_power_fraction <= 1.0:
            raise ValueError("standard power fraction must be in (0, 1]")
        if not 0.0 <= self.bonus_fraction < 1.0:
            raise ValueError("bonus fraction must be in [0, 1)")

    def mean_power_w(self, record: UsageRecord) -> float:
        if record.duration_s <= 0:
            return 0.0
        return record.energy_j / record.duration_s

    def qualifies(self, record: UsageRecord, machine: MachinePricing) -> bool:
        """Whether the job earns the efficiency bonus."""
        standard = (
            self.standard_power_fraction
            * machine.attributed_tdp_watts(record.occupancy)
        )
        return self.mean_power_w(record) <= standard

    def charge(self, record: UsageRecord, machine: MachinePricing) -> float:
        base = core_hours(record.cores, record.duration_s)
        if self.qualifies(record, machine):
            return base * (1.0 - self.bonus_fraction)
        return base


@dataclass(frozen=True)
class EfficiencyPriorityScore:
    """Georgiou-style scheduler priority from energy efficiency.

    Maps a user's recent usage records to a score in [0, 1]: the share
    of their core-hours that ran below the standard power threshold.
    A scheduler multiplies queue priority by ``floor + (1 - floor) *
    score`` so inefficient users wait longer instead of paying more.
    """

    standard_power_fraction: float = 0.7
    floor: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.standard_power_fraction <= 1.0:
            raise ValueError("standard power fraction must be in (0, 1]")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")

    def score(
        self,
        history: list[tuple[UsageRecord, MachinePricing]],
    ) -> float:
        """Efficient share of core-hours over the user's history."""
        total = 0.0
        efficient = 0.0
        for record, machine in history:
            used = core_hours(record.cores, record.duration_s)
            total += used
            standard = (
                self.standard_power_fraction
                * machine.attributed_tdp_watts(record.occupancy)
            )
            if record.duration_s > 0 and (
                record.energy_j / record.duration_s <= standard
            ):
                efficient += used
        if total <= 0:
            return 1.0  # no history: benefit of the doubt
        return efficient / total

    def priority_multiplier(
        self,
        history: list[tuple[UsageRecord, MachinePricing]],
    ) -> float:
        """The factor a scheduler applies to the user's queue priority."""
        return self.floor + (1.0 - self.floor) * self.score(history)
