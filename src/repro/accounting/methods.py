"""The five accounting methods of §4.2.

==========  =================================================================
Method      Charge for a job ``j`` on resource ``R``
==========  =================================================================
Runtime     core-time: ``cores * d_j`` (Chameleon-style node/core-hours)
Energy      measured energy ``e_j`` only (no capacity term)
Peak        core-time weighted by peak rating (ACCESS-style service units)
EBA         ``(e_j + beta * d_j * TDP_share) / 2``  — Eq. (1)
CBA         ``e_j * I_f(t) + d_j * rate_f(y) * share``  — Eq. (2)
==========  =================================================================

``TDP_share`` scales the node TDP by the fraction of the node the job
holds, because green-ACCESS provisions CPU jobs by core and charges GPU
jobs for whole devices (§4.1).

Each method writes its formula once, as
:meth:`~repro.accounting.base.AccountingMethod.cost`; ``charge``,
``charge_many`` and ``probe_kernel`` are the base class's adapters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.accounting.base import (
    AccountingMethod,
    MachinePricing,
    UsageBatch,
    UsageRecord,
)
from repro.carbon.embodied import (
    DepreciationSchedule,
    DoubleDecliningBalance,
    carbon_rate_per_hour,
)
from repro.units import SECONDS_PER_HOUR, core_hours, operational_carbon_g


@dataclass(frozen=True)
class RuntimeAccounting(AccountingMethod):
    """Charge core-time only (core-hours), ignoring heterogeneity.

    "Price is determined only by the core-time used ... similar to the
    model used by Chameleon Cloud [28]."
    """

    name: str = field(default="Runtime", init=False)

    def cost(self, k, duration_s, energy_j, cores, share, intensity):
        return core_hours(cores, duration_s)


@dataclass(frozen=True)
class EnergyAccounting(AccountingMethod):
    """Charge measured energy only (joules), "without accounting for
    device capacity" — the naive half of EBA."""

    name: str = field(default="Energy", init=False)

    def cost(self, k, duration_s, energy_j, cores, share, intensity):
        return energy_j


@dataclass(frozen=True)
class PeakAccounting(AccountingMethod):
    """Charge core-time multiplied by the machine's peak rating —
    "similar to ACCESS [7]" service units.

    Higher-performance machines cost more per core-hour regardless of
    what the job actually draws, which is how this baseline ends up
    making the *most* energy-hungry machine the cheapest in Table 1.
    """

    name: str = field(default="Peak", init=False)

    def cost(self, k, duration_s, energy_j, cores, share, intensity):
        return cores * duration_s * k

    def machine_constant(self, machine: MachinePricing) -> float:
        """The machine's per-core peak rating."""
        return machine.peak_rating


@dataclass(frozen=True)
class EnergyBasedAccounting(AccountingMethod):
    """EBA — Eq. (1): the mean of actual and potential energy.

    ``charge = (e_j + beta * d_j * TDP_share) / 2`` joules.

    ``beta`` is the paper's proposed (but unused) refinement for devices
    whose TDP far exceeds typical draw; the paper fixes ``beta = 1`` and
    so does the default here.  The ablation benchmark sweeps it.
    """

    beta: float = 1.0
    name: str = field(default="EBA", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be within [0, 1]")

    def cost(self, k, duration_s, energy_j, cores, share, intensity):
        # k * share is MachinePricing.attributed_tdp_watts.
        return (energy_j + self.beta * duration_s * (k * share)) / 2.0

    def machine_constant(self, machine: MachinePricing) -> float:
        """The machine's full-unit TDP (W)."""
        return machine.tdp_watts


@dataclass(frozen=True)
class CarbonBasedAccounting(AccountingMethod):
    """CBA — Eq. (2): operational plus attributed embodied carbon.

    ``charge = e_j[kWh] * I_f(t) + d_j[h] * rate_f(y) * share`` gCO2e,

    where ``rate_f(y)`` is the machine's embodied-carbon rate under the
    configured depreciation schedule (accelerated by default, §3.3) and
    ``share`` is the fraction of the unit held by the job.

    ``average_intensity_over_run``: when True, jobs are charged the
    time-weighted mean intensity over their execution window rather than
    the submit-hour snapshot.  The paper prices at submission (cost
    estimates must be quotable up front), so the default is False.
    """

    schedule: DepreciationSchedule = field(default_factory=DoubleDecliningBalance)
    average_intensity_over_run: bool = False
    name: str = field(default="CBA", init=False)

    def cost(self, k, duration_s, energy_j, cores, share, intensity):
        embodied = k * (duration_s / SECONDS_PER_HOUR) * share
        return operational_carbon_g(energy_j, intensity) + embodied

    def machine_constant(self, machine: MachinePricing) -> float:
        """The machine's embodied rate ``rate_f(y)`` (gCO2e/h)."""
        if machine.carbon_rate_override_g_per_h is not None:
            return machine.carbon_rate_override_g_per_h
        return carbon_rate_per_hour(
            machine.embodied_carbon_g, machine.age_years, self.schedule
        )

    def intensity_lookup(
        self, machine: MachinePricing, many: bool = False
    ) -> Callable[[Any, Any], Any]:
        """The submit-hour snapshot, or the window mean when
        ``average_intensity_over_run``; raises when ``machine`` has no
        trace."""
        trace = machine.intensity_trace()
        if self.average_intensity_over_run:
            return trace.average_over_many if many else trace.average_over
        if many:
            return lambda start_s, duration_s: trace.at_many(start_s)
        # Consecutive probes in one re-evaluation tick share a start
        # time, so memoize the last trace lookup.
        memo_start: float | None = None
        memo_intensity = 0.0

        def snapshot(start_s: float, duration_s: float) -> float:
            nonlocal memo_start, memo_intensity
            if start_s != memo_start:
                memo_start = start_s
                memo_intensity = trace.at(start_s)
            return memo_intensity

        return snapshot

    def charge_upper_bound(
        self, record: UsageRecord, machine: MachinePricing
    ) -> float:
        """Sound bound without a trace lookup: the trace maximum bounds
        both the snapshot and the window-averaged intensity."""
        peak = machine.intensity_trace().max
        return self.cost(*self._operands(record, machine), peak)

    def embodied_charge(self, record: UsageRecord, machine: MachinePricing) -> float:
        """The embodied (second) term of Eq. (2), in gCO2e."""
        # cost() of the job drawing no energy: the operational term is
        # +0.0, and adding it is exact.
        k, duration_s, _, cores, share = self._operands(record, machine)
        return self.cost(k, duration_s, 0.0, cores, share, 0.0)

    def embodied_charge_many(
        self, batch: UsageBatch, machine: MachinePricing
    ) -> np.ndarray:
        """Vectorized :meth:`embodied_charge` (same IEEE operation order)."""
        k, duration_s, _, cores, share = self._batch_operands(batch, machine)
        return self.cost(k, duration_s, 0.0, cores, share, 0.0)

    def operational_charge(self, record: UsageRecord, machine: MachinePricing) -> float:
        """The operational (first) term of Eq. (2), in gCO2e."""
        lookup = self.intensity_lookup(machine)
        return operational_carbon_g(
            record.energy_j, lookup(record.start_time_s, record.duration_s)
        )


def all_methods() -> list[AccountingMethod]:
    """The five methods in the order §4.2 lists them."""
    return [
        RuntimeAccounting(),
        EnergyAccounting(),
        PeakAccounting(),
        EnergyBasedAccounting(),
        CarbonBasedAccounting(),
    ]


def method_by_name(name: str) -> AccountingMethod:
    """Look up a method by its table name (case-insensitive)."""
    for method in all_methods():
        if method.name.lower() == name.lower():
            return method
    raise KeyError(f"unknown accounting method {name!r}")
