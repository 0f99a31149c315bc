"""Carbon-aware temporal shifting — an extension beyond the paper.

§5.6 shows that CBA makes the *cheapest machine* vary with the hour;
the paper stops at spatial choice ("we do not allow job migration") and
cites temporal-shifting work [53, 58] as the complementary lever.  This
module adds that lever to the simulator: a deferral planner that holds a
job at submission and releases it at the cheapest intensity window
within a bounded delay.

The planner is deliberately simple and analyzable:

* For each candidate machine it scans release hours ``t + k`` for
  ``k = 0 .. max_delay_h`` and prices the job with Eq. (2) at each
  release time.
* It picks the (machine, delay) pair with the lowest cost, breaking
  ties toward earlier release.
* A ``patience`` factor discounts waiting: a delayed start must beat
  the immediate best by at least ``patience`` (relative), otherwise the
  job runs now — without this, tiny nighttime savings would defer the
  whole workload.

:class:`ShiftingSimulator` wraps the standard engine: deferred jobs
simply re-enter the event queue at their release time.  The release
ordering rides on the shared :class:`~repro.sim.events.EventCalendar`
(via the engine): the calendar stable-sorts the rewritten submission
times itself, so the wrapper hands over the shifted job list as-is and
every queueing/tie-break rule is the engine's own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accounting.base import AccountingMethod, UsageRecord
from repro.sim.engine import (
    MultiClusterSimulator,
    SimulationResult,
    pricing_for_sim_machine,
)
from repro.sim.job import Job
from repro.sim.policies import Policy
from repro.sim.scenarios import SimMachine
from repro.sim.workload import Workload
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class ShiftPlan:
    """The planner's decision for one job."""

    machine: str
    delay_s: float
    cost_now: float
    cost_at_release: float


class TemporalShiftPlanner:
    """Chooses (machine, start delay) minimizing carbon cost.

    Parameters
    ----------
    machines:
        The scenario's machines (with their intensity traces).
    method:
        The accounting method that prices jobs (CBA is the interesting
        one; under EBA or Runtime the cost is time-invariant and the
        planner degenerates to "run now on the cheapest machine").
    max_delay_h:
        Longest a job may be held.
    patience:
        Minimum relative saving required to defer at all.
    """

    def __init__(
        self,
        machines: dict[str, SimMachine],
        method: AccountingMethod,
        max_delay_h: int = 12,
        patience: float = 0.05,
    ) -> None:
        if max_delay_h < 0:
            raise ValueError("max delay cannot be negative")
        if not 0.0 <= patience < 1.0:
            raise ValueError("patience must be in [0, 1)")
        self.machines = machines
        self.method = method
        self.max_delay_h = max_delay_h
        self.patience = patience
        self._pricings = {
            name: pricing_for_sim_machine(m) for name, m in machines.items()
        }

    def _cost(self, job: Job, machine: str, start_s: float) -> float:
        record = UsageRecord(
            machine=machine,
            duration_s=job.runtime_s[machine],
            energy_j=job.energy_j[machine],
            cores=job.cores,
            start_time_s=start_s,
        )
        return self.method.charge(record, self._pricings[machine])

    def plan(self, job: Job, now_s: float) -> ShiftPlan:
        """Best (machine, delay) for a job submitted at ``now_s``."""
        candidates = [m for m in job.eligible_machines if m in self.machines]
        if not candidates:
            raise ValueError(f"job {job.job_id} has no eligible machine")

        best_now = min(
            ((self._cost(job, m, now_s), m) for m in candidates),
            key=lambda pair: pair[0],
        )
        best_cost, best_machine, best_delay = best_now[0], best_now[1], 0.0

        for k in range(1, self.max_delay_h + 1):
            release = now_s + k * SECONDS_PER_HOUR
            for machine in candidates:
                cost = self._cost(job, machine, release)
                if cost < best_cost * (1.0 - 1e-12):
                    best_cost, best_machine, best_delay = (
                        cost,
                        machine,
                        k * SECONDS_PER_HOUR,
                    )

        # Apply the patience hurdle: defer only for a real saving.
        if best_delay > 0 and best_cost > best_now[0] * (1.0 - self.patience):
            return ShiftPlan(
                machine=best_now[1],
                delay_s=0.0,
                cost_now=best_now[0],
                cost_at_release=best_now[0],
            )
        return ShiftPlan(
            machine=best_machine,
            delay_s=best_delay,
            cost_now=best_now[0],
            cost_at_release=best_cost,
        )


class ShiftingSimulator:
    """Engine wrapper: defers each job per the planner, then simulates.

    Deferral is applied by rewriting submission times before the normal
    event-driven run, which preserves every queueing/accounting
    behaviour of :class:`MultiClusterSimulator` — a held job simply does
    not exist until its release time.
    """

    def __init__(
        self,
        machines: dict[str, SimMachine],
        method: AccountingMethod,
        policy: Policy,
        max_delay_h: int = 12,
        patience: float = 0.05,
    ) -> None:
        self.machines = machines
        self.method = method
        self.policy = policy
        self.planner = TemporalShiftPlanner(
            machines, method, max_delay_h=max_delay_h, patience=patience
        )

    def run(self, workload: Workload) -> SimulationResult:
        shifted_jobs = []
        for job in workload.jobs:
            plan = self.planner.plan(job, job.submit_s)
            shifted_jobs.append(
                Job(
                    job_id=job.job_id,
                    user=job.user,
                    cores=job.cores,
                    submit_s=job.submit_s + plan.delay_s,
                    runtime_s=job.runtime_s,
                    energy_j=job.energy_j,
                )
            )
        # No sort here: the engine's EventCalendar merges the rewritten
        # arrival stream itself (stable by submit time, so equal-time
        # releases keep submission order exactly as before).
        shifted = Workload(
            jobs=shifted_jobs, config=workload.config, machines=workload.machines
        )
        engine = MultiClusterSimulator(self.machines, self.method, self.policy)
        result = engine.run(shifted)
        return SimulationResult(
            policy=f"{self.policy.name}+shift",
            method=self.method.name,
            machines=result.machines,
            store=result.store,
            shard_stats=result.shard_stats,
        )
