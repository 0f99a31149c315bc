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

:class:`ShiftingSimulator` plans every row of the workload's columns,
adds the delays to its ``submit`` column and runs the engine on it: a
held job simply arrives at its release time, under the engine's own
queueing and tie-break rules, and a row no fleet machine can run keeps
its time and is discarded, as in a plain run.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.accounting.base import AccountingMethod
from repro.sim.engine import (
    MultiClusterSimulator,
    SimulationResult,
    pricing_for_sim_machine,
)
from repro.sim.job import Job, Take
from repro.sim.policies import Policy
from repro.sim.scenarios import SimMachine
from repro.sim.workload import Workload
from repro.units import SECONDS_PER_HOUR


@dataclasses.dataclass(frozen=True)
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
        #: Scalar probe quoters: ``charge()`` without a record per probe.
        self._quoters = {
            name: method.probe_kernel(pricing_for_sim_machine(m))
            for name, m in machines.items()
        }

    def plan(self, job: Job, now_s: float) -> ShiftPlan:
        """Best (machine, delay) for a job submitted at ``now_s``."""
        names = [m for m in job.eligible_machines if m in self.machines]
        if not names:
            raise ValueError(f"job {job.job_id} has no eligible machine")
        runtime = [job.runtime_s[m] for m in names]
        energy = [job.energy_j[m] for m in names]
        return self._plan(names, runtime, energy, job.cores, now_s)

    def _plan(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        cores: int,
        now_s: float,
    ) -> ShiftPlan:
        """:meth:`plan` for a job that runs on ``names`` (fleet machines,
        in its eligibility order) for ``runtime`` and ``energy``."""
        quoters = [self._quoters[m] for m in names]

        def costs(start_s: float) -> list[float]:
            return [
                quote(rt, en, cores, start_s)
                for quote, rt, en in zip(quoters, runtime, energy)
            ]

        now_costs = costs(now_s)
        cost_now = min(now_costs)
        machine_now = names[now_costs.index(cost_now)]
        best_cost, best_machine, best_delay = cost_now, machine_now, 0.0

        for k in range(1, self.max_delay_h + 1):
            release = now_s + k * SECONDS_PER_HOUR
            for machine, cost in zip(names, costs(release)):
                if cost < best_cost * (1.0 - 1e-12):
                    best_cost, best_machine = cost, machine
                    best_delay = k * SECONDS_PER_HOUR

        # Apply the patience hurdle: defer only for a real saving.
        if best_delay > 0 and best_cost > cost_now * (1.0 - self.patience):
            best_cost, best_machine, best_delay = cost_now, machine_now, 0.0
        return ShiftPlan(best_machine, best_delay, cost_now, best_cost)


class ShiftingSimulator:
    """Engine wrapper: defers each job per the planner, then simulates."""

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
        block = workload.block(list(self.machines))
        names = block.machine_names
        runtime, energy = block.floats()
        cores = block.cores.tolist()
        submit = block.submit.tolist()
        plan = self.planner._plan

        def delays(walk: tuple[int, ...], take: Take) -> list[float]:
            if not walk:
                return [0.0] * len(take(cores))
            keys = [names[mi] for mi in walk]
            return [
                plan(keys, rt, en, c, s).delay_s
                for c, s, rt, en in zip(
                    take(cores),
                    take(submit),
                    zip(*[take(runtime[mi]) for mi in walk]),
                    zip(*[take(energy[mi]) for mi in walk]),
                )
            ]

        shifted = dataclasses.replace(
            block, submit=block.submit + np.array(block.per_row(delays))
        )
        engine = MultiClusterSimulator(self.machines, self.method, self.policy)
        result = engine.run(Workload.from_block(shifted, workload.config))
        result.policy = f"{self.policy.name}+shift"
        return result
