"""Fig. 7: the low-carbon, high-variability scenario (§5.6).

* **7a** — work per policy with a fixed CBA allocation on the
  re-homed grids (AU-SA / CA-ON / NO-NO2 / DK-BHM);
* **7b** — each region's carbon intensity over one day;
* **7c** — which machine is the *cheapest CBA choice* for a reference
  job, as a share of jobs, by hour of day.  The paper's shape: Theta
  (DK-BHM) is cheapest early in the day, shifting toward IC (AU-SA) as
  Danish intensity rises and Australian solar comes online.
"""

from __future__ import annotations

import numpy as np

from repro.accounting.base import UsageBatch
from repro.accounting.methods import CarbonBasedAccounting
from repro.accounting.pricing import PricingKernel
from repro.experiments._simulation import (
    DEFAULT_SCALE,
    greedy_budget,
    policy_sweep,
    scenario,
    workload,
)
from repro.sim.engine import pricing_for_sim_machine
from repro.sim.job import JobBlock

MULTI_POLICIES = ("Greedy", "Energy", "Mixed", "EFT", "Runtime")


def work_with_fixed_allocation(
    scale: int = DEFAULT_SCALE, seed: int = 0
) -> dict[str, float]:
    """Fig. 7a: work per policy under a shared CBA budget, low-carbon grids."""
    results = policy_sweep("low-carbon", "CBA", scale, seed)
    budget = greedy_budget("low-carbon", "CBA", scale, seed)
    return {
        name: results[name].work_with_budget(budget) for name in MULTI_POLICIES
    }


def day_intensity(seed: int = 0, day: int = 10) -> dict[str, np.ndarray]:
    """Fig. 7b: 24 hourly intensities per machine's region."""
    machines = dict(scenario("low-carbon", seed))
    return {
        f"{m.intensity.region} ({name})": m.intensity.day_profile(day)
        for name, m in machines.items()
    }


def cheapest_endpoint_by_hour(
    scale: int = DEFAULT_SCALE, seed: int = 0, day: int = 10
) -> dict[int, dict[str, float]]:
    """Fig. 7c: share of jobs for which each machine is the cheapest CBA
    submission target, per hour of ``day``.

    Vectorized: the sample's per-(job, machine) runtime/energy arrays
    come straight from a :class:`~repro.accounting.pricing.PricingKernel`
    quote table, then one ``charge_many`` call per (machine, hour) and
    an argmin across the machine axis — the same winner-takes-first tie
    behaviour as scanning each job's eligible machines in order.
    """
    machines = dict(scenario("low-carbon", seed))
    pricings = {n: pricing_for_sim_machine(m) for n, m in machines.items()}
    cba = CarbonBasedAccounting()
    wl = workload("low-carbon", scale, seed)
    sample = wl.jobs[:: max(1, len(wl.jobs) // 400)]  # ~400 jobs is plenty

    kernel = PricingKernel(JobBlock.from_jobs(sample, list(pricings)), pricings, cba)
    names = kernel.machine_names
    n = len(sample)
    eligible = {name: ~np.isnan(kernel.runtime[name]) for name in names}

    out: dict[int, dict[str, float]] = {}
    for hour in range(24):
        t = (day * 24 + hour) * 3600.0
        costs = np.full((len(names), n), np.inf)
        for mi, name in enumerate(names):
            mask = eligible[name]
            batch = UsageBatch.unchecked(
                machine=name,
                duration_s=kernel.runtime[name][mask],
                energy_j=kernel.energy[name][mask],
                cores=kernel.cores[mask],
                start_time_s=np.full(int(mask.sum()), t),
            )
            costs[mi, mask] = cba.charge_many(batch, pricings[name])
        winners = np.argmin(costs, axis=0)
        wins = np.bincount(winners, minlength=len(names))
        total = int(wins.sum()) or 1
        out[hour] = {name: int(wins[mi]) / total for mi, name in enumerate(names)}
    return out


def format_report(scale: int = DEFAULT_SCALE, seed: int = 0) -> str:
    works = work_with_fixed_allocation(scale, seed)
    lines = ["Fig. 7a: work with fixed CBA allocation (low-carbon grids)"]
    for name, work in works.items():
        lines.append(f"  {name:<8} {work / 1e3:9.2f}k core-hours")
    lines.append("")
    lines.append("Fig. 7b: day-10 intensity (gCO2e/kWh), every 4 hours")
    for label, series in day_intensity(seed).items():
        cells = " ".join(f"{series[h]:6.0f}" for h in range(0, 24, 4))
        lines.append(f"  {label:<18} {cells}")
    lines.append("")
    lines.append("Fig. 7c: cheapest-endpoint share by hour (every 4 hours)")
    shares = cheapest_endpoint_by_hour(scale, seed)
    machines = list(next(iter(shares.values())))
    for name in machines:
        cells = " ".join(f"{shares[h][name]:6.2f}" for h in range(0, 24, 4))
        lines.append(f"  {name:<10} {cells}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_report())
