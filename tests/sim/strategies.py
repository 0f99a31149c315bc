"""Hypothesis strategies for the differential harness: fleets and jobs.

The Patel generator rarely produces the cases where two event loops
can part ways, so these strategies build them by hand:

* fleets are subsets of the baseline, low-carbon and tiered fleets, in
  any order, down to one machine — so some jobs have no eligible
  machine in the fleet and must be discarded;
* job lists hold 1–60 jobs with submit times on a coarse grid (ties are
  common), runtimes and energies that are often equal across machines
  (so costs tie, between move targets too), a handful of users (many
  jobs per user, so the one-running-job-per-user rule binds), zero
  energy now and then, and each job's own machine order.

Every job fits on each machine it lists, so every eligible job starts
eventually.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.sim.job import Job
from repro.sim.scenarios import (
    baseline_scenario,
    low_carbon_scenario,
    tiered_fleet_scenario,
)

#: The three scenario fleets, built once.
SCENARIOS = tuple(
    build(days=20, seed=3)
    for build in (baseline_scenario, low_carbon_scenario, tiered_fleet_scenario)
)

#: Submit times: a coarse grid over the first day, so many tie.
SUBMITS = st.integers(0, 24).map(lambda k: k * 1800.0)

#: Runtimes from minutes to half a day; round values tie across machines.
RUNTIMES = st.one_of(
    st.sampled_from([600.0, 3600.0, 4 * 3600.0, 10 * 3600.0]),
    st.floats(60.0, 12 * 3600.0, allow_nan=False, allow_infinity=False),
)

ENERGIES = st.one_of(
    st.just(0.0),
    st.floats(1e3, 1e9, allow_nan=False, allow_infinity=False),
)

CORES = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128])


def _ordered_subset(names: list[str]) -> st.SearchStrategy[list[str]]:
    """A non-empty subset of ``names`` in random order."""
    return st.permutations(names).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: list(order[:k]))
    )


@st.composite
def job_lists(draw: st.DrawFn, capacity: dict[str, int]) -> list[Job]:
    """1–60 jobs over the machines of ``capacity`` (name -> total cores)."""
    n_jobs = draw(st.integers(1, 60))
    n_users = draw(st.integers(1, 4))
    names = list(capacity)
    jobs = []
    for job_id in range(n_jobs):
        eligible = draw(_ordered_subset(names))
        fits = min(capacity[name] for name in eligible)
        cores = draw(CORES.filter(lambda c: c <= fits))
        # Each job's runtimes and energies come from a palette of one or
        # two values, so machines often tie: all of them (one value), or
        # some cheaper ones against the rest (two).
        runtimes = draw(st.lists(RUNTIMES, min_size=1, max_size=2))
        energies = draw(st.lists(ENERGIES, min_size=1, max_size=2))
        runtime = {name: draw(st.sampled_from(runtimes)) for name in eligible}
        energy = {name: draw(st.sampled_from(energies)) for name in eligible}
        jobs.append(
            Job(
                job_id=job_id,
                user=draw(st.integers(0, n_users - 1)),
                cores=cores,
                submit_s=draw(SUBMITS),
                runtime_s=runtime,
                energy_j=energy,
            )
        )
    return jobs


@st.composite
def worlds(draw: st.DrawFn) -> tuple[dict, list[Job]]:
    """``(fleet, jobs)``: a fleet cut from one scenario, and jobs over
    that whole scenario's machines."""
    scenario = draw(st.sampled_from(SCENARIOS))
    fleet = draw(_ordered_subset(list(scenario)))
    capacity = {name: m.total_cores for name, m in scenario.items()}
    return {name: scenario[name] for name in fleet}, draw(job_lists(capacity))
