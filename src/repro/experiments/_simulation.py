"""Shared simulation-study driver for Figs. 5-7 and Table 6.

Running the eight policies over the workload is the expensive part and
several experiments consume the same runs, so this module memoizes
(scenario, method, scale, seed) -> per-policy results.

``scale`` is the number of *base* jobs before the x2 repetition; the
paper's full scale is 71,190.  The default (6,000 -> 12,000 jobs) keeps
a full 8-policy sweep under a minute while preserving queue contention;
pass ``scale=71_190`` for the paper-scale run.

Batched / parallel architecture
-------------------------------
:func:`policy_sweep` no longer loops policies serially: it builds the
eight-task grid and hands it to :class:`~repro.sim.sweep.SweepRunner`,
which fans the simulations across the sweep service's worker pool
(workers resolved from the CLI's ``--jobs``, ``REPRO_SWEEP_WORKERS``,
or the CPU count) while sharing the memoized scenario + workload with
every worker via fork.
Each simulation prices jobs through the columnar pricing core
(:mod:`repro.accounting.pricing` via :mod:`repro.sim.engine`) and
returns an array-backed ``SimulationResult`` whose columns travel back
to the parent through shared memory instead of pickled row objects —
at ``scale=71_190`` the outcome columns dominate sweep IPC.  The
runner also builds one shared quote table per (scenario, method,
scale, seed) in :meth:`~repro.sim.sweep.SweepRunner._warm`, so the
eight same-workload policy runs price the workload once between them
instead of once each.  A paper-scale run is

    python -m repro simulate --scale 71190 --jobs 8

Results are bit-identical to the serial reference
(:func:`policy_sweep_serial`), which the test suite asserts; the
experiment aggregations below (budgets, work-within-budget) are array
expressions over the same columns.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.accounting.base import AccountingMethod
from repro.accounting.methods import CarbonBasedAccounting, EnergyBasedAccounting
from repro.sim.engine import MultiClusterSimulator, SimulationResult
from repro.sim.policies import standard_policies
from repro.sim.scenarios import (
    SimMachine,
    baseline_scenario,
    is_tiered_scenario,
    low_carbon_scenario,
    parse_tiered_scenario,
    tiered_fleet_scenario,
)
from repro.sim.sweep import SweepRunner, SweepTask
from repro.sim.workload import (
    PatelWorkloadGenerator,
    StragglerConfig,
    Workload,
    WorkloadConfig,
    inject_stragglers,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sweep_service import SweepService

DEFAULT_SCALE = 6_000
PAPER_SCALE = 71_190


def method_for(name: str) -> AccountingMethod:
    if name.upper() == "EBA":
        return EnergyBasedAccounting()
    if name.upper() == "CBA":
        return CarbonBasedAccounting()
    raise KeyError(f"simulation methods are EBA or CBA, not {name!r}")


@lru_cache(maxsize=8)
def scenario(name: str, seed: int = 0) -> tuple[tuple[str, SimMachine], ...]:
    if name == "baseline":
        machines = baseline_scenario(days=40, seed=seed)
    elif name == "low-carbon":
        machines = low_carbon_scenario(days=40, seed=seed)
    elif is_tiered_scenario(name):
        # The straggler knobs ride in the name but only shape the
        # workload; every tiered variant shares one hardware fleet.
        parse_tiered_scenario(name)  # validate the knob encoding early
        machines = tiered_fleet_scenario(days=40, seed=seed)
    else:
        raise KeyError(f"unknown scenario {name!r}")
    return tuple(machines.items())


@lru_cache(maxsize=8)
def workload(scenario_name: str, scale: int, seed: int = 0) -> Workload:
    machines = dict(scenario(scenario_name, seed))
    cfg = WorkloadConfig(n_base_jobs=scale, seed=seed)
    generated = PatelWorkloadGenerator(machines, cfg).generate()
    if is_tiered_scenario(scenario_name):
        frac, sigma = parse_tiered_scenario(scenario_name)
        generated = inject_stragglers(
            generated, StragglerConfig(frac=frac, sigma=sigma, seed=seed)
        )
    return generated


@lru_cache(maxsize=16)
def policy_sweep(
    scenario_name: str = "baseline",
    method_name: str = "EBA",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
) -> dict[str, SimulationResult]:
    """Run all eight policies; memoized per configuration.

    Fans the eight simulations across a process pool via
    :class:`~repro.sim.sweep.SweepRunner`; output is bit-identical to
    :func:`policy_sweep_serial`.
    """
    runner = SweepRunner(
        scenario_fn=scenario, workload_fn=workload, method_fn=method_for
    )
    tasks = [
        SweepTask(
            scenario=scenario_name,
            policy=policy.name,
            method=method_name,
            scale=scale,
            seed=seed,
        )
        for policy in standard_policies()
    ]
    results = runner.run(tasks)
    return {task.policy: results[task] for task in tasks}


def sweep_service(
    store_root: str,
    *,
    workers: int | None = None,
    mp_context: str | None = None,
    max_store_bytes: int | None = None,
    max_retries: int = 2,
) -> "SweepService":
    """The stock long-lived sweep service over the memoized drivers.

    Wires :func:`scenario` / :func:`workload` (shared, memoized) and the
    full five-method catalogue
    (:func:`repro.accounting.methods.method_by_name` — not the study's
    EBA/CBA-only :func:`method_for`) to a
    :class:`~repro.sim.sweep_service.SweepService` backed by a
    content-addressed :class:`~repro.sim.result_store.ResultStore` at
    ``store_root``.  This is what ``repro sweep serve`` runs.
    """
    from repro.accounting.methods import method_by_name
    from repro.sim.result_store import ResultStore
    from repro.sim.sweep_service import SweepService

    return SweepService(
        scenario,
        workload,
        method_by_name,
        store=ResultStore(store_root, max_bytes=max_store_bytes),
        workers=workers,
        mp_context=mp_context,
        max_retries=max_retries,
    )


def policy_sweep_serial(
    scenario_name: str = "baseline",
    method_name: str = "EBA",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
) -> dict[str, SimulationResult]:
    """Serial in-process reference sweep (no pool, no memoization).

    Exists so tests can assert that the parallel path changes nothing.
    """
    machines = dict(scenario(scenario_name, seed))
    wl = workload(scenario_name, scale, seed)
    method = method_for(method_name)
    results: dict[str, SimulationResult] = {}
    for policy in standard_policies():
        sim = MultiClusterSimulator(machines, method, policy)
        results[policy.name] = sim.run(wl)
    return results


def simulate_swf_trace(
    path: str,
    scenario_name: str = "baseline",
    method_name: str = "EBA",
    policy_name: str = "EFT",
    streaming: bool = True,
    chunk_jobs: int | None = None,
    spill_dir: str | None = None,
    seed: int = 0,
) -> SimulationResult:
    """Replay an SWF trace through one (policy, method) simulation.

    The trace-replay entry point behind ``repro trace``: any accounting
    method (all five, not just the simulation study's EBA/CBA) and any
    standard policy.  With ``streaming=True`` (the default) the trace is
    ingested chunk-at-a-time through
    :func:`~repro.sim.swf.open_swf_stream` and settled outcomes spill to
    ``spill_dir`` — peak memory stays O(chunk) however long the trace
    is; ``streaming=False`` materializes the whole trace, which the
    equivalence tests use to assert the two regimes are bit-identical.
    """
    from repro.accounting.methods import method_by_name
    from repro.sim.swf import DEFAULT_CHUNK_JOBS, open_swf_stream, read_swf

    machines = dict(scenario(scenario_name, seed))
    method = method_by_name(method_name)
    policy = next(
        (p for p in standard_policies() if p.name == policy_name), None
    )
    if policy is None:
        raise KeyError(f"unknown policy {policy_name!r}")
    sim = MultiClusterSimulator(
        machines, method, policy, spill_dir=spill_dir
    )
    chunk = chunk_jobs or DEFAULT_CHUNK_JOBS
    if streaming:
        return sim.run(
            open_swf_stream(path, machines, seed=seed, chunk_jobs=chunk)
        )
    return sim.run(read_swf(path, machines, seed=seed, chunk_jobs=chunk))


def greedy_budget(
    scenario_name: str = "baseline",
    method_name: str = "EBA",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    fraction: float = 0.5,
) -> float:
    """The fixed allocation: a fraction of what Greedy spends on the
    whole workload (every policy gets the same budget)."""
    results = policy_sweep(scenario_name, method_name, scale, seed)
    return fraction * results["Greedy"].total_cost()


def budget_matching_work(
    results: dict[str, SimulationResult], target_work: float
) -> float:
    """Binary-search the budget at which Greedy completes ``target_work``
    core-hours — Fig. 6's setup ("we allow a user employing Greedy to run
    the same amount of work as in Figure 5a")."""
    greedy = results["Greedy"]
    lo, hi = 0.0, greedy.total_cost()
    if greedy.work_with_budget(hi) <= target_work:
        return hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if greedy.work_with_budget(mid) < target_work:
            lo = mid
        else:
            hi = mid
    return hi
