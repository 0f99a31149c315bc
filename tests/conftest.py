"""Shared fixtures.

Simulation fixtures are session-scoped: generating a workload and
running policies is the expensive part of the suite, and the tests only
read the results.

Hypothesis runs under one of two profiles, chosen by the
``HYPOTHESIS_PROFILE`` environment variable: ``default`` derandomizes
every property test, so tier-1 draws the same cases on every run, and
``long`` draws ten times as many fresh cases for the CI job that runs
the differential harness.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.accounting.base import UsageRecord, pricing_for_node
from repro.accounting.methods import CarbonBasedAccounting, EnergyBasedAccounting
from repro.apps.registry import APP_REGISTRY
from repro.hardware.catalog import (
    CPU_EXPERIMENT_NODES,
    CPU_EXPERIMENT_YEAR,
    MachineCatalog,
    TABLE1_CARBON_INTENSITY,
)
from repro.sim.scenarios import (
    baseline_scenario,
    low_carbon_scenario,
    tiered_fleet_scenario,
)
from repro.sim.workload import (
    PatelWorkloadGenerator,
    StragglerConfig,
    WorkloadConfig,
    inject_stragglers,
)

settings.register_profile("default", derandomize=True)
settings.register_profile("long", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def catalog() -> MachineCatalog:
    return MachineCatalog()


@pytest.fixture(scope="session")
def table1_inputs():
    """(records, pricings) for the Table 1 Cholesky experiment."""
    profile = APP_REGISTRY["Cholesky"]
    records, pricings = {}, {}
    for node in CPU_EXPERIMENT_NODES:
        run = profile.run_on(node.name)
        records[node.name] = UsageRecord(
            machine=node.name,
            duration_s=run.runtime_s,
            energy_j=run.energy_j,
            cores=run.requested_cores,
            provisioned_cores=run.provisioned_cores,
        )
        pricings[node.name] = pricing_for_node(
            node, CPU_EXPERIMENT_YEAR, TABLE1_CARBON_INTENSITY[node.name]
        )
    return records, pricings


@pytest.fixture(scope="session")
def sim_machines():
    return baseline_scenario(days=20, seed=3)


@pytest.fixture(scope="session")
def low_carbon_machines():
    return low_carbon_scenario(days=20, seed=3)


@pytest.fixture(scope="session")
def small_workload(sim_machines):
    cfg = WorkloadConfig(n_base_jobs=400, n_users=60, seed=1)
    return PatelWorkloadGenerator(sim_machines, cfg).generate()


@pytest.fixture(scope="session")
def tiered_machines():
    return tiered_fleet_scenario(days=20, seed=3)


@pytest.fixture(scope="session")
def tiered_straggler_config():
    """Aggressive knobs so the straggler paths are well-exercised."""
    return StragglerConfig(frac=0.15, sigma=1.2, seed=1)


@pytest.fixture(scope="session")
def tiered_workload(tiered_machines, tiered_straggler_config):
    """A skewed-tier workload with stragglers and real contention.

    The two-day arrival window keeps the Large tier's slot cap binding
    for most of the run, so the cap/queue paths are genuinely hit.
    """
    cfg = WorkloadConfig(
        n_base_jobs=300,
        n_users=40,
        arrival_window_s=2 * 24 * 3600.0,
        seed=1,
    )
    wl = PatelWorkloadGenerator(tiered_machines, cfg).generate()
    return inject_stragglers(wl, tiered_straggler_config)


@pytest.fixture
def eba() -> EnergyBasedAccounting:
    return EnergyBasedAccounting()


@pytest.fixture
def cba() -> CarbonBasedAccounting:
    return CarbonBasedAccounting()
