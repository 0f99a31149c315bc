"""Golden digests of the paper artifacts at a small fixed scale.

Refactors of the engine, the pricing core, the sweep transport and the
result aggregates promise identical behaviour; this module turns that
promise into a test.  It pins SHA-256 digests of

* all 12 outcome columns of every cell of the §5 policy sweep
  (``policy_sweep`` at scale 300, seed 0): the eight policies under all
  five accounting methods on ``baseline``, and under CBA on
  ``low-carbon``;
* the rendered text of Figs. 5, 6 and 7, Table 6 and the tiered-fleet
  study at the same scale;
* the §7 extensions on a 300-base-job, long-job ``low_carbon_scenario``
  workload: ``MigratingSimulator`` (Greedy, ``min_saving=0.15``) under
  all five methods — once at the default re-evaluation crossover and
  once with the columnar re-evaluation forced on every tick, both
  against the same digest — and one ``ShiftingSimulator`` run (CBA,
  ``max_delay_h=12``).

A digest may only change with a deliberate change to the simulated
model.  Print fresh values with::

    PYTHONPATH=src python tests/experiments/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.accounting.methods import all_methods, method_by_name
from repro.accounting.pricing import OUTCOME_FIELDS
from repro.experiments import (
    fig5_eba_simulation,
    fig6_cba_simulation,
    fig7_low_carbon,
    table6_policy_impact,
    tiers_study,
)
from repro.experiments._simulation import scenario, workload
from repro.sim.engine import SimulationResult
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import GreedyPolicy, standard_policies
from repro.sim.scenarios import low_carbon_scenario
from repro.sim.shifting import ShiftingSimulator
from repro.sim.sweep import SweepRunner, SweepTask
from repro.sim.workload import PatelWorkloadGenerator, WorkloadConfig

SCALE = 300
SEED = 0

#: (scenario, method) grids whose every cell is pinned.
GRIDS = [("baseline", m.name) for m in all_methods()] + [("low-carbon", "CBA")]

#: Rendered artifacts, by name.
REPORTS = {
    "fig5": lambda: fig5_eba_simulation.format_report(SCALE, SEED),
    "fig6": lambda: fig6_cba_simulation.format_report(SCALE, SEED),
    "fig7": lambda: fig7_low_carbon.format_report(SCALE, SEED),
    "table6": lambda: table6_policy_impact.format_table(SCALE, SEED),
    "tiers": lambda: tiers_study.format_report(scale=SCALE, seed=SEED),
}

GOLDEN_CELLS: dict[str, str] = {
    "baseline/Runtime/Greedy": "b2e5fa8780e9fb8e7ca3e6e9c91a5ad5795d1427ca331cef203bc5941221df71",
    "baseline/Runtime/Energy": "da7d28c10db4d76d9914c49a2ddc5002f92895dbaa32e4abf67b2bbd4775caee",
    "baseline/Runtime/Mixed": "978aa9f7e491f89e8f76d7ff0b2720c0f0fe6b1d9719cd4365ce6053cf2511b7",
    "baseline/Runtime/EFT": "413da2dcfe30bedd55c6d5d34d352c58feffd105024b8c8a14d4a78f9dbe763e",
    "baseline/Runtime/Runtime": "059d62614f1e490d6920854546c19360a8d8c97d96e20dc7b60f800213b91600",
    "baseline/Runtime/Theta": "900fe0ff8967c1e18a797bdfe00ee0f01a93bad0660e19a56b59e05166baaa9a",
    "baseline/Runtime/IC": "dd4d1303b3e05af2703e80f0bbfb00ee07e23cfab8e7ff6934068a35ede16794",
    "baseline/Runtime/FASTER": "91bb08f60607633d7dcec580bab6a933c752113cfd0ad5bd0e06d2484d0ecc67",
    "baseline/Energy/Greedy": "859d77817b02d7c20474cf19c74b95881d8b80fd58b006b309d772e423262522",
    "baseline/Energy/Energy": "da1ab209337dd6f439164a219931666828bd6c600999717b0991ae65b95a4832",
    "baseline/Energy/Mixed": "1b30281ee6f6d382ce2838492cc03ce6ef3cf33b736c0daee999d67ff481b388",
    "baseline/Energy/EFT": "5d56ed42d40825a53516fd13a4ddaf7fbf12f3b8055f9fafb4d3ec0da7350bb6",
    "baseline/Energy/Runtime": "4df2aaefae96d6a800d75c1e17a1317d72dccf5005216f96340c2be5e5ec6a9b",
    "baseline/Energy/Theta": "01be981e71136e61a6638a64e814eeae4c76b47e1e438ff7bcb92581e0d407f2",
    "baseline/Energy/IC": "396a9ab1e84872ffafbf37a93dd4a8c7ba77dc25604ded7b6682c5f8fb08940a",
    "baseline/Energy/FASTER": "3542ddecf434bf63ca51f0421526359b44c8ecf6b84c4292760924164224cd1d",
    "baseline/Peak/Greedy": "1505d9e4b7be5ad0c284b19b71c9ae6ba44ec91ad38cb61a0c085a3baeeb5adf",
    "baseline/Peak/Energy": "8824f6e5d0a7192ecc81287b61c1a19c9ee1d631ee60ec6aecaeaee23542a054",
    "baseline/Peak/Mixed": "5dc11991cd7e40c069483ea35ef452eddb0dcac1f6ff0b97ea05eb8f1be09125",
    "baseline/Peak/EFT": "f1c933b793777f322060f4e170031bc5f281cd294079aa8449e0da5af07e251c",
    "baseline/Peak/Runtime": "685a7e57e439aac7674675757cfd7f745a3848ad5fc25f87420015aa685bd2a5",
    "baseline/Peak/Theta": "13055bdbd6a36223624bd771c7437835869c16459f4118024b1017d6642944cf",
    "baseline/Peak/IC": "9bb84f853d1be4334c443b7b22c7ab820a3400755cfc23916ad23342c196153d",
    "baseline/Peak/FASTER": "a3f4e30f151497d9ab76ad0f610b26e632479295caf8672744b6143969faa035",
    "baseline/EBA/Greedy": "13ebc11f27eb8ff356b8ca1b5536557c084307a336ec9ca484e902ba570f1f57",
    "baseline/EBA/Energy": "2eb5688c3672161469e9b69742c749dfff2b7b46b225cd571fdc796a3aa8cf68",
    "baseline/EBA/Mixed": "9e75b023a1021a790e1c12aa7766a148d37b407bdc6064a5e4c106f1b439e1b6",
    "baseline/EBA/EFT": "2319efcd986b8feda0ef871a783ab61ab974aaa12d420141c8b0f5388856e712",
    "baseline/EBA/Runtime": "2794ea0fead3513d69a7880f8a58117ff9c2bc27477819466954983cb18bd483",
    "baseline/EBA/Theta": "050daa3d9682ab00d2d23e361fea989be0cfba0fc053a1f6f51e459ee271296f",
    "baseline/EBA/IC": "2d4f3467e9503127fe112a04dfd1c2a1e1b433aaaeba4f72092c053b4c22f77d",
    "baseline/EBA/FASTER": "2b8045c712b3d818dac61a72826415125079da61c9f5e47d6a2648b074925e7a",
    "baseline/CBA/Greedy": "2db89bff960cc1a3cd6ee9ba88305d337d9631e923379c9715fe00fb63409968",
    "baseline/CBA/Energy": "c3b0394b068f957a7657394ce89a176092c90075d343353f9b6cc7d17a1e62e1",
    "baseline/CBA/Mixed": "dc5a93e1059caea9f148e28630529402eb14361866917efa4f33ada366f7a391",
    "baseline/CBA/EFT": "f0311ec83b02c7fda971b7a71baa469f19bb87e6f83f5a533a75fd8c729b69e1",
    "baseline/CBA/Runtime": "0531371111f16b3efbc875e99b5a6680759fac65f941f45fc2a69e9f6d855180",
    "baseline/CBA/Theta": "e39e207cb8304cf63d7fafc69500e09f93d44bde9f61a8a89117a0e9f2595e44",
    "baseline/CBA/IC": "97ccc6b94e802d67bd317d985e43e7d731a51b4ac14dc02a84b8be7a0885584c",
    "baseline/CBA/FASTER": "400b0ed4fb5053537201e8bacea6ab6de3ddae57d1ee5deb37ebbcc3d97acfe7",
    "low-carbon/CBA/Greedy": "176469e5b022ea5e04e68290f8b146317d5841c6079b6d638a1db36720fe289d",
    "low-carbon/CBA/Energy": "0f01414bf15a01726fe6210a21cf73f14829da07f560db3281a83aaf4235c3e0",
    "low-carbon/CBA/Mixed": "43a625fcc26be6a37e17e84b67aeab3389334ccf166400516380773e2661aa38",
    "low-carbon/CBA/EFT": "ca4828a8f7934bea4ac308cb4c9047480066ac65858dde14c1aa92dc1d9e498c",
    "low-carbon/CBA/Runtime": "c47b942b42c0175a84b40e13b58a69dc8126028cf8ba08d542b552ff113d6a0a",
    "low-carbon/CBA/Theta": "c30f5c81ddfc2406adee0f8589630e7920e7ea9e098bfebbe4447f42a6543ffb",
    "low-carbon/CBA/IC": "0ded662ad9851a363f4c8a6b885d524cb16b9be914db940ac9b489195a939035",
    "low-carbon/CBA/FASTER": "7c0e5eaeb9f3c0fcc1af0439ae82840e817de9b7937452bdb29f06fff679ae5b",
}

GOLDEN_REPORTS: dict[str, str] = {
    "fig5": "ce98536b30378aa7e71bade8d19dc6abc322f3d30ce17498e84489095b02b9ad",
    "fig6": "111db0036d81fa05b1f9d7dc6a97154e1a8ad99da13c61bee6616c33a7a73aaf",
    "fig7": "7b6cdfcef3b4d28f82db36675091ced81b805da5da9d719407bfb866bf3210ae",
    "table6": "e692100f86d9212232a1062545a7bec54ec32e7ead958b8ab49ea00252f6edbe",
    "tiers": "4f1602da7528e71760592a308ec6147b089e4f36a9d0cc4bc31d5d34eff4d341",
}

#: Migration runs by method; the default and the forced-columnar
#: re-evaluation regimes must both reproduce the same digest.
GOLDEN_MIGRATION: dict[str, str] = {
    "Runtime": "6d1e28e0d71388e454e42b47b903013608637e43aa3cbb774779d8d9af8914ff",
    "Energy": "6eb8b94aaa46e56e4b7263f70b08d0252f161c535943ad226a7c759015dc7ca9",
    "Peak": "d97ccc385f2fa6949312fdb6477d967849155bb4b39a33ce046ed0611d4b9d1b",
    "EBA": "55a459f5bbee6c31947a0a70f3d049ea39864912c5f6ed7280e7f1b237a18607",
    "CBA": "f48ce1098cdc77c7ef075de0feaa6741ca250dd0018b15ef2b8c72b0aeb1cb1f",
}

GOLDEN_SHIFTING = "05e9b6cea3f0d7f074980b202f5180953fe1637d8531f040f091982f12e7d806"


def policy_sweep(scenario_name: str, method_name: str) -> dict[str, SimulationResult]:
    """``policy_sweep(scenario_name, method_name, SCALE, SEED)`` for any of
    the five methods (the study driver itself takes only EBA and CBA).

    Two pool workers, so the results cross the shared-memory transport.
    """
    runner = SweepRunner(
        scenario_fn=scenario,
        workload_fn=workload,
        method_fn=method_by_name,
        workers=2,
    )
    tasks = [
        SweepTask(scenario_name, policy.name, method_name, SCALE, SEED)
        for policy in standard_policies()
    ]
    results = runner.run(tasks)
    return {task.policy: results[task] for task in tasks}


def result_digest(result: SimulationResult) -> str:
    """SHA-256 over the result's identity and all 12 outcome columns."""
    table = result.table
    top = hashlib.sha256(
        json.dumps(
            [result.policy, result.method, result.machines, table.machines]
        ).encode()
    )
    for name, dtype in OUTCOME_FIELDS:
        column = getattr(table, name)
        assert column.dtype == np.dtype(dtype), name
        top.update(name.encode())
        top.update(np.ascontiguousarray(column).tobytes())
    return top.hexdigest()


@lru_cache(maxsize=1)
def extension_world():
    """(machines, workload) the migration and shifting pins run on."""
    machines = low_carbon_scenario(days=30, seed=SEED)
    cfg = WorkloadConfig(
        n_base_jobs=SCALE, n_users=40, seed=SEED, runtime_median_s=4 * 3600.0
    )
    return machines, PatelWorkloadGenerator(machines, cfg).generate()


def migration_run(method_name: str) -> str:
    """Digest of one pinned migration run."""
    machines, wl = extension_world()
    sim = MigratingSimulator(
        machines, method_by_name(method_name), GreedyPolicy(), min_saving=0.15
    )
    return result_digest(sim.run(wl))


def shifting_digest() -> str:
    machines, wl = extension_world()
    sim = ShiftingSimulator(
        machines, method_by_name("CBA"), GreedyPolicy(), max_delay_h=12
    )
    return result_digest(sim.run(wl))


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_digests(scenario_name: str, method_name: str) -> dict[str, str]:
    return {
        f"{scenario_name}/{method_name}/{policy}": result_digest(result)
        for policy, result in policy_sweep(scenario_name, method_name).items()
    }


@pytest.mark.parametrize(
    "scenario_name,method_name", GRIDS, ids=[f"{s}/{m}" for s, m in GRIDS]
)
def test_sweep_cells_match_golden(scenario_name, method_name):
    digests = cell_digests(scenario_name, method_name)
    assert len(digests) == len(standard_policies())
    for cell, digest in digests.items():
        assert digest == GOLDEN_CELLS[cell], cell


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_text_matches_golden(name):
    assert text_digest(REPORTS[name]()) == GOLDEN_REPORTS[name]


@pytest.mark.parametrize("method_name", sorted(GOLDEN_MIGRATION))
def test_migration_matches_golden(method_name):
    assert migration_run(method_name) == GOLDEN_MIGRATION[method_name]


def test_shifting_matches_golden():
    assert shifting_digest() == GOLDEN_SHIFTING


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    cells: dict[str, str] = {}
    for grid in GRIDS:
        cells.update(cell_digests(*grid))
    print("GOLDEN_CELLS = " + json.dumps(cells, indent=4))
    reports = {name: text_digest(REPORTS[name]()) for name in sorted(REPORTS)}
    print("GOLDEN_REPORTS = " + json.dumps(reports, indent=4))
    migrations = {m.name: migration_run(m.name) for m in all_methods()}
    print("GOLDEN_MIGRATION = " + json.dumps(migrations, indent=4))
    print(f"GOLDEN_SHIFTING = {shifting_digest()!r}")
