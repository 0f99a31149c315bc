"""The tiered-fleet straggler study: ``python -m repro tiers``.

Beyond-the-paper scenario (ROADMAP item 3): a three-tier worker fleet
(many slow Small nodes, a mid-size Medium pool, a slot-capped Large
tier) under heavy-tailed straggler inflation, swept over all five
accounting methods with the largest-first policy next to the Greedy
baseline.  The report answers the question the paper never ran: do the
methods stay *fair* — similar charge per unit of requested work across
users — when the fleet is skewed and stragglers drag runtimes out?

Sweeps run through :class:`~repro.sim.sweep.SweepRunner` on the one
sweep pool, so the study doubles as the tiered grid point of the sweep
smoke tests: workers may be fork, spawn, or forkserver (the pool's
start method, ``REPRO_SWEEP_MP_CONTEXT``) and results are bit-identical
either way.
"""

from __future__ import annotations

from dataclasses import replace

from repro.accounting.methods import all_methods, method_by_name
from repro.experiments._simulation import scenario, workload
from repro.sim.engine import SimulationResult
from repro.sim.metrics import (
    format_summaries,
    summarize,
    tier_fairness,
    tier_metrics,
)
from repro.sim.scenarios import (
    DEFAULT_STRAGGLER_FRAC,
    DEFAULT_STRAGGLER_SIGMA,
    tiered_scenario_name,
)
from repro.sim.sweep import SweepRunner, SweepTask
from repro.sim.workload import StragglerConfig
from repro.reporting import (
    fleet_report,
    format_fleet_report,
    format_tier_fairness,
    format_tier_metrics,
)

DEFAULT_TIER_SCALE = 1_500

METHOD_NAMES = tuple(m.name for m in all_methods())

#: The policies the study compares: the tier-aware heuristic against
#: the paper's cost-greedy baseline.
STUDY_POLICIES = ("LargestFirst", "Greedy")


def tier_sweep(
    scale: int = DEFAULT_TIER_SCALE,
    seed: int = 0,
    straggler_frac: float = DEFAULT_STRAGGLER_FRAC,
    straggler_sigma: float = DEFAULT_STRAGGLER_SIGMA,
) -> dict[tuple[str, str], SimulationResult]:
    """(policy, method) -> result over the tiered scenario.

    The straggler knobs ride in the scenario name, so distinct settings
    occupy distinct sweep/store grid points by construction.
    """
    name = tiered_scenario_name(straggler_frac, straggler_sigma)
    runner = SweepRunner(
        scenario_fn=scenario, workload_fn=workload, method_fn=method_by_name
    )
    tasks = [
        SweepTask(
            scenario=name, policy=policy, method=method, scale=scale, seed=seed
        )
        for policy in STUDY_POLICIES
        for method in METHOD_NAMES
    ]
    results = runner.run(tasks)
    return {(t.policy, t.method): results[t] for t in tasks}


def format_report(
    scale: int = DEFAULT_TIER_SCALE,
    seed: int = 0,
    straggler_frac: float = DEFAULT_STRAGGLER_FRAC,
    straggler_sigma: float = DEFAULT_STRAGGLER_SIGMA,
) -> str:
    """The full study rendering: per-method summaries for both
    policies, per-tier utilization/straggler/bottleneck metrics, and
    the per-tier fairness spread under every accounting method."""
    name = tiered_scenario_name(straggler_frac, straggler_sigma)
    machines = dict(scenario(name, seed))
    straggler = StragglerConfig(
        frac=straggler_frac, sigma=straggler_sigma, seed=seed
    )
    results = tier_sweep(scale, seed, straggler_frac, straggler_sigma)

    sections = [
        f"Tiered-fleet study — scenario {name}, scale {scale}, seed {seed}",
        "",
    ]
    for policy in STUDY_POLICIES:
        # One row per accounting method; relabel the policy column with
        # the method so the shared table renderer reads naturally.
        rows = [
            replace(
                summarize(results[(policy, method)]), policy=method
            )
            for method in METHOD_NAMES
        ]
        sections.append(f"== {policy}: methods across the tiered fleet ==")
        sections.append(format_summaries(rows))
        sections.append("")

    showcase = results[("LargestFirst", "EBA")]
    sections.append("== Per-tier metrics (LargestFirst / EBA) ==")
    sections.append(
        format_tier_metrics(tier_metrics(showcase, machines, straggler))
    )
    sections.append("")
    sections.append(format_fleet_report(fleet_report(showcase)))
    sections.append("")
    sections.append("== Fairness: per-user charge intensity by dominant tier ==")
    for method in METHOD_NAMES:
        sections.append(f"-- {method} (LargestFirst) --")
        sections.append(
            format_tier_fairness(tier_fairness(results[("LargestFirst", method)]))
        )
    return "\n".join(sections)
