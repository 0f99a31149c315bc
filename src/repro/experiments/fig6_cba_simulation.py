"""Fig. 6: work completed per policy with a fixed **CBA** allocation.

The CBA budget is calibrated so the Greedy user completes the same work
as under EBA in Fig. 5a; the paper's findings are that, relative to EBA,
the Energy policy loses ground (FASTER's high embodied rate) while the
Runtime policy gains (it favours IC, whose embodied rate is low).
"""

from __future__ import annotations

from repro.experiments._simulation import (
    DEFAULT_SCALE,
    budget_matching_work,
    greedy_budget,
    policy_sweeps,
)


def work_with_fixed_allocation(
    scale: int = DEFAULT_SCALE, seed: int = 0
) -> dict[str, float]:
    """Fig. 6: core-hours per policy under the calibrated CBA budget."""
    sweeps = policy_sweeps("baseline", ("EBA", "CBA"), scale, seed)
    eba_budget = greedy_budget("baseline", "EBA", scale, seed)
    target_work = sweeps["EBA"]["Greedy"].work_with_budget(eba_budget)

    cba_results = sweeps["CBA"]
    cba_budget = budget_matching_work(cba_results, target_work)
    return {
        name: r.work_with_budget(cba_budget) for name, r in cba_results.items()
    }


def eba_vs_cba_shift(scale: int = DEFAULT_SCALE, seed: int = 0) -> dict[str, float]:
    """Per-policy work ratio CBA/EBA (paper: Energy ~0.78, Runtime ~1.23)."""
    eba_results = policy_sweeps("baseline", ("EBA", "CBA"), scale, seed)["EBA"]
    eba_budget = greedy_budget("baseline", "EBA", scale, seed)
    eba_work = {
        name: r.work_with_budget(eba_budget) for name, r in eba_results.items()
    }
    cba_work = work_with_fixed_allocation(scale, seed)
    return {
        name: (cba_work[name] / eba_work[name]) if eba_work[name] > 0 else float("nan")
        for name in cba_work
    }


def format_report(scale: int = DEFAULT_SCALE, seed: int = 0) -> str:
    works = work_with_fixed_allocation(scale, seed)
    shifts = eba_vs_cba_shift(scale, seed)
    cba = policy_sweeps("baseline", ("EBA", "CBA"), scale, seed)["CBA"]
    lines = ["Fig. 6: work completed with a fixed CBA allocation"]
    for name, work in works.items():
        lines.append(
            f"  {name:<8} {work / 1e3:9.2f}k core-hours   CBA/EBA = {shifts[name]:.2f}"
        )
    dist = cba["Greedy"].machine_distribution()
    total = sum(dist.values()) or 1
    lines.append("")
    lines.append(
        "Greedy-CBA distribution: "
        + ", ".join(f"{m}={100 * n / total:.0f}%" for m, n in dist.items())
        + "  (paper: IC 50%, FASTER 11%)"
    )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_report())
