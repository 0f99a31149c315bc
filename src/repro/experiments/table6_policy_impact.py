"""Table 6: energy and carbon consumed per policy over the workload.

Rows: Greedy and Mixed under both EBA and CBA charging; Energy, EFT, and
Runtime (whose placements do not depend on the accounting method).
Columns: energy (MWh), operational carbon, and attributed carbon
(operational + CBA-attributed embodied), in kgCO2e.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments._simulation import DEFAULT_SCALE, policy_sweeps
from repro.units import JOULES_PER_KWH


@dataclass(frozen=True)
class ImpactRow:
    policy: str
    energy_mwh: float
    operational_kg: float
    attributed_kg: float


def run(scale: int = DEFAULT_SCALE, seed: int = 0) -> list[ImpactRow]:
    sweeps = policy_sweeps("baseline", ("EBA", "CBA"), scale, seed)
    eba, cba = sweeps["EBA"], sweeps["CBA"]

    def row(label: str, result) -> ImpactRow:
        return ImpactRow(
            policy=label,
            energy_mwh=result.total_energy_j() / JOULES_PER_KWH / 1e3,
            operational_kg=result.total_operational_carbon_g() / 1e3,
            attributed_kg=result.total_attributed_carbon_g() / 1e3,
        )

    return [
        row("Greedy - EBA", eba["Greedy"]),
        row("Greedy - CBA", cba["Greedy"]),
        row("Mixed - EBA", eba["Mixed"]),
        row("Mixed - CBA", cba["Mixed"]),
        row("Energy", eba["Energy"]),
        row("EFT", eba["EFT"]),
        row("Runtime", eba["Runtime"]),
    ]


def format_table(scale: int = DEFAULT_SCALE, seed: int = 0) -> str:
    rows = run(scale, seed)
    lines = [
        "Table 6: energy and carbon per policy",
        f"{'Policy':<14}{'Energy(MWh)':>13}{'Operational(kg)':>17}{'Attributed(kg)':>16}",
    ]
    for r in rows:
        lines.append(
            f"{r.policy:<14}{r.energy_mwh:>13.3f}{r.operational_kg:>17.1f}"
            f"{r.attributed_kg:>16.1f}"
        )
    energy_row = next(r for r in rows if r.policy == "Energy")
    eft_row = next(r for r in rows if r.policy == "EFT")
    runtime_row = next(r for r in rows if r.policy == "Runtime")
    lines.append("")
    lines.append(
        f"EFT / Energy = {eft_row.energy_mwh / energy_row.energy_mwh:.2f}, "
        f"Runtime / Energy = {runtime_row.energy_mwh / energy_row.energy_mwh:.2f} "
        "(paper: 1.51, 1.56)"
    )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_table())
