"""Normalized cost tables (the presentation layer of Tables 1 and 3).

The paper never compares raw charges across methods — the units differ —
but normalizes each method's column by its cheapest (or a designated
reference) machine.  :func:`normalized_cost_table` reproduces that
presentation from raw usage records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accounting.base import AccountingMethod, MachinePricing, UsageRecord


@dataclass
class CostTable:
    """A machines x methods table of charges with normalization helpers."""

    machines: list[str]
    methods: list[str]
    raw: dict[str, dict[str, float]] = field(default_factory=dict)
    #: runtime (s) and energy (J) per machine, for the "Metrics" columns.
    metrics: dict[str, tuple[float, float]] = field(default_factory=dict)

    def normalized(
        self, method: str, reference: str | None = None
    ) -> dict[str, float]:
        """One method's column, normalized.

        With ``reference=None`` the column is normalized by its minimum
        (so the cheapest machine reads 1.0, as in the paper's tables);
        otherwise by the named machine.
        """
        column = {m: self.raw[m][method] for m in self.machines}
        if reference is None:
            base = min(column.values())
        else:
            base = column[reference]
        if base <= 0:
            raise ValueError(f"cannot normalize method {method!r}: base {base}")
        return {m: v / base for m, v in column.items()}

    def cheapest(self, method: str) -> str:
        """Machine with the lowest charge under ``method``."""
        column = {m: self.raw[m][method] for m in self.machines}
        return min(column, key=column.__getitem__)

    def rows(self, reference: str | None = None) -> list[dict[str, object]]:
        """Table rows ready for printing: machine, runtime, energy, then
        one normalized cost per method."""
        normalized = {m: self.normalized(m, reference) for m in self.methods}
        out: list[dict[str, object]] = []
        for machine in self.machines:
            runtime_s, energy_j = self.metrics.get(machine, (float("nan"),) * 2)
            row: dict[str, object] = {
                "machine": machine,
                "runtime_s": runtime_s,
                "energy_j": energy_j,
            }
            for method in self.methods:
                row[method] = normalized[method][machine]
            out.append(row)
        return out

    def format(self, reference: str | None = None, energy_unit: str = "J") -> str:
        """Render as a fixed-width text table (benchmark harness output)."""
        rows = self.rows(reference)
        header = (
            f"{'Machine':<14}{'Runtime(s)':>12}{f'Energy({energy_unit})':>12}"
            + "".join(f"{m:>10}" for m in self.methods)
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['machine']:<14}{row['runtime_s']:>12.2f}"
                f"{row['energy_j']:>12.1f}"
                + "".join(f"{row[m]:>10.2f}" for m in self.methods)
            )
        return "\n".join(lines)


def normalized_cost_table(
    records: dict[str, UsageRecord],
    pricings: dict[str, MachinePricing],
    methods: list[AccountingMethod],
    energy_divisor: float = 1.0,
) -> CostTable:
    """Price one application's run on every machine under every method.

    Parameters
    ----------
    records:
        Per-machine usage records for the *same* application.
    pricings:
        Per-machine pricing views (keys must cover ``records``).
    methods:
        Accounting methods to evaluate.
    energy_divisor:
        Divide stored joules by this for the metrics column (1e3 prints
        kJ for the GPU table).
    """
    missing = set(records) - set(pricings)
    if missing:
        raise KeyError(f"no pricing for machines: {sorted(missing)}")
    table = CostTable(
        machines=list(records), methods=[m.name for m in methods]
    )
    for machine, record in records.items():
        pricing = pricings[machine]
        table.raw[machine] = {
            m.name: m.charge(record, pricing) for m in methods
        }
        table.metrics[machine] = (
            record.duration_s,
            record.energy_j / energy_divisor,
        )
    return table
