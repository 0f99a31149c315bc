"""Simulated RAPL (Running Average Power Limit) energy counters.

The paper's endpoint monitor "polls data from the RAPL interface" (§4.1).
Real RAPL exposes monotonically increasing energy counters per power
domain in a machine-specific energy unit (typically ~61 microjoules on
server parts) stored in a 32-bit register that silently wraps around —
both quirks routinely bite energy-measurement code [29], so the simulated
meter reproduces them and the monitor must handle them.

:class:`SimulatedRAPL` integrates a caller-supplied power function over
time.  The endpoint (:mod:`repro.faas.endpoint`) sets that function from
the node's utilization; tests drive it with analytic shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

#: Default RAPL energy-status unit: 15.3 microjoules... rounded: real
#: Intel parts use 1/2^16 J ~= 15.26 uJ for package domains on clients and
#: ~61 uJ granularity on servers; we use the documented 1/2^16 J default.
DEFAULT_ENERGY_UNIT_J: float = 1.0 / (1 << 16)

#: RAPL counters are 32-bit; they wrap at 2^32 energy units.
COUNTER_WRAP: int = 1 << 32


class RAPLDomain(enum.Enum):
    """RAPL power domains exposed by the simulated meter."""

    PACKAGE = "package"
    DRAM = "dram"


@dataclass
class _DomainState:
    raw_counter: int = 0
    residual_j: float = 0.0  # energy not yet large enough to tick a unit


class SimulatedRAPL:
    """A per-node RAPL meter with wrap-around counter semantics.

    Parameters
    ----------
    package_power:
        Callable ``t -> watts`` giving package power at absolute time
        ``t`` (seconds).
    dram_power:
        Callable for the DRAM domain; defaults to a fixed fraction of
        package power, which is a reasonable stand-in for capacity-
        proportional DRAM energy.
    energy_unit_j:
        Size of one counter increment in joules.
    start_time:
        Absolute time of meter creation.
    """

    def __init__(
        self,
        package_power: Callable[[float], float],
        dram_power: Callable[[float], float] | None = None,
        energy_unit_j: float = DEFAULT_ENERGY_UNIT_J,
        start_time: float = 0.0,
    ) -> None:
        if energy_unit_j <= 0:
            raise ValueError("energy_unit_j must be positive")
        self._package_power = package_power
        self._dram_power = dram_power or (lambda t: 0.12 * package_power(t))
        self.energy_unit_j = energy_unit_j
        self._now = start_time
        self._domains: dict[RAPLDomain, _DomainState] = {
            RAPLDomain.PACKAGE: _DomainState(),
            RAPLDomain.DRAM: _DomainState(),
        }

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current meter time (seconds)."""
        return self._now

    def advance(self, dt: float, steps: int = 16) -> None:
        """Advance the meter by ``dt`` seconds, integrating power.

        Power is integrated with the midpoint rule over ``steps``
        sub-intervals, which is exact for piecewise-linear power curves
        at modest cost.
        """
        if dt < 0:
            raise ValueError("cannot advance time backwards")
        if dt == 0:
            return
        h = dt / steps
        for domain, power_fn in (
            (RAPLDomain.PACKAGE, self._package_power),
            (RAPLDomain.DRAM, self._dram_power),
        ):
            energy = 0.0
            for k in range(steps):
                t_mid = self._now + (k + 0.5) * h
                p = power_fn(t_mid)
                if p < 0:
                    raise ValueError(f"negative power {p} at t={t_mid}")
                energy += p * h
            self._credit(domain, energy)
        self._now += dt

    def _credit(self, domain: RAPLDomain, energy_j: float) -> None:
        state = self._domains[domain]
        total = state.residual_j + energy_j
        ticks = int(total / self.energy_unit_j)
        state.residual_j = total - ticks * self.energy_unit_j
        state.raw_counter = (state.raw_counter + ticks) % COUNTER_WRAP

    # ------------------------------------------------------------------
    def read_raw(self, domain: RAPLDomain = RAPLDomain.PACKAGE) -> int:
        """Raw counter value (in energy units, wraps at 2^32)."""
        return self._domains[domain].raw_counter

    def read_joules(self, domain: RAPLDomain = RAPLDomain.PACKAGE) -> float:
        """Counter value converted to joules (still wraps)."""
        return self.read_raw(domain) * self.energy_unit_j


def counter_delta_joules(
    before_raw: int, after_raw: int, energy_unit_j: float = DEFAULT_ENERGY_UNIT_J
) -> float:
    """Energy between two raw readings, handling a single wrap-around.

    This is the canonical client-side idiom for RAPL: compute the modular
    difference so a reading that wrapped between polls still yields the
    correct (positive) energy, provided at most one wrap occurred.
    """
    delta = (after_raw - before_raw) % COUNTER_WRAP
    return delta * energy_unit_j

