"""Accounting interfaces: usage records, machine pricing views, and the
method base class.

Accounting methods deliberately see a *narrow* view of the world:

* a :class:`UsageRecord` — what one job measurably consumed, and
* a :class:`MachinePricing` — the static pricing attributes of the
  machine it ran on (TDP, peak rating, embodied carbon, grid intensity).

Keeping the interface this small is what lets the same five methods
price a FaaS function invocation (§4.2), a simulated batch job (§5), and
a move in the user-study game (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.carbon.intensity import CarbonIntensityTrace, constant_trace
from repro.hardware.node import GPUNodeSpec, NodeSpec


@dataclass(frozen=True)
class UsageRecord:
    """What one job consumed on one machine.

    Attributes
    ----------
    machine:
        Name of the machine the job ran on (must match a
        :class:`MachinePricing`).
    duration_s:
        Wall-clock duration ``d_j`` (seconds).
    energy_j:
        Energy ``e_j`` attributed to the job by the monitor (joules).
    cores:
        Cores (or whole GPUs) the user *requested* — what time-based
        methods (Runtime, Peak) charge for.
    provisioned_cores:
        Cores the runtime actually occupied, as measured by the monitor.
        EBA's potential-use term and CBA's embodied share attribute by
        occupancy, which can differ from the request when a kernel's
        thread scaling differs between machines.  Defaults to ``cores``.
    start_time_s:
        Absolute start time, used to look up the grid carbon intensity
        ``I_f(t)``.
    job_id:
        Optional identifier carried through to ledgers and reports.
    """

    machine: str
    duration_s: float
    energy_j: float
    cores: int = 1
    provisioned_cores: int | None = None
    start_time_s: float = 0.0
    job_id: str = ""

    def __post_init__(self) -> None:
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every comparison.
        if not self.duration_s >= 0:
            raise ValueError("duration must be a non-negative number")
        if not self.energy_j >= 0:
            raise ValueError("energy must be a non-negative number")
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.provisioned_cores is not None and self.provisioned_cores <= 0:
            raise ValueError("provisioned_cores must be positive")

    @property
    def occupancy(self) -> int:
        """Cores actually occupied (falls back to the request)."""
        return (
            self.provisioned_cores
            if self.provisioned_cores is not None
            else self.cores
        )


@dataclass(frozen=True)
class UsageBatch:
    """Struct-of-arrays batch of usage records on **one** machine.

    The vectorized pricing path (:meth:`AccountingMethod.charge_many`)
    operates on flat arrays instead of per-:class:`UsageRecord` objects;
    this is what lets the simulator price a whole workload in a handful
    of NumPy expressions.  Field semantics match :class:`UsageRecord`
    element-wise.
    """

    machine: str
    duration_s: np.ndarray
    energy_j: np.ndarray
    cores: np.ndarray
    start_time_s: np.ndarray
    provisioned_cores: np.ndarray | None = None

    def __post_init__(self) -> None:
        duration = np.asarray(self.duration_s, dtype=float)
        energy = np.asarray(self.energy_j, dtype=float)
        cores = np.asarray(self.cores)
        start = np.asarray(self.start_time_s, dtype=float)
        n = len(duration)
        if not (len(energy) == len(cores) == len(start) == n):
            raise ValueError("batch arrays must have equal lengths")
        if not np.all(duration >= 0):
            raise ValueError("durations must be non-negative numbers")
        if not np.all(energy >= 0):
            raise ValueError("energies must be non-negative numbers")
        if np.any(cores <= 0):
            raise ValueError("cores must be positive")
        object.__setattr__(self, "duration_s", duration)
        object.__setattr__(self, "energy_j", energy)
        object.__setattr__(self, "cores", cores)
        object.__setattr__(self, "start_time_s", start)
        if self.provisioned_cores is not None:
            prov = np.asarray(self.provisioned_cores)
            if len(prov) != n:
                raise ValueError("batch arrays must have equal lengths")
            if np.any(prov <= 0):
                raise ValueError("provisioned_cores must be positive")
            object.__setattr__(self, "provisioned_cores", prov)

    def __len__(self) -> int:
        return len(self.duration_s)

    @property
    def occupancy(self) -> np.ndarray:
        """Cores actually occupied (falls back to the request)."""
        return (
            self.provisioned_cores
            if self.provisioned_cores is not None
            else self.cores
        )

    # ------------------------------------------------------------------
    @classmethod
    def unchecked(
        cls,
        machine: str,
        duration_s: np.ndarray,
        energy_j: np.ndarray,
        cores: np.ndarray,
        start_time_s: np.ndarray,
        provisioned_cores: np.ndarray | None = None,
    ) -> "UsageBatch":
        """Trusted constructor that skips validation and copies.

        For internal hot paths (the pricing kernel's per-event probe
        batches) whose arrays are derived from already-validated data;
        the arrays are stored as given, so callers must pass float/int
        ndarrays of equal length and must not mutate them afterwards.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "machine", machine)
        object.__setattr__(batch, "duration_s", duration_s)
        object.__setattr__(batch, "energy_j", energy_j)
        object.__setattr__(batch, "cores", cores)
        object.__setattr__(batch, "start_time_s", start_time_s)
        object.__setattr__(batch, "provisioned_cores", provisioned_cores)
        return batch

    @classmethod
    def from_records(cls, records: Sequence[UsageRecord]) -> "UsageBatch":
        """Pack same-machine records into one batch."""
        if not records:
            raise ValueError("need at least one record")
        machines = {r.machine for r in records}
        if len(machines) > 1:
            raise ValueError(f"records span several machines: {sorted(machines)}")
        provisioned = None
        if any(r.provisioned_cores is not None for r in records):
            provisioned = np.array([r.occupancy for r in records])
        return cls(
            machine=records[0].machine,
            duration_s=np.array([r.duration_s for r in records]),
            energy_j=np.array([r.energy_j for r in records]),
            cores=np.array([r.cores for r in records]),
            start_time_s=np.array([r.start_time_s for r in records]),
            provisioned_cores=provisioned,
        )

    def record(self, i: int) -> UsageRecord:
        """The ``i``-th element as a scalar :class:`UsageRecord` (the
        fallback path for methods without a vectorized ``charge_many``)."""
        return UsageRecord(
            machine=self.machine,
            duration_s=float(self.duration_s[i]),
            energy_j=float(self.energy_j[i]),
            cores=int(self.cores[i]),
            provisioned_cores=(
                int(self.provisioned_cores[i])
                if self.provisioned_cores is not None
                else None
            ),
            start_time_s=float(self.start_time_s[i]),
        )

    def records(self) -> Iterable[UsageRecord]:
        """Iterate the batch as scalar records."""
        return (self.record(i) for i in range(len(self)))


@dataclass(frozen=True)
class MachinePricing:
    """Static pricing attributes of one machine.

    Attributes
    ----------
    name:
        Machine name.
    total_cores:
        Cores on the priced unit (node).  A job's TDP / embodied share is
        ``cores / total_cores``.
    tdp_watts:
        Full-unit TDP, the ``TDP_R`` of Eq. (1).
    peak_rating:
        Per-core peak-performance rating used by the ``Peak`` baseline.
        For CPU machines this is a per-thread PassMark-style score [39];
        for GPU configurations it is per-GPU GFLOP/s.  Only ratios
        between machines matter.
    embodied_carbon_g:
        Total embodied carbon of the unit (gCO2e).
    age_years:
        Whole years since deployment at pricing time.
    intensity:
        Grid carbon-intensity trace at the hosting facility.
    carbon_rate_override_g_per_h:
        If set, CBA uses this per-unit embodied rate directly instead of
        deriving it from ``embodied_carbon_g`` (Table 2 publishes rates,
        not totals, for the GPU configurations).
    whole_unit:
        True when the unit is always allocated whole (the paper assumes
        an entire GPU configuration per job), making the share 1.0
        regardless of ``cores``.
    """

    name: str
    total_cores: int
    tdp_watts: float
    peak_rating: float
    embodied_carbon_g: float = 0.0
    age_years: int = 0
    intensity: CarbonIntensityTrace | None = None
    carbon_rate_override_g_per_h: float | None = None
    whole_unit: bool = False

    def __post_init__(self) -> None:
        if self.total_cores <= 0:
            raise ValueError("total_cores must be positive")
        # Negated comparisons: NaN fails every comparison.
        if not self.tdp_watts > 0:
            raise ValueError("TDP must be positive")
        if not self.peak_rating >= 0:
            raise ValueError("peak rating must be a non-negative number")
        if not self.embodied_carbon_g >= 0:
            raise ValueError("embodied carbon must be a non-negative number")
        rate = self.carbon_rate_override_g_per_h
        if rate is not None and not rate >= 0:
            raise ValueError("carbon rate must be a non-negative number")

    # ------------------------------------------------------------------
    def share(self, cores: int) -> float:
        """Fraction of the unit a ``cores``-wide job occupies."""
        if self.whole_unit:
            return 1.0
        return min(1.0, cores / self.total_cores)

    def attributed_tdp_watts(self, cores: int) -> float:
        """TDP attributed to a ``cores``-wide job (Eq. 1's potential use)."""
        return self.tdp_watts * self.share(cores)

    def share_many(self, cores: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`share` for an array of core counts.

        Identical IEEE operations to the scalar path, so batch pricing
        is bit-for-bit equal to looped pricing.
        """
        cores = np.asarray(cores)
        if self.whole_unit:
            return np.ones(cores.shape)
        return np.minimum(1.0, cores / self.total_cores)

    def intensity_trace(self) -> CarbonIntensityTrace:
        """The grid carbon-intensity trace; raises when there is none."""
        if self.intensity is None:
            raise ValueError(
                f"machine {self.name!r} has no carbon-intensity trace; "
                "CBA pricing requires one"
            )
        return self.intensity

    def intensity_at(self, time_s: float) -> float:
        """Grid carbon intensity (gCO2e/kWh) at ``time_s``."""
        return self.intensity_trace().at(time_s)

    def with_intensity(self, g_per_kwh: float) -> "MachinePricing":
        """Copy of this pricing with a flat intensity (scenario helper)."""
        return replace(
            self, intensity=constant_trace(f"{self.name}-flat", g_per_kwh)
        )


class AccountingMethod:
    """A charging scheme: maps a usage record to an allocation cost.

    Cost units are method-specific (core-hours, joules, gCO2e, ...);
    comparisons across methods always normalize within a method first
    (see :mod:`repro.accounting.comparison`), exactly as the paper's
    tables do.

    A subclass writes its formula once, as :meth:`cost`; the adapters
    :meth:`charge`, :meth:`charge_many` and :meth:`probe_kernel` only
    build its operands, so all three price bit for bit alike.  A subclass
    may instead define :meth:`charge`, which the other two then loop
    over.  One that defines neither is rejected when it is declared.
    """

    #: Short name used in tables ("Runtime", "Energy", "Peak", "EBA", "CBA").
    name: str = "?"

    #: True when a subclass prices through its own :meth:`charge`.
    _charges_per_record = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._charges_per_record = cls.charge is not AccountingMethod.charge
        if not cls._charges_per_record and cls.cost is AccountingMethod.cost:
            raise TypeError(f"{cls.__name__} must define cost() or charge()")

    def cost(
        self,
        k: Any,
        duration_s: Any,
        energy_j: Any,
        cores: Any,
        share: Any,
        intensity: Any,
    ) -> Any:
        """The method's formula, in its units.

        ``k`` is :meth:`machine_constant`, ``cores`` the request,
        ``share`` the fraction of the unit the job occupies
        (:meth:`MachinePricing.share`) and ``intensity`` the grid
        intensity from :meth:`intensity_lookup`.  The operands are Python
        floats for one record or float64 arrays for a batch, so use
        arithmetic operators only, never ``min`` or ``if``: they perform
        the same IEEE operations in the same order on both.
        """
        raise NotImplementedError(f"{type(self).__name__} does not define cost()")

    def machine_constant(self, machine: MachinePricing) -> float:
        """The one per-machine constant ``k`` that :meth:`cost` reads
        (peak rating, TDP, embodied rate, ...); 0.0 when it reads none."""
        return 0.0

    def intensity_lookup(
        self, machine: MachinePricing, many: bool = False
    ) -> Callable[[Any, Any], Any]:
        """The ``(start_s, duration_s) -> gCO2e/kWh`` lookup that feeds
        :meth:`cost` its ``intensity`` on ``machine``, over floats or,
        when ``many``, over arrays.  The base lookup returns 0.0."""
        return lambda start_s, duration_s: 0.0

    def charge(self, record: UsageRecord, machine: MachinePricing) -> float:
        """Cost of ``record`` on ``machine``, in this method's units."""
        lookup = self.intensity_lookup(machine)
        intensity = lookup(record.start_time_s, record.duration_s)
        return self.cost(*self._operands(record, machine), intensity)

    def _operands(self, record: UsageRecord, machine: MachinePricing) -> tuple:
        """:meth:`cost`'s operands for one record, bar the intensity."""
        share = machine.share(record.occupancy)
        k = self.machine_constant(machine)
        return k, record.duration_s, record.energy_j, record.cores, share

    def _batch_operands(self, batch: UsageBatch, machine: MachinePricing) -> tuple:
        """:meth:`cost`'s operands for a batch, bar the intensity."""
        share = machine.share_many(batch.occupancy)
        k = self.machine_constant(machine)
        return k, batch.duration_s, batch.energy_j, batch.cores, share

    def charge_many(self, batch: UsageBatch, machine: MachinePricing) -> np.ndarray:
        """Vectorized :meth:`charge` over a same-machine batch.

        Evaluates :meth:`cost` once over the batch's arrays into a fresh
        float64 array, bit-identical to the looped path.  Methods that
        define their own :meth:`charge` are looped instead, so any
        subclass is batch-capable.
        """
        if self._charges_per_record:
            return np.array(
                [self.charge(record, machine) for record in batch.records()]
            )
        lookup = self.intensity_lookup(machine, many=True)
        intensity = lookup(batch.start_time_s, batch.duration_s)
        out = self.cost(*self._batch_operands(batch, machine), intensity)
        return np.array(out, dtype=np.float64)

    def charge_upper_bound(
        self, record: UsageRecord, machine: MachinePricing
    ) -> float:
        """A cheap, *sound* upper bound on :meth:`charge`.

        The deferred-settlement ledger uses this to answer admission
        checks without pricing the pending queue: the true pending debt
        never exceeds the summed bounds.  The base implementation simply
        charges (exact, hence sound); methods whose charge depends on
        run-time state (CBA's grid intensity) override it with a bound
        that avoids the lookup.
        """
        return self.charge(record, machine)

    def probe_kernel(
        self, machine: MachinePricing
    ) -> Callable[[float, float, int, float], float]:
        """A scalar quote closure ``(duration_s, energy_j, cores,
        start_time_s) -> cost`` specialized to one machine.

        Event loops that price many tiny probe batches (the migration
        simulator's per-tick stay/move re-evaluations) are dominated by
        per-call overhead — :class:`UsageRecord` construction, method
        dispatch, NumPy fixed costs on two-element arrays — rather than
        arithmetic.  A probe kernel hoists the per-machine constant, the
        share inputs and the intensity lookup once, then prices one probe
        with one :meth:`cost` call, so probe quotes are bit-identical to
        record pricing (the test suite asserts exact equality).  Methods
        that define their own :meth:`charge` get :meth:`estimate`, which
        builds a record and charges it.
        """
        if self._charges_per_record:
            return partial(self.estimate, machine)
        cost = self.cost
        k = self.machine_constant(machine)
        lookup = self.intensity_lookup(machine)
        total = machine.total_cores
        whole_unit = machine.whole_unit

        def probe(
            duration_s: float, energy_j: float, cores: int, start_time_s: float
        ) -> float:
            # MachinePricing.share, inlined: probes run once per event.
            share = 1.0 if whole_unit else min(1.0, cores / total)
            return cost(
                k, duration_s, energy_j, cores, share, lookup(start_time_s, duration_s)
            )

        return probe

    def estimate(
        self,
        machine: MachinePricing,
        duration_s: float,
        energy_j: float,
        cores: int = 1,
        start_time_s: float = 0.0,
    ) -> float:
        """Price a *predicted* execution — the green-ACCESS prediction
        endpoint uses this to show expected costs before submission."""
        record = UsageRecord(
            machine=machine.name,
            duration_s=duration_s,
            energy_j=energy_j,
            cores=cores,
            start_time_s=start_time_s,
        )
        return self.charge(record, machine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Constructors from hardware specs
# ---------------------------------------------------------------------------
def _as_trace(
    name: str, intensity: CarbonIntensityTrace | float | None
) -> CarbonIntensityTrace | None:
    """A trace as given, a flat trace for a number, or None."""
    if intensity is None or isinstance(intensity, CarbonIntensityTrace):
        return intensity
    return constant_trace(f"{name}-flat", float(intensity))


def pricing_for_node(
    node: NodeSpec,
    current_year: int,
    intensity: CarbonIntensityTrace | float | None = None,
) -> MachinePricing:
    """Build a pricing view for a CPU node.

    ``intensity`` may be a trace, a flat gCO2e/kWh value, or None (CBA
    will then refuse to price).
    """
    return MachinePricing(
        name=node.name,
        total_cores=node.cores,
        tdp_watts=node.tdp_watts,
        peak_rating=node.peak_gflops_per_core,
        embodied_carbon_g=node.embodied_carbon_g,
        age_years=node.age_years(current_year),
        intensity=_as_trace(node.name, intensity),
    )


def pricing_for_gpu_config(
    config: GPUNodeSpec,
    current_year: int,
    intensity: CarbonIntensityTrace | float | None = None,
    carbon_rate_g_per_h: float | None = None,
) -> MachinePricing:
    """Build a pricing view for a whole-unit GPU configuration.

    ``carbon_rate_g_per_h`` passes through a published per-configuration
    embodied rate (Table 2); when omitted CBA derives one from the
    configuration's estimated embodied total.
    """
    return MachinePricing(
        name=config.name,
        total_cores=config.count,
        tdp_watts=config.tdp_watts,
        peak_rating=config.gpu.peak_gflops,
        embodied_carbon_g=config.embodied_carbon_g,
        age_years=config.age_years(current_year),
        intensity=_as_trace(config.name, intensity),
        carbon_rate_override_g_per_h=carbon_rate_g_per_h,
        whole_unit=True,
    )
