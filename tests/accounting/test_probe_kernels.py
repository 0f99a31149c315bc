"""Scalar probe kernels must equal ``charge()`` bit for bit.

The migration simulator's re-evaluation path prices through
:meth:`AccountingMethod.probe_kernel` closures; every decision it makes
rests on those quotes being exactly what ``charge()`` would return.
"""

import numpy as np
import pytest

from repro.accounting.base import (
    AccountingMethod,
    MachinePricing,
    UsageRecord,
)
from repro.accounting.methods import (
    CarbonBasedAccounting,
    EnergyBasedAccounting,
    all_methods,
)
from repro.carbon.embodied import LinearDepreciation
from repro.carbon.intensity import CarbonIntensityTrace

#: The defaults plus non-default configurations: beta != 1 exposes a
#: re-associated beta term, and the CBA variants change the embodied
#: rate and the intensity lookup.
METHODS = [pytest.param(m, id=m.name) for m in all_methods()] + [
    pytest.param(EnergyBasedAccounting(beta=0.37), id="EBA-beta0.37"),
    pytest.param(
        CarbonBasedAccounting(schedule=LinearDepreciation()), id="CBA-linear"
    ),
    pytest.param(
        CarbonBasedAccounting(average_intensity_over_run=True), id="CBA-average"
    ),
]


def _trace(seed: int) -> CarbonIntensityTrace:
    rng = np.random.default_rng(seed)
    return CarbonIntensityTrace(
        region=f"T{seed}", hourly_g_per_kwh=rng.uniform(20.0, 600.0, size=72)
    )


def _pricings() -> list[MachinePricing]:
    return [
        MachinePricing(
            name="cpu",
            total_cores=128,
            tdp_watts=560.0,
            peak_rating=2750.0,
            embodied_carbon_g=1.4e9,
            age_years=2,
            intensity=_trace(0),
        ),
        MachinePricing(
            name="gpu",
            total_cores=4,
            tdp_watts=1600.0,
            peak_rating=9.7e3,
            embodied_carbon_g=3.0e9,
            age_years=0,
            intensity=_trace(1),
            carbon_rate_override_g_per_h=150.0,
            whole_unit=True,
        ),
    ]


def _random_probes(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (
            float(rng.uniform(0.5, 48 * 3600.0)),  # duration
            float(rng.uniform(1.0, 5e8)),  # energy
            int(rng.integers(1, 200)),  # cores (may exceed total)
            float(rng.uniform(0.0, 40 * 24 * 3600.0)),  # start time
        )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pricing", _pricings(), ids=lambda p: p.name)
def test_probe_kernel_matches_charge_exactly(method, pricing):
    probe = method.probe_kernel(pricing)
    for duration, energy, cores, start in _random_probes(200, seed=7):
        record = UsageRecord(
            machine=pricing.name,
            duration_s=duration,
            energy_j=energy,
            cores=cores,
            start_time_s=start,
        )
        assert probe(duration, energy, cores, start) == method.charge(
            record, pricing
        )


@pytest.mark.parametrize("pricing", _pricings(), ids=lambda p: p.name)
def test_cba_average_intensity_kernel_matches_charge(pricing):
    method = CarbonBasedAccounting(average_intensity_over_run=True)
    probe = method.probe_kernel(pricing)
    for duration, energy, cores, start in _random_probes(100, seed=11):
        record = UsageRecord(
            machine=pricing.name,
            duration_s=duration,
            energy_j=energy,
            cores=cores,
            start_time_s=start,
        )
        assert probe(duration, energy, cores, start) == method.charge(
            record, pricing
        )


def test_cba_kernel_memo_survives_repeated_and_changed_starts():
    """The snapshot memo must never return a stale intensity."""
    pricing = _pricings()[0]
    method = CarbonBasedAccounting()
    probe = method.probe_kernel(pricing)
    starts = [0.0, 0.0, 3600.0, 0.0, 7200.0, 7200.0]
    for start in starts:
        record = UsageRecord(
            machine=pricing.name,
            duration_s=100.0,
            energy_j=1e6,
            cores=8,
            start_time_s=start,
        )
        assert probe(100.0, 1e6, 8, start) == method.charge(record, pricing)


def test_default_probe_kernel_covers_custom_methods():
    """Any subclass is probe-capable via the record-building fallback."""

    class FlatFee(AccountingMethod):
        name = "Flat"

        def charge(self, record, machine):
            return 42.0 + record.cores

    pricing = _pricings()[0]
    probe = FlatFee().probe_kernel(pricing)
    assert probe(10.0, 5.0, 3, 0.0) == 45.0

def test_cba_kernel_requires_trace():
    pricing = MachinePricing(
        name="no-trace", total_cores=8, tdp_watts=100.0, peak_rating=1.0
    )
    with pytest.raises(ValueError, match="carbon-intensity"):
        CarbonBasedAccounting().probe_kernel(pricing)
