"""The vectorized batch-pricing API: ``charge_many`` must be
bit-identical to the looped scalar ``charge`` for every method."""

import numpy as np
import pytest

from repro.accounting.base import (
    AccountingMethod,
    MachinePricing,
    UsageBatch,
    UsageRecord,
)
from repro.accounting.methods import (
    CarbonBasedAccounting,
    EnergyBasedAccounting,
    all_methods,
)
from repro.carbon.embodied import LinearDepreciation
from repro.carbon.intensity import CarbonIntensityTrace

#: Non-default configurations: beta != 1 exposes a re-associated beta
#: term, and the CBA variants change the embodied rate and the intensity
#: lookup.
NON_DEFAULT_METHODS = [
    pytest.param(EnergyBasedAccounting(beta=0.37), id="EBA-beta0.37"),
    pytest.param(
        CarbonBasedAccounting(schedule=LinearDepreciation()), id="CBA-linear"
    ),
    pytest.param(
        CarbonBasedAccounting(average_intensity_over_run=True), id="CBA-average"
    ),
]


def random_records(rng, n=200, machine="M", with_provisioned=True):
    records = []
    for _ in range(n):
        provisioned = None
        if with_provisioned and rng.random() < 0.3:
            provisioned = int(rng.integers(1, 256))
        records.append(
            UsageRecord(
                machine=machine,
                duration_s=float(rng.uniform(0.0, 2e5)),
                energy_j=float(rng.uniform(0.0, 1e9)),
                cores=int(rng.integers(1, 256)),
                provisioned_cores=provisioned,
                start_time_s=float(rng.uniform(0.0, 3e6)),
            )
        )
    return records


def machine_variants(rng):
    trace = CarbonIntensityTrace("t", rng.uniform(20.0, 900.0, size=72))
    shared = dict(tdp_watts=750.0, peak_rating=2.3, intensity=trace)
    return [
        MachinePricing(
            name="M", total_cores=128, embodied_carbon_g=2.5e6,
            age_years=2, **shared,
        ),
        MachinePricing(
            name="M", total_cores=8, embodied_carbon_g=9.9e5,
            age_years=0, carbon_rate_override_g_per_h=123.4, **shared,
        ),
        MachinePricing(
            name="M", total_cores=4, embodied_carbon_g=5e5,
            age_years=5, whole_unit=True, **shared,
        ),
    ]


class TestChargeManyEquivalence:
    @pytest.mark.parametrize("method_index", range(5))
    def test_bit_identical_to_loop(self, method_index):
        rng = np.random.default_rng(41 + method_index)
        method = all_methods()[method_index]
        records = random_records(rng)
        batch = UsageBatch.from_records(records)
        for machine in machine_variants(rng):
            looped = np.array([method.charge(r, machine) for r in records])
            vectorized = method.charge_many(batch, machine)
            assert np.array_equal(looped, vectorized)

    def test_cba_average_intensity_variant(self):
        rng = np.random.default_rng(99)
        method = CarbonBasedAccounting(average_intensity_over_run=True)
        records = random_records(rng)
        batch = UsageBatch.from_records(records)
        for machine in machine_variants(rng):
            looped = np.array([method.charge(r, machine) for r in records])
            assert np.array_equal(looped, method.charge_many(batch, machine))

    @pytest.mark.parametrize("method", NON_DEFAULT_METHODS)
    def test_non_default_configs_bit_identical_to_loop(self, method):
        rng = np.random.default_rng(43)
        records = random_records(rng)
        batch = UsageBatch.from_records(records)
        for machine in machine_variants(rng):
            looped = np.array([method.charge(r, machine) for r in records])
            assert np.array_equal(looped, method.charge_many(batch, machine))

    @pytest.mark.parametrize(
        "method",
        [pytest.param(m, id=m.name) for m in all_methods()] + NON_DEFAULT_METHODS,
    )
    def test_upper_bound_dominates_charge(self, method):
        rng = np.random.default_rng(47)
        records = random_records(rng, n=100)
        for machine in machine_variants(rng):
            for r in records:
                assert method.charge_upper_bound(r, machine) >= method.charge(
                    r, machine
                )

    def test_cba_linear_embodied_charge_many(self):
        rng = np.random.default_rng(8)
        method = CarbonBasedAccounting(schedule=LinearDepreciation())
        records = random_records(rng)
        batch = UsageBatch.from_records(records)
        for machine in machine_variants(rng):
            looped = np.array(
                [method.embodied_charge(r, machine) for r in records]
            )
            assert np.array_equal(
                looped, method.embodied_charge_many(batch, machine)
            )

    def test_cba_embodied_charge_many(self):
        rng = np.random.default_rng(7)
        method = CarbonBasedAccounting()
        records = random_records(rng)
        batch = UsageBatch.from_records(records)
        for machine in machine_variants(rng):
            looped = np.array(
                [method.embodied_charge(r, machine) for r in records]
            )
            assert np.array_equal(
                looped, method.embodied_charge_many(batch, machine)
            )

    def test_default_fallback_loops_charge(self):
        class DoublingEnergy(AccountingMethod):
            name = "x2"

            def charge(self, record, machine):
                return 2.0 * record.energy_j

        rng = np.random.default_rng(3)
        records = random_records(rng, n=17)
        batch = UsageBatch.from_records(records)
        machine = machine_variants(rng)[0]
        expected = np.array([2.0 * r.energy_j for r in records])
        assert np.array_equal(
            DoublingEnergy().charge_many(batch, machine), expected
        )


class TestUsageBatch:
    def test_from_records_round_trip(self):
        rng = np.random.default_rng(1)
        # provisioned_cores=None cannot round-trip element-wise (the
        # batch stores the resolved occupancy), so build without it.
        records = random_records(rng, n=25, with_provisioned=False)
        batch = UsageBatch.from_records(records)
        assert len(batch) == 25
        assert [r for r in batch.records()] == records

    def test_from_records_resolves_occupancy(self):
        rng = np.random.default_rng(2)
        records = random_records(rng, n=40, with_provisioned=True)
        batch = UsageBatch.from_records(records)
        assert batch.occupancy.tolist() == [r.occupancy for r in records]

    def test_rejects_mixed_machines(self):
        a = UsageRecord(machine="A", duration_s=1.0, energy_j=1.0)
        b = UsageRecord(machine="B", duration_s=1.0, energy_j=1.0)
        with pytest.raises(ValueError):
            UsageBatch.from_records([a, b])

    def test_rejects_empty_record_list(self):
        with pytest.raises(ValueError):
            UsageBatch.from_records([])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            UsageBatch(
                machine="M",
                duration_s=np.array([1.0, 2.0]),
                energy_j=np.array([1.0]),
                cores=np.array([1, 1]),
                start_time_s=np.array([0.0, 0.0]),
            )

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("duration_s", -1.0),
            ("energy_j", -2.0),
            ("duration_s", np.nan),
            ("energy_j", np.nan),
            ("cores", 0),
        ],
    )
    def test_rejects_invalid_values(self, field, bad):
        values = dict(
            duration_s=np.array([1.0, 1.0]),
            energy_j=np.array([1.0, 1.0]),
            cores=np.array([1, 2]),
            start_time_s=np.array([0.0, 0.0]),
        )
        values[field] = np.array([values[field][0], bad])
        with pytest.raises(ValueError):
            UsageBatch(machine="M", **values)

    def test_occupancy_prefers_provisioned(self):
        batch = UsageBatch(
            machine="M",
            duration_s=np.array([1.0]),
            energy_j=np.array([1.0]),
            cores=np.array([4]),
            start_time_s=np.array([0.0]),
            provisioned_cores=np.array([9]),
        )
        assert batch.occupancy.tolist() == [9]
        assert batch.record(0).occupancy == 9

    def test_share_many_matches_scalar(self):
        rng = np.random.default_rng(11)
        cores = rng.integers(1, 300, size=100)
        for machine in machine_variants(rng):
            scalar = np.array([machine.share(int(c)) for c in cores])
            assert np.array_equal(machine.share_many(cores), scalar)
