"""Depreciation schedules: the paper's Eq. for R_f, D_f and the rate."""

import pytest
from hypothesis import given, strategies as st

from repro.accounting.base import MachinePricing, UsageBatch
from repro.accounting.methods import CarbonBasedAccounting
from repro.carbon.embodied import (
    DoubleDecliningBalance,
    LinearDepreciation,
    carbon_rate_per_hour,
)
from repro.units import HOURS_PER_YEAR


class TestLinear:
    def test_constant_yearly_charge(self):
        lin = LinearDepreciation(lifetime_years=5)
        assert lin.yearly_charge(1000.0, 0) == pytest.approx(200.0)
        assert lin.yearly_charge(1000.0, 4) == pytest.approx(200.0)

    def test_zero_after_lifetime(self):
        lin = LinearDepreciation(lifetime_years=5)
        assert lin.yearly_charge(1000.0, 5) == 0.0
        assert lin.yearly_charge(1000.0, 10) == 0.0

    def test_full_life_sums_to_total(self):
        lin = LinearDepreciation(lifetime_years=5)
        total = sum(lin.yearly_charge(1000.0, y) for y in range(10))
        assert total == pytest.approx(1000.0)


class TestDoubleDecliningBalance:
    def test_paper_formula(self):
        """R_f(y) = C * 0.6^y ; D_f(y) = 0.4 * R_f(y)."""
        ddb = DoubleDecliningBalance(lifetime_years=5)
        c = 1000.0
        assert ddb.remaining(c, 0) == pytest.approx(c)
        assert ddb.remaining(c, 2) == pytest.approx(c * 0.36)
        assert ddb.yearly_charge(c, 1) == pytest.approx(0.4 * c * 0.6)

    def test_rate_is_yearly_over_8760(self):
        ddb = DoubleDecliningBalance()
        rate = ddb.rate_per_hour(1000.0, 0)
        assert rate == pytest.approx(400.0 / HOURS_PER_YEAR)

    def test_never_fully_depreciates(self):
        ddb = DoubleDecliningBalance()
        assert ddb.yearly_charge(1000.0, 20) > 0.0

    def test_charges_decline_each_year(self):
        ddb = DoubleDecliningBalance()
        charges = [ddb.yearly_charge(1000.0, y) for y in range(10)]
        assert charges == sorted(charges, reverse=True)

    def test_crossover_with_linear(self):
        """Accelerated charges more than linear early (ages 0-1) and less
        later (ages >= 2) — the Table 4 narrative."""
        ddb = DoubleDecliningBalance(lifetime_years=5)
        lin = LinearDepreciation(lifetime_years=5)
        c = 1000.0
        assert ddb.yearly_charge(c, 0) > lin.yearly_charge(c, 0)
        assert ddb.yearly_charge(c, 1) > lin.yearly_charge(c, 1)
        assert ddb.yearly_charge(c, 2) < lin.yearly_charge(c, 2)
        assert ddb.yearly_charge(c, 4) < lin.yearly_charge(c, 4)

    @given(
        st.floats(min_value=0, max_value=1e9),
        st.integers(min_value=0, max_value=30),
    )
    def test_remaining_plus_charges_conserve_total(self, total, years):
        ddb = DoubleDecliningBalance()
        charged = sum(ddb.yearly_charge(total, y) for y in range(years))
        assert charged + ddb.remaining(total, years) == pytest.approx(
            total, rel=1e-9, abs=1e-6
        )


class TestCharges:
    def test_rate_helper_uses_accelerated_default(self):
        assert carbon_rate_per_hour(1000.0, 0) == pytest.approx(
            400.0 / HOURS_PER_YEAR
        )

    def test_cba_embodied_charge_scales_with_share_and_time(self):
        """CBA's ``cost`` holds the only copy of the embodied term: one
        node-hour at the year-0 rate, linear in share and in duration,
        and an oversized job's share caps at the whole node."""
        machine = MachinePricing(
            name="M",
            total_cores=128,
            tdp_watts=750.0,
            peak_rating=1.0,
            embodied_carbon_g=1000.0,
            age_years=0,
        )
        batch = UsageBatch(
            machine="M",
            duration_s=[3600.0, 3600.0, 7200.0, 3600.0],
            energy_j=[0.0] * 4,
            cores=[128, 64, 128, 256],
            start_time_s=[0.0] * 4,
        )
        charges = CarbonBasedAccounting().embodied_charge_many(batch, machine)
        full, half, double, oversized = charges
        assert full == pytest.approx(400.0 / HOURS_PER_YEAR)
        assert half == pytest.approx(full / 2)
        assert double == pytest.approx(full * 2)
        assert oversized == full

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            carbon_rate_per_hour(-1.0, 0)
        with pytest.raises(ValueError):
            carbon_rate_per_hour(1.0, -1)
        with pytest.raises(ValueError):
            UsageBatch(
                machine="M",
                duration_s=[-3600.0],
                energy_j=[0.0],
                cores=[1],
                start_time_s=[0.0],
            )

    def test_rejects_bad_lifetime(self):
        with pytest.raises(ValueError):
            LinearDepreciation(lifetime_years=0)
        with pytest.raises(ValueError):
            DoubleDecliningBalance(lifetime_years=-1)
