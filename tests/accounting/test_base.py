"""UsageRecord / MachinePricing construction and helpers."""

import pytest

from repro.accounting.base import (
    MachinePricing,
    UsageRecord,
    pricing_for_gpu_config,
    pricing_for_node,
)
from repro.carbon.intensity import constant_trace
from repro.hardware.catalog import A100, ZEN3_NODE
from repro.hardware.node import GPUNodeSpec


class TestUsageRecord:
    def test_occupancy_defaults_to_request(self):
        r = UsageRecord(machine="m", duration_s=1.0, energy_j=1.0, cores=8)
        assert r.occupancy == 8

    def test_occupancy_override(self):
        r = UsageRecord(
            machine="m", duration_s=1.0, energy_j=1.0, cores=8, provisioned_cores=6
        )
        assert r.occupancy == 6

    @pytest.mark.parametrize(
        "kw",
        [
            {"duration_s": -1.0},
            {"energy_j": -1.0},
            {"duration_s": float("nan")},
            {"energy_j": float("nan")},
            {"cores": 0},
            {"provisioned_cores": 0},
        ],
    )
    def test_rejects_invalid(self, kw):
        base = dict(machine="m", duration_s=1.0, energy_j=1.0, cores=1)
        base.update(kw)
        with pytest.raises(ValueError):
            UsageRecord(**base)


class TestMachinePricing:
    def test_share_clips_at_one(self):
        p = MachinePricing(name="m", total_cores=8, tdp_watts=100.0, peak_rating=1.0)
        assert p.share(4) == 0.5
        assert p.share(100) == 1.0

    def test_whole_unit_share_is_one(self):
        p = MachinePricing(
            name="m", total_cores=8, tdp_watts=100.0, peak_rating=1.0,
            whole_unit=True,
        )
        assert p.share(1) == 1.0

    def test_attributed_tdp(self):
        p = MachinePricing(name="m", total_cores=10, tdp_watts=200.0, peak_rating=1.0)
        assert p.attributed_tdp_watts(5) == pytest.approx(100.0)

    def test_intensity_lookup_requires_trace(self):
        p = MachinePricing(name="m", total_cores=1, tdp_watts=1.0, peak_rating=1.0)
        with pytest.raises(ValueError):
            p.intensity_at(0.0)

    def test_with_intensity(self):
        p = MachinePricing(name="m", total_cores=1, tdp_watts=1.0, peak_rating=1.0)
        assert p.with_intensity(321.0).intensity_at(12345.0) == 321.0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            MachinePricing(name="m", total_cores=0, tdp_watts=1.0, peak_rating=1.0)
        with pytest.raises(ValueError):
            MachinePricing(name="m", total_cores=1, tdp_watts=0.0, peak_rating=1.0)


    @pytest.mark.parametrize(
        "kw",
        [
            {"tdp_watts": float("nan")},
            {"peak_rating": float("nan")},
            {"peak_rating": -1.0},
            {"embodied_carbon_g": -1.0},
            {"embodied_carbon_g": float("nan")},
            {"carbon_rate_override_g_per_h": -1.0},
            {"carbon_rate_override_g_per_h": float("nan")},
        ],
    )
    def test_rejects_invalid(self, kw):
        base = dict(name="m", total_cores=8, tdp_watts=100.0, peak_rating=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            MachinePricing(**base)


class TestConstructors:
    def test_pricing_for_node(self):
        p = pricing_for_node(ZEN3_NODE, current_year=2024, intensity=300.0)
        assert p.name == "Zen3"
        assert p.total_cores == ZEN3_NODE.cores
        assert p.tdp_watts == ZEN3_NODE.tdp_watts
        assert p.age_years == 1
        assert p.intensity_at(0.0) == 300.0

    def test_pricing_for_node_accepts_trace(self):
        trace = constant_trace("t", 55.0)
        p = pricing_for_node(ZEN3_NODE, 2024, trace)
        assert p.intensity_at(1e6) == 55.0

    def test_pricing_for_node_without_intensity(self):
        p = pricing_for_node(ZEN3_NODE, 2024)
        assert p.intensity is None

    def test_pricing_for_gpu_config(self):
        config = GPUNodeSpec(gpu=A100, count=4)
        p = pricing_for_gpu_config(
            config, 2024, intensity=53.0, carbon_rate_g_per_h=106.0
        )
        assert p.whole_unit
        assert p.total_cores == 4
        assert p.tdp_watts == 1600.0
        assert p.carbon_rate_override_g_per_h == 106.0
        assert p.age_years == 3

    def test_estimate_matches_charge(self):
        from repro.accounting.methods import EnergyBasedAccounting

        p = pricing_for_node(ZEN3_NODE, 2024, 300.0)
        eba = EnergyBasedAccounting()
        est = eba.estimate(p, duration_s=10.0, energy_j=100.0, cores=8)
        direct = eba.charge(
            UsageRecord(machine="Zen3", duration_s=10.0, energy_j=100.0, cores=8),
            p,
        )
        assert est == direct
