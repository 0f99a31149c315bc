"""Each built-in method writes its formula once, as ``cost``.

``charge``, ``charge_many`` and ``probe_kernel`` are adapters on
:class:`~repro.accounting.base.AccountingMethod`; a built-in method that
defined its own copy of any of them would reintroduce a second formula
that only the equivalence tests hold in line.
"""

import numpy as np
import pytest

from repro.accounting.base import AccountingMethod, MachinePricing, UsageBatch
from repro.accounting.methods import EnergyBasedAccounting, all_methods
from repro.carbon.intensity import constant_trace

BUILT_IN = [type(m) for m in all_methods()]


@pytest.mark.parametrize("cls", BUILT_IN, ids=lambda c: c.__name__)
def test_built_in_methods_define_only_cost(cls):
    assert "cost" in vars(cls)
    for adapter in ("charge", "charge_many", "probe_kernel"):
        assert adapter not in vars(cls), f"{cls.__name__} overrides {adapter}"


def test_method_without_cost_or_charge_is_rejected():
    with pytest.raises(TypeError, match="cost"):

        class Nameless(AccountingMethod):
            name = "nameless"


def test_overridden_charge_drives_batches_and_probes():
    """A subclass that overrides ``charge`` on top of a ``cost`` is priced
    through its ``charge`` everywhere, not through the inherited cost."""

    class SurchargedEBA(EnergyBasedAccounting):
        def charge(self, record, machine):
            return super().charge(record, machine) + 1.0

    machine = MachinePricing(
        name="m",
        total_cores=8,
        tdp_watts=100.0,
        peak_rating=1.0,
        intensity=constant_trace("flat", 50.0),
    )
    batch = UsageBatch(
        machine="m",
        duration_s=np.array([10.0, 20.0]),
        energy_j=np.array([5.0, 7.0]),
        cores=np.array([2, 4]),
        start_time_s=np.array([0.0, 0.0]),
    )
    method = SurchargedEBA()
    expected = EnergyBasedAccounting().charge_many(batch, machine) + 1.0
    assert np.array_equal(method.charge_many(batch, machine), expected)
    assert method.probe_kernel(machine)(10.0, 5.0, 2, 0.0) == expected[0]
