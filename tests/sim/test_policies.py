"""The eight selection policies.

Cases are stated the seed's way, as one view per machine, and run
through each policy's own array ``select`` (``seed_oracle.array_select``);
a property test checks every built-in against its view-based seed copy.
"""

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim import policies as policies_mod
from repro.sim.job import Job
from repro.sim.policies import (
    EFTPolicy,
    EnergyPolicy,
    FixedMachinePolicy,
    GreedyPolicy,
    LargestFirstPolicy,
    MixedPolicy,
    Policy,
    RuntimePolicy,
    standard_policies,
)
from seed_oracle import MachineView, array_select, seed_select


def view(machine, runtime=100.0, energy=1000.0, wait=0.0, cost=1.0) -> MachineView:
    return MachineView(
        machine=machine, runtime_s=runtime, energy_j=energy,
        queue_wait_s=wait, cost=cost,
    )


VIEWS = [
    view("A", runtime=100.0, energy=10.0, wait=0.0, cost=5.0),
    view("B", runtime=50.0, energy=20.0, wait=500.0, cost=2.0),
    view("C", runtime=80.0, energy=15.0, wait=10.0, cost=9.0),
]


class TestSimplePolicies:
    def test_greedy_minimizes_cost(self):
        assert array_select(GreedyPolicy(), VIEWS) == "B"

    def test_energy_minimizes_energy(self):
        assert array_select(EnergyPolicy(), VIEWS) == "A"

    def test_runtime_minimizes_runtime_ignoring_queue(self):
        assert array_select(RuntimePolicy(), VIEWS) == "B"

    def test_eft_minimizes_completion(self):
        # A: 100, B: 550, C: 90 -> C
        assert array_select(EFTPolicy(), VIEWS) == "C"


class TestMixed:
    def test_prefers_cheapest_by_default(self):
        views = [
            view("cheap", runtime=100.0, cost=1.0),
            view("fast", runtime=60.0, cost=5.0),
        ]
        assert array_select(MixedPolicy(), views) == "cheap"

    def test_switches_for_2x_speedup(self):
        views = [
            view("cheap", runtime=100.0, cost=1.0),
            view("fast", runtime=40.0, cost=5.0),
        ]
        assert array_select(MixedPolicy(), views) == "fast"

    def test_threshold_parameter(self):
        views = [
            view("cheap", runtime=100.0, cost=1.0),
            view("fast", runtime=60.0, cost=5.0),
        ]
        assert array_select(MixedPolicy(speedup_threshold=1.5), views) == "fast"

    def test_counts_queue_in_completion(self):
        views = [
            view("cheap", runtime=100.0, wait=0.0, cost=1.0),
            view("fast", runtime=10.0, wait=400.0, cost=5.0),
        ]
        assert array_select(MixedPolicy(), views) == "cheap"

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            MixedPolicy(speedup_threshold=0.5)


class TestFixed:
    def test_selects_target_when_available(self):
        assert array_select(FixedMachinePolicy("C"), VIEWS) == "C"

    def test_falls_back_to_fastest(self):
        views = [view("A", runtime=100.0), view("B", runtime=50.0)]
        assert array_select(FixedMachinePolicy("Z"), views) == "B"

    def test_name_is_machine(self):
        assert FixedMachinePolicy("Theta").name == "Theta"


class TestStandardSet:
    def test_paper_order(self):
        names = [p.name for p in standard_policies()]
        assert names == [
            "Greedy", "Energy", "Mixed", "EFT", "Runtime",
            "Theta", "IC", "FASTER",
        ]

    def test_custom_fixed_targets(self):
        names = [p.name for p in standard_policies(["X"])]
        assert names[-1] == "X" and len(names) == 6


#: One instance per built-in cost-blind policy, covering each branch:
#: the fixed target present or absent (fallback), and LargestFirst's
#: zero-wait and all-busy branches (the strategy draws both).
COST_BLIND = [
    EnergyPolicy(),
    EFTPolicy(),
    RuntimePolicy(),
    LargestFirstPolicy(),
    FixedMachinePolicy("B"),
    FixedMachinePolicy("Absent"),
]

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@st.composite
def views_and_costs(draw):
    """Views over distinct machines (tier names among them) plus one
    replacement cost per view."""
    names = draw(
        st.lists(
            st.sampled_from(["Large", "Medium", "Small", "A", "B", "C"]),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    views = [
        view(
            name,
            runtime=draw(NONNEGATIVE),
            energy=draw(NONNEGATIVE),
            wait=draw(st.one_of(st.just(0.0), NONNEGATIVE)),
            cost=draw(FINITE),
        )
        for name in names
    ]
    costs = draw(st.lists(FINITE, min_size=len(views), max_size=len(views)))
    return views, costs


class TestCostBlindness:
    """``reads_cost = False`` is a checked property of the choice."""

    def test_cost_blind_set(self):
        blind = {
            cls
            for cls in vars(policies_mod).values()
            if isinstance(cls, type)
            and issubclass(cls, Policy)
            and not cls.reads_cost
        }
        assert blind == {type(p) for p in COST_BLIND}
        assert GreedyPolicy.reads_cost and MixedPolicy.reads_cost

    @pytest.mark.parametrize("policy", COST_BLIND, ids=lambda p: p.name)
    @given(case=views_and_costs())
    @example(
        case=(
            [view("Large", wait=5.0, cost=1.0), view("Small", wait=0.0, cost=2.0)],
            [9.0, -3.0],
        )
    )
    @example(
        case=([view("A", runtime=9.0), view("C", runtime=3.0)], [1e300, -1e300])
    )
    def test_choice_ignores_costs(self, policy, case):
        views, costs = case
        repriced = [
            dataclasses.replace(v, cost=cost) for v, cost in zip(views, costs)
        ]
        assert array_select(policy, repriced) == array_select(policy, views)

    @pytest.mark.parametrize("policy", [GreedyPolicy(), MixedPolicy()])
    def test_cost_aware_choice_follows_costs(self, policy):
        views = [view("A", cost=1.0), view("B", cost=2.0)]
        swapped = [view("A", cost=2.0), view("B", cost=1.0)]
        assert policy.reads_cost
        assert array_select(policy, views) == "A"
        assert array_select(policy, swapped) == "B"

    def test_subclass_defaults_to_reading_costs(self):
        class FirstView(Policy):
            def select(self, names, runtime, energy, wait, cost):
                return 0

        assert Policy.reads_cost is True
        assert FirstView.reads_cost is True and FirstView().reads_cost is True


#: Every built-in, with both Mixed thresholds, a present and an absent
#: fixed target, and LargestFirst on its default and a custom order.
BUILT_INS = [
    *standard_policies(["B", "Absent"]),
    MixedPolicy(speedup_threshold=1.5),
    LargestFirstPolicy(),
    LargestFirstPolicy(order=("Small", "B")),
]

#: Few distinct values, so draws are full of ties.
TIED = st.sampled_from([0.0, 1.0, 2.0, 5.0, 10.0])


@st.composite
def tied_views(draw):
    names = draw(
        st.lists(
            st.sampled_from(["Large", "Medium", "Small", "A", "B", "C"]),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return [
        view(
            name,
            runtime=draw(st.one_of(TIED, NONNEGATIVE)),
            energy=draw(st.one_of(TIED, NONNEGATIVE)),
            wait=draw(st.one_of(TIED, NONNEGATIVE)),
            cost=draw(st.one_of(TIED, FINITE)),
        )
        for name in names
    ]


class TestArrayContract:
    """``select(names, runtime, energy, wait, cost) -> index``: an argmin
    that keeps the first minimum in eligibility order."""

    @pytest.mark.parametrize("policy", BUILT_INS, ids=lambda p: p.name)
    @given(views=tied_views())
    def test_matches_the_seed_view_policy(self, policy, views):
        job = Job(
            job_id=0,
            user=0,
            cores=8,
            submit_s=0.0,
            runtime_s={v.machine: v.runtime_s for v in views},
            energy_j={v.machine: v.energy_j for v in views},
        )
        assert array_select(policy, views) == seed_select(policy, job, views)

    @pytest.mark.parametrize(
        "policy",
        [GreedyPolicy(), EnergyPolicy(), EFTPolicy(), RuntimePolicy()],
        ids=lambda p: p.name,
    )
    def test_ties_go_to_the_first_machine(self, policy):
        names = ("C", "A", "B")
        same = (1.0, 1.0, 1.0)
        assert policy.select(names, same, same, [0.0, 0.0, 0.0], same) == 0
        low = (2.0, 1.0, 1.0)
        assert policy.select(names, low, low, [0.0, 0.0, 0.0], low) == 1

    def test_completion_is_wait_plus_runtime(self):
        # 0.1 + 0.2 != 0.3 in floats: EFT compares the rounded sums.
        names = ("A", "B")
        runtime = (0.2, 0.3)
        wait = [0.1, 0.0]
        assert 0.1 + 0.2 > 0.3
        assert EFTPolicy().select(names, runtime, runtime, wait, (0.0, 0.0)) == 1
