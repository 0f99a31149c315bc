"""Carbon-aware temporal shifting (extension beyond the paper)."""

import pytest

from repro.accounting.methods import CarbonBasedAccounting, EnergyBasedAccounting
from repro.sim.engine import MultiClusterSimulator
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import GreedyPolicy
from repro.sim.scenarios import low_carbon_scenario
from repro.sim.shifting import ShiftingSimulator, TemporalShiftPlanner
from repro.sim.workload import PatelWorkloadGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def low_carbon_workload(low_carbon_machines):
    cfg = WorkloadConfig(n_base_jobs=300, n_users=50, seed=4)
    return PatelWorkloadGenerator(low_carbon_machines, cfg).generate()


class TestPlanner:
    def test_plan_never_increases_cost(self, low_carbon_machines, low_carbon_workload):
        planner = TemporalShiftPlanner(
            low_carbon_machines, CarbonBasedAccounting(), max_delay_h=12
        )
        for job in low_carbon_workload.jobs[:100]:
            plan = planner.plan(job, job.submit_s)
            assert plan.cost_at_release <= plan.cost_now + 1e-9
            assert 0.0 <= plan.delay_s <= 12 * 3600.0

    def test_some_jobs_actually_deferred(
        self, low_carbon_machines, low_carbon_workload
    ):
        planner = TemporalShiftPlanner(
            low_carbon_machines, CarbonBasedAccounting(), max_delay_h=12
        )
        delays = [
            planner.plan(job, job.submit_s).delay_s
            for job in low_carbon_workload.jobs[:200]
        ]
        assert any(d > 0 for d in delays)

    def test_time_invariant_method_never_defers(
        self, low_carbon_machines, low_carbon_workload
    ):
        """EBA costs do not depend on the clock, so nothing is shifted."""
        planner = TemporalShiftPlanner(
            low_carbon_machines, EnergyBasedAccounting(), max_delay_h=12
        )
        for job in low_carbon_workload.jobs[:50]:
            assert planner.plan(job, job.submit_s).delay_s == 0.0

    def test_patience_hurdle_suppresses_small_savings(
        self, low_carbon_machines, low_carbon_workload
    ):
        eager = TemporalShiftPlanner(
            low_carbon_machines, CarbonBasedAccounting(), max_delay_h=12, patience=0.0
        )
        picky = TemporalShiftPlanner(
            low_carbon_machines, CarbonBasedAccounting(), max_delay_h=12, patience=0.5
        )
        jobs = low_carbon_workload.jobs[:200]
        eager_deferrals = sum(
            1 for j in jobs if eager.plan(j, j.submit_s).delay_s > 0
        )
        picky_deferrals = sum(
            1 for j in jobs if picky.plan(j, j.submit_s).delay_s > 0
        )
        assert picky_deferrals <= eager_deferrals

    def test_zero_max_delay_is_identity(self, low_carbon_machines, low_carbon_workload):
        planner = TemporalShiftPlanner(
            low_carbon_machines, CarbonBasedAccounting(), max_delay_h=0
        )
        for job in low_carbon_workload.jobs[:30]:
            assert planner.plan(job, job.submit_s).delay_s == 0.0

    def test_validation(self, low_carbon_machines):
        with pytest.raises(ValueError):
            TemporalShiftPlanner(
                low_carbon_machines, CarbonBasedAccounting(), max_delay_h=-1
            )
        with pytest.raises(ValueError):
            TemporalShiftPlanner(
                low_carbon_machines, CarbonBasedAccounting(), patience=1.0
            )


class TestShiftingSimulator:
    def test_shifting_reduces_operational_carbon(
        self, low_carbon_machines, low_carbon_workload
    ):
        """The headline: deferral into intensity troughs cuts operational
        carbon without losing jobs."""
        cba = CarbonBasedAccounting()
        plain = MultiClusterSimulator(
            low_carbon_machines, cba, GreedyPolicy()
        ).run(low_carbon_workload)
        shifted = ShiftingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), max_delay_h=12
        ).run(low_carbon_workload)
        assert shifted.n_jobs == plain.n_jobs
        assert (
            shifted.total_operational_carbon_g()
            < plain.total_operational_carbon_g()
        )

    def test_bounded_makespan_penalty(self, low_carbon_machines, low_carbon_workload):
        cba = CarbonBasedAccounting()
        plain = MultiClusterSimulator(
            low_carbon_machines, cba, GreedyPolicy()
        ).run(low_carbon_workload)
        shifted = ShiftingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), max_delay_h=12
        ).run(low_carbon_workload)
        assert shifted.makespan_s <= plain.makespan_s + 12 * 3600.0

    def test_policy_label(self, low_carbon_machines, low_carbon_workload):
        shifted = ShiftingSimulator(
            low_carbon_machines, CarbonBasedAccounting(), GreedyPolicy()
        ).run(low_carbon_workload)
        assert shifted.policy == "Greedy+shift"


class TestIneligibleJobs:
    """A job no fleet machine can run is discarded, as the engine and
    migration discard it; only a direct ``plan()`` call raises."""

    @pytest.fixture(scope="class")
    def desktop_world(self):
        """The low-carbon fleet cut to Desktop: a fair share of the jobs
        need more than its 16 cores."""
        machines = low_carbon_scenario(days=20, seed=0)
        cfg = WorkloadConfig(n_base_jobs=200, n_users=30, seed=1)
        workload = PatelWorkloadGenerator(machines, cfg).generate()
        return {"Desktop": machines["Desktop"]}, workload

    def test_shifting_discards_what_no_machine_can_run(self, desktop_world):
        desktop, workload = desktop_world
        cba = CarbonBasedAccounting()
        ineligible = [j for j in workload.jobs if "Desktop" not in j.runtime_s]
        assert ineligible
        plain = MultiClusterSimulator(desktop, cba, GreedyPolicy()).run(workload)
        migrating = MigratingSimulator(desktop, cba, GreedyPolicy()).run(workload)
        shifted = ShiftingSimulator(desktop, cba, GreedyPolicy()).run(workload)
        assert plain.n_jobs == len(workload) - len(ineligible)
        assert shifted.n_jobs == migrating.n_jobs == plain.n_jobs
        assert not {j.job_id for j in ineligible} & set(shifted.table.job_id.tolist())

    def test_plan_still_raises(self, desktop_world):
        desktop, workload = desktop_world
        planner = TemporalShiftPlanner(desktop, CarbonBasedAccounting())
        job = next(j for j in workload.jobs if "Desktop" not in j.runtime_s)
        with pytest.raises(ValueError, match="no eligible machine"):
            planner.plan(job, job.submit_s)
