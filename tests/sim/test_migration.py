"""The migration extension (§7 limitation, lifted)."""

import dataclasses

import numpy as np
import pytest

from repro.accounting.methods import (
    CarbonBasedAccounting,
    EnergyBasedAccounting,
    all_methods,
)
from repro.accounting.pricing import QuoteTable, SegmentLedger
from repro.carbon.intensity import CarbonIntensityTrace
from repro.sim.engine import MultiClusterSimulator, pricing_for_sim_machine
from repro.sim.job import Job, JobBlock
from repro.sim.migration import MigratingSimulator, _MigrationRun
from repro.sim.policies import FixedMachinePolicy, GreedyPolicy
from repro.sim.scenarios import low_carbon_scenario
from repro.sim.workload import (
    PatelWorkloadGenerator,
    Workload,
    WorkloadConfig,
)
from seed_oracle import assert_results_identical, seed_migration_run


@pytest.fixture(scope="module")
def long_job_workload(low_carbon_machines):
    """Long jobs (median 4 h) — migration only matters for jobs that
    span intensity changes."""
    cfg = WorkloadConfig(
        n_base_jobs=200, n_users=40, seed=6, runtime_median_s=4 * 3600.0
    )
    return PatelWorkloadGenerator(low_carbon_machines, cfg).generate()


@pytest.fixture(scope="module")
def results(low_carbon_machines, long_job_workload):
    cba = CarbonBasedAccounting()
    plain = MultiClusterSimulator(
        low_carbon_machines, cba, GreedyPolicy()
    ).run(long_job_workload)
    migrating = MigratingSimulator(
        low_carbon_machines, cba, GreedyPolicy(), min_saving=0.15
    ).run(long_job_workload)
    return plain, migrating


class TestConservation:
    def test_every_job_still_completes(self, results, long_job_workload):
        plain, migrating = results
        assert migrating.n_jobs == plain.n_jobs == len(long_job_workload)
        assert len({o.job_id for o in migrating.outcomes}) == migrating.n_jobs

    def test_work_conserved(self, results):
        plain, migrating = results
        assert migrating.total_work_core_hours() == pytest.approx(
            plain.total_work_core_hours()
        )

    def test_costs_and_energy_positive(self, results):
        _, migrating = results
        for outcome in migrating.outcomes:
            assert outcome.cost > 0
            assert outcome.energy_j > 0
            assert outcome.submit_s <= outcome.start_s <= outcome.end_s

    def test_policy_label(self, results):
        _, migrating = results
        assert migrating.policy == "Greedy+migrate"


class TestBenefit:
    def test_migration_reduces_operational_carbon(self, results):
        """The point of lifting the limitation: jobs follow the cheap
        grid hours and operational carbon drops."""
        plain, migrating = results
        assert (
            migrating.total_operational_carbon_g()
            < plain.total_operational_carbon_g()
        )

    def test_migration_does_not_inflate_cost(self, results):
        plain, migrating = results
        assert migrating.total_cost() <= plain.total_cost() * 1.02


class TestBatchedExactness:
    """The batched pricing paths (kernel quotes, batched probes,
    deferred segment settlement) against the seed loop's per-record
    pricing, for every accounting method — same outcomes, same order,
    same floats."""

    @pytest.fixture(scope="class")
    def exactness_workload(self, low_carbon_machines):
        cfg = WorkloadConfig(
            n_base_jobs=120, n_users=30, seed=11, runtime_median_s=5 * 3600.0
        )
        return PatelWorkloadGenerator(low_carbon_machines, cfg).generate()

    @pytest.mark.parametrize(
        "method", all_methods(), ids=lambda m: m.name
    )
    def test_bit_identical_outcomes(
        self, low_carbon_machines, exactness_workload, method
    ):
        reference = seed_migration_run(
            low_carbon_machines,
            method,
            GreedyPolicy(),
            exactness_workload,
            min_saving=0.1,
        )
        batched = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.1
        ).run(exactness_workload)
        assert batched.outcomes == reference.outcomes
        assert batched.machines == reference.machines
        assert batched.policy == reference.policy

    def test_migrations_actually_happen_under_cba(
        self, low_carbon_machines, exactness_workload
    ):
        """Guard the guard: the exactness fixture must exercise the
        migration (segment-splitting) code path, not just plain runs."""
        sim = MigratingSimulator(
            low_carbon_machines,
            CarbonBasedAccounting(),
            GreedyPolicy(),
            min_saving=0.1,
        )
        result = sim.run(exactness_workload)
        assert result.n_jobs == len(exactness_workload)
        plain = MultiClusterSimulator(
            low_carbon_machines, CarbonBasedAccounting(), GreedyPolicy()
        ).run(exactness_workload)
        assert result.total_cost() != plain.total_cost()


class TestPrebuiltQuoteTable:
    """Runs that adopt a sweep-shared quote table must change nothing."""

    def test_prebuilt_table_bit_identical(
        self, low_carbon_machines, long_job_workload
    ):
        cba = CarbonBasedAccounting()
        pricings = {
            name: pricing_for_sim_machine(m)
            for name, m in low_carbon_machines.items()
        }
        table = QuoteTable.build(
            JobBlock.from_jobs(long_job_workload.jobs, list(pricings)), pricings, cba
        )
        fresh = MigratingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), min_saving=0.15
        ).run(long_job_workload)
        adopted = MigratingSimulator(
            low_carbon_machines,
            cba,
            GreedyPolicy(),
            min_saving=0.15,
            quote_table=table,
        ).run(long_job_workload)
        assert adopted.outcomes == fresh.outcomes

    def test_mismatched_table_rejected(
        self, low_carbon_machines, long_job_workload
    ):
        cba = CarbonBasedAccounting()
        pricings = {
            name: pricing_for_sim_machine(m)
            for name, m in low_carbon_machines.items()
        }
        table = QuoteTable.build(
            JobBlock.from_jobs(long_job_workload.jobs[:5], list(pricings)),
            pricings,
            cba,
        )
        sim = MigratingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), quote_table=table
        )
        with pytest.raises(ValueError, match="quote table does not match"):
            sim.run(long_job_workload)


class TestKnobs:
    def test_infinite_hurdle_means_no_migration(
        self, low_carbon_machines, long_job_workload
    ):
        """min_saving ~ 1 disables migration; results must match the
        plain engine's totals (same placements, same charging)."""
        cba = CarbonBasedAccounting()
        frozen = MigratingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), min_saving=0.999
        ).run(long_job_workload)
        plain = MultiClusterSimulator(
            low_carbon_machines, cba, GreedyPolicy()
        ).run(long_job_workload)
        assert frozen.total_energy_j() == pytest.approx(
            plain.total_energy_j(), rel=1e-6
        )
        assert frozen.total_cost() == pytest.approx(plain.total_cost(), rel=1e-6)

    def test_time_invariant_method_never_migrates(
        self, low_carbon_machines, long_job_workload
    ):
        """Under EBA nothing changes with the clock, so migrating and
        plain runs coincide."""
        eba = EnergyBasedAccounting()
        migrating = MigratingSimulator(
            low_carbon_machines, eba, GreedyPolicy(), min_saving=0.05
        ).run(long_job_workload)
        plain = MultiClusterSimulator(
            low_carbon_machines, eba, GreedyPolicy()
        ).run(long_job_workload)
        assert migrating.total_cost() == pytest.approx(plain.total_cost(), rel=1e-6)

    def test_validation(self, low_carbon_machines):
        cba = CarbonBasedAccounting()
        with pytest.raises(ValueError):
            MigratingSimulator(
                low_carbon_machines, cba, GreedyPolicy(), reevaluate_every_s=0
            )
        with pytest.raises(ValueError):
            MigratingSimulator(low_carbon_machines, cba, GreedyPolicy(), overhead_s=-1)
        with pytest.raises(ValueError):
            MigratingSimulator(low_carbon_machines, cba, GreedyPolicy(), min_saving=1.0)
        # NaN passes ``<= 0`` / ``< 0`` checks: a NaN period never
        # advances the tick clock (run() hangs), and a NaN overhead
        # makes every move probe NaN (silently no migrations).
        nan = float("nan")
        with pytest.raises(ValueError):
            MigratingSimulator(
                low_carbon_machines, cba, GreedyPolicy(), reevaluate_every_s=nan
            )
        with pytest.raises(ValueError):
            MigratingSimulator(low_carbon_machines, cba, GreedyPolicy(), overhead_s=nan)
        with pytest.raises(ValueError):
            MigratingSimulator(low_carbon_machines, cba, GreedyPolicy(), min_saving=nan)

    def test_infinite_period_never_reevaluates(
        self, low_carbon_machines, long_job_workload
    ):
        """``reevaluate_every_s=inf`` is legal: no tick ever fires, so
        the run matches the plain engine's totals."""
        cba = CarbonBasedAccounting()
        frozen = MigratingSimulator(
            low_carbon_machines, cba, GreedyPolicy(), reevaluate_every_s=float("inf")
        ).run(long_job_workload)
        plain = MultiClusterSimulator(
            low_carbon_machines, cba, GreedyPolicy()
        ).run(long_job_workload)
        assert frozen.n_jobs == plain.n_jobs
        assert frozen.total_cost() == pytest.approx(plain.total_cost(), rel=1e-6)


class TestTiedTargetsFirstEligibleWins:
    """Exactly tied move targets: the decision walk keeps the *first*
    machine in the job's own eligibility order that reaches the minimum
    move cost."""

    @pytest.fixture()
    def tied_world(self, low_carbon_machines):
        """Home on a dirty grid plus two bit-identical clean clones.

        CloneA and CloneB share one node spec, one intensity trace
        object, and (below) identical per-job runtimes/energies, so
        their move probes are equal to the last bit and every migration
        decision is a tie between them.
        """
        base = low_carbon_machines["FASTER"]
        hours = 21 * 24
        dirty = CarbonIntensityTrace("dirty", np.full(hours, 900.0))
        clean = CarbonIntensityTrace("clean", np.full(hours, 20.0))

        def clone(name, trace):
            return dataclasses.replace(
                base,
                node=dataclasses.replace(base.node, name=name),
                intensity=trace,
            )

        machines = {
            "Home": clone("Home", dirty),
            "CloneA": clone("CloneA", clean),
            "CloneB": clone("CloneB", clean),
        }
        jobs = [
            Job(
                job_id=i,
                user=i,
                cores=4,
                submit_s=0.0,
                # Eligibility order: Home, CloneA, CloneB — the scalar
                # walk must settle on CloneA.
                runtime_s={
                    "Home": 10 * 3600.0,
                    "CloneA": 10 * 3600.0,
                    "CloneB": 10 * 3600.0,
                },
                energy_j={"Home": 5e8, "CloneA": 5e8, "CloneB": 5e8},
            )
            for i in range(6)
        ]
        workload = Workload(
            jobs=jobs, config=WorkloadConfig(), machines=list(machines)
        )
        return machines, workload

    def _sim(self, machines):
        return MigratingSimulator(
            machines,
            CarbonBasedAccounting(),
            FixedMachinePolicy("Home"),
            min_saving=0.05,
            overhead_s=30.0,
        )

    def test_tied_targets_bit_identical_and_first_eligible_wins(self, tied_world):
        machines, workload = tied_world
        reference = seed_migration_run(
            machines,
            CarbonBasedAccounting(),
            FixedMachinePolicy("Home"),
            workload,
            min_saving=0.05,
            overhead_s=30.0,
        )
        result = self._sim(machines).run(workload)
        assert result.outcomes == reference.outcomes
        # The tie must actually occur and resolve to the first-eligible
        # clone, or this proves nothing about tie-breaking.
        finals = {o.machine for o in reference.outcomes}
        assert finals == {"CloneA"}

    def test_job_eligibility_order_not_fleet_order_breaks_the_tie(self, tied_world):
        """Jobs that list CloneB before CloneA settle on CloneB, though
        the fleet still lists CloneA first."""
        machines, workload = tied_world
        order = ("Home", "CloneB", "CloneA")
        jobs = [
            dataclasses.replace(
                job,
                runtime_s={m: job.runtime_s[m] for m in order},
                energy_j={m: job.energy_j[m] for m in order},
            )
            for job in workload.jobs
        ]
        assert list(machines) == ["Home", "CloneA", "CloneB"]
        assert all(job.eligible_machines == list(order) for job in jobs)
        swapped = Workload(
            jobs=jobs, config=workload.config, machines=workload.machines
        )
        result = self._sim(machines).run(swapped)
        assert {o.machine for o in result.outcomes} == {"CloneB"}


class TestStaleFinishes:
    """A preempted segment's finish event stays in the calendar; the
    simulator drops it by the job's segment generation, not by how close
    its time is to the live segment's end."""

    RUNTIME_S = 10 * 3600.0
    #: Tiny enough that the round trip below ends within 1e-6 s of the
    #: first segment's scheduled end.
    OVERHEAD_S = 4e-7

    @pytest.fixture()
    def round_trip(self, low_carbon_machines):
        """One job that runs on A, moves to B at the first tick (A's grid
        turns dirty for hour 1) and back to A at the second (hour 2)."""
        base = low_carbon_machines["FASTER"]
        a = np.full(24, 20.0)
        a[1] = 900.0
        b = np.full(24, 900.0)
        b[1] = 20.0

        def clone(name, hourly):
            return dataclasses.replace(
                base,
                node=dataclasses.replace(base.node, name=name),
                intensity=CarbonIntensityTrace(name, hourly),
            )

        machines = {"A": clone("A", a), "B": clone("B", b)}
        job = Job(
            job_id=7,
            user=1,
            cores=4,
            submit_s=0.0,
            runtime_s={"A": self.RUNTIME_S, "B": self.RUNTIME_S},
            energy_j={"A": 5e8, "B": 5e8},
        )
        workload = Workload(jobs=[job], config=WorkloadConfig(), machines=["A", "B"])
        return machines, workload

    def expected_end(self):
        """The live segment's end, by the simulator's own float steps."""
        runtime, overhead = self.RUNTIME_S, self.OVERHEAD_S
        # Segment 1 on A over [0, runtime]; the tick at 3600 s moves it.
        rem = 1.0 - 1.0 * ((3600.0 - 0.0) / (runtime - 0.0))
        end_b = 3600.0 + (runtime * rem + overhead)
        # Segment 2 on B; the tick at 7200 s moves it back to A.
        frac_done = rem * ((7200.0 - 3600.0) / (end_b - 3600.0))
        rem = rem - frac_done
        return 7200.0 + (runtime * rem + overhead)

    def test_round_trip_settles_once_at_the_live_end(self, round_trip, monkeypatch):
        machines, workload = round_trip
        billed: list[str] = []
        add = SegmentLedger.add

        def counting(self, machine, *args):
            billed.append(machine)
            return add(self, machine, *args)

        monkeypatch.setattr(SegmentLedger, "add", counting)
        sim = MigratingSimulator(
            machines,
            CarbonBasedAccounting(),
            FixedMachinePolicy("A"),
            min_saving=0.05,
            overhead_s=self.OVERHEAD_S,
        )
        result = sim.run(workload)
        end = self.expected_end()
        # The stale finish of segment 1 (at the full runtime) pops first
        # and within 1e-6 s of the live end: a time tolerance took it.
        assert 0.0 < end - self.RUNTIME_S < 1e-6
        assert result.n_jobs == 1
        (outcome,) = result.outcomes
        assert outcome.machine == "A"
        assert outcome.end_s == end
        # Three segments were billed: A, B, and A again.
        assert billed == ["A", "B", "A"]


class TestDeepConcurrencyWalk:
    """Ticks over dozens of running jobs take the same decision walk as
    small ones, and still match the seed loop bit for bit."""

    N_JOBS = 128
    #: Running jobs a tick must see for this case to count as deep.
    DEEP = 48

    @pytest.fixture(scope="class")
    def deep_world(self):
        """128 narrow jobs, one user each, all submitted in the first
        80 minutes and running for hours, with per-machine runtimes and
        energies that differ by job.  Only the wide machines are
        eligible, so no queue on a small one caps the running set."""
        machines = low_carbon_scenario(days=20, seed=0)
        names = [m for m in machines if machines[m].total_cores >= 500]
        jobs = []
        for i in range(self.N_JOBS):
            runtimes = {
                m: 3600.0 * (2 + i % 7) * (1.0 + 0.15 * ((i + mi) % 4))
                for mi, m in enumerate(names)
            }
            energies = {
                m: 1e6 * (1 + i % 5) * (1.0 + 0.2 * ((i * 3 + mi) % 5))
                for mi, m in enumerate(names)
            }
            jobs.append(
                Job(
                    job_id=i,
                    user=i,
                    cores=1 + i % 3,
                    submit_s=i * (80 * 60.0 / self.N_JOBS),
                    runtime_s=runtimes,
                    energy_j=energies,
                )
            )
        workload = Workload(jobs=jobs, config=WorkloadConfig(), machines=names)
        return machines, workload

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_deep_ticks_walk_and_match_seed(self, deep_world, method, monkeypatch):
        machines, workload = deep_world
        walked: list[int] = []
        reevaluate = _MigrationRun._reevaluate

        def counting(self, clusters, now):
            walked.append(sum(len(c.running) for c in clusters))
            return reevaluate(self, clusters, now)

        monkeypatch.setattr(_MigrationRun, "_reevaluate", counting)
        result = MigratingSimulator(
            machines, method, GreedyPolicy(), min_saving=0.05
        ).run(workload)
        reference = seed_migration_run(
            machines, method, GreedyPolicy(), workload, min_saving=0.05
        )
        assert_results_identical(result, reference)
        assert max(walked) >= self.DEEP
        if method.name == "CBA":
            # Prices that follow the grid make jobs move mid-run, so the
            # walk's preempt/requeue order is exercised too.
            assert reference.total_migrations > 0
