"""The migration extension (§7 limitation, lifted)."""

import dataclasses

import numpy as np
import pytest

from repro.accounting.methods import (
    CarbonBasedAccounting,
    EnergyBasedAccounting,
    all_methods,
)
from repro.accounting.pricing import QuoteTable
from repro.carbon.intensity import CarbonIntensityTrace
from repro.sim.engine import MultiClusterSimulator, pricing_for_sim_machine
from repro.sim.job import Job, JobBlock
from repro.sim import migration
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import FixedMachinePolicy, GreedyPolicy
from repro.sim.workload import (
    PatelWorkloadGenerator,
    Workload,
    WorkloadConfig,
)
from seed_oracle import seed_migration_run


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


class TestVectorizedDecisionTieBreak:
    """Exactly tied move targets: the masked-argmin decision pass must
    pick the scalar walk's winner — the *first* machine in the job's own
    eligibility order that reaches the minimum move cost."""

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

    def test_tied_targets_bit_identical_and_first_eligible_wins(
        self, tied_world, monkeypatch
    ):
        machines, workload = tied_world
        reference = seed_migration_run(
            machines,
            CarbonBasedAccounting(),
            FixedMachinePolicy("Home"),
            workload,
            min_saving=0.05,
            overhead_s=30.0,
        )
        monkeypatch.setattr(migration, "VECTOR_MIN", 0)
        result = self._sim(machines).run(workload)
        assert result.outcomes == reference.outcomes
        # The tie must actually occur and resolve to the first-eligible
        # clone, or this proves nothing about argmin tie-breaking.
        finals = {o.machine for o in reference.outcomes}
        assert finals == {"CloneA"}


class TestRunningTableLiveRows:
    """Dense live-row layout of the running table.

    Rows ``[0, len(table))`` are all live; ``remove`` fills the hole it
    leaves by swapping the last row down.  ``candidates`` must therefore
    do zero work proportional to dead capacity — high-churn runs used to
    pay for their slot-array high-water mark on every tick (bounded, but
    not eliminated, by the old compaction heuristic)."""

    def _build(self, n):
        from repro.sim.migration import RunningTable

        table = RunningTable()
        sentinels = {}
        for i in range(n):
            state = object()
            sentinels[i] = state
            table.add(
                job_id=i,
                job_row=i,
                machine_idx=i % 4,
                start_s=0.0,
                end_s=1000.0 + i,
                remaining_fraction=1.0,
                state=state,
            )
        return table, sentinels

    def _churn(self, table, n, keep_every=16):
        for i in range(n):
            if i % keep_every:
                table.remove(i)

    def test_candidates_touch_only_live_rows(self):
        """The scan-free contract: after heavy churn a scan visits
        exactly the live rows, never the 512-row high-water mark."""
        table, _ = self._build(512)
        self._churn(table, 512)
        live = 512 // 16
        assert len(table) == live
        _, rows, _, _ = table.candidates([500.0])
        assert table.last_scan_rows == live
        assert len(rows) == live
        assert int(rows.max()) < live

    def test_remove_swaps_last_row_into_hole(self):
        table, sentinels = self._build(4)
        table.remove(1)
        assert len(table) == 3
        row = table._slot_of[3]
        assert row == 1
        assert table.job_id[row] == 3
        assert table.states[row] is sentinels[3]

    def test_swap_removal_is_invisible_to_the_scan(self):
        """(job, remaining, frac_done) from a churned table equals the
        per-survivor scalar math, in (machine, seq) candidate order."""
        table, _ = self._build(512)
        self._churn(table, 512)
        _, rows, remaining, frac_done = table.candidates([500.0])
        got = [
            (int(table.job_id[r]), float(rem), float(f))
            for r, rem, f in zip(rows, remaining, frac_done)
        ]
        survivors = sorted(
            (i for i in range(512) if i % 16 == 0),
            key=lambda i: (i % 4, i),  # (machine, insertion seq)
        )
        expected = []
        for i in survivors:
            done = (500.0 - 0.0) / ((1000.0 + i) - 0.0)
            frac = 1.0 * done
            expected.append((i, 1.0 - frac, frac))
        assert got == expected

    def test_capacity_shrinks_as_an_allocator_detail(self):
        from repro.sim.migration import COMPACT_MIN_CAPACITY

        table, _ = self._build(512)
        assert len(table.machine) >= 512
        self._churn(table, 512)
        assert table.shrinks >= 1
        assert len(table.machine) < 512
        assert len(table.machine) >= COMPACT_MIN_CAPACITY

    def test_table_stays_consistent_after_churn(self):
        table, sentinels = self._build(512)
        self._churn(table, 512)
        live = sorted(table._slot_of)
        assert live == [i for i in range(512) if i % 16 == 0]
        for job_id, row in table._slot_of.items():
            assert row < len(table)
            assert table.job_id[row] == job_id
            assert table.machine[row] == job_id % 4
            assert table.end[row] == 1000.0 + job_id
            assert table.states[row] is sentinels[job_id]
        # Adds keep working off the shrunk arrays.
        table.add(
            job_id=9000,
            job_row=9000,
            machine_idx=1,
            start_s=0.0,
            end_s=5000.0,
            remaining_fraction=1.0,
            state=object(),
        )
        assert 9000 in table._slot_of
        assert len(table) == len(live) + 1
        assert table.job_id[table._slot_of[9000]] == 9000


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

    @pytest.mark.parametrize("vector_min", [migration.VECTOR_MIN, 0])
    def test_round_trip_settles_once_at_the_live_end(
        self, round_trip, vector_min, monkeypatch
    ):
        monkeypatch.setattr(migration, "VECTOR_MIN", vector_min)
        machines, workload = round_trip
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
        assert len(sim._ledger) == 3
