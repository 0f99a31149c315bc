"""Event-order equivalence: the indexed event core vs the seed loops.

The indexed ready-queue and the shared :class:`EventCalendar` claim to
be pure mechanism swaps: every start decision, event ordering, and
priced outcome must be **bit-identical** to the seed implementations
(per-simulator heaps + an always-rescanned backfill window).  This
module asserts exact equality of the resulting tables against faithful
ports of those seed loops — the engine and migration oracles in
``seed_oracle.py`` — for the engine, the migration simulator (both
re-evaluation paths), and the shifting wrapper, across all five
accounting methods, plus a randomized op-sequence property test on the
ready-queue itself.

The ports use the *fixed* committed-core-seconds heuristic (running
remainders, not full runtimes), so the comparison isolates the
scheduling machinery from that intentional behaviour change.
"""

import dataclasses
import random

import pytest

from repro.accounting.methods import CarbonBasedAccounting, all_methods
from repro.sim import migration
from repro.sim.cluster import ClusterSim
from repro.sim.engine import MultiClusterSimulator
from repro.sim.job import Job
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import (
    EFTPolicy,
    GreedyPolicy,
    LargestFirstPolicy,
    MixedPolicy,
)
from repro.sim.shifting import ShiftingSimulator, TemporalShiftPlanner
from repro.sim.workload import Workload, WorkloadConfig, PatelWorkloadGenerator
from seed_oracle import (
    SeedCluster,
    assert_results_identical,
    seed_engine_run,
    seed_migration_run,
)


# ---------------------------------------------------------------------------
# Property test: the indexed ready-queue vs the always-scan cluster
# ---------------------------------------------------------------------------
def _queue_ids(cluster: ClusterSim) -> list[int]:
    """The full queue order of ``cluster``: the window, then the backlog."""
    ready = cluster._ready
    return [e[0] for e in ready.window] + [e[0] for e in ready.backlog]


def _entry(job: Job, machine: str = "IC") -> tuple[int, int, int, float]:
    """``job``'s queue entry on ``machine`` (the seed cluster takes the job)."""
    return (job.job_id, job.user, job.cores, job.runtime_s[machine])


def _assert_same_starts(started_new, started_ref, ref: SeedCluster) -> None:
    """Same jobs started, in the same order, with the same end times."""
    assert [job_id for job_id, _ in started_new] == [j.job_id for j in started_ref]
    assert [end for _, end in started_new] == [
        ref.running[j.job_id].end_s for j in started_ref
    ]


def _assert_same_state(new: ClusterSim, ref: SeedCluster, now: float) -> None:
    assert new.free_cores == ref.free_cores
    assert _queue_ids(new) == [j.job_id for j in ref.queue]
    assert new.queue_length == len(ref.queue)
    assert new.estimated_wait_s(now) == ref.estimated_wait_s(now)


class TestReadyQueueEquivalence:
    #: (enqueue below, finish below, steps, least queue length in windows)
    @pytest.mark.parametrize(
        "mix",
        [(0.55, 0.85, 400, 0), (0.9, 0.97, 900, 4)],
        ids=["balanced", "backlogged"],
    )
    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cap", [None, 3], ids=["uncapped", "cap3"])
    def test_random_sequences_match_seed_scan(
        self, sim_machines, window, seed, cap, mix
    ):
        enqueue_p, finish_p, steps, outgrows = mix
        machine = dataclasses.replace(
            sim_machines["IC"], max_concurrent_jobs=cap
        )  # 576 cores
        rng = random.Random(97 * seed + window)
        new = ClusterSim(machine, backfill_window=window)
        ref = SeedCluster(machine, backfill_window=window)
        now = 0.0
        next_id = 0
        longest = 0
        for _ in range(steps):
            now += rng.random() * 400.0
            roll = rng.random()
            if roll < enqueue_p:
                job = Job(
                    job_id=next_id,
                    user=rng.randrange(5),
                    cores=rng.choice([8, 48, 240, 576]),
                    submit_s=now,
                    runtime_s={"IC": 10.0 + rng.random() * 2000.0},
                    energy_j={"IC": 1e3},
                )
                next_id += 1
                new.enqueue(_entry(job))
                ref.enqueue(job)
            elif roll < finish_p and new.running:
                jid = min(new.running, key=lambda k: (new.running[k][1], k))
                assert new.finish(jid)[0] == ref.finish(jid).job_id
            started_new = new.startable(now)
            started_ref = ref.startable(now)
            _assert_same_starts(started_new, started_ref, ref)
            _assert_same_state(new, ref, now)
            longest = max(longest, len(ref.queue))
        # Backlogged runs really exercise the backlog: the queue
        # outgrows the window several times over.
        assert longest >= outgrows * window

    @pytest.mark.parametrize("cap", [None, 2], ids=["uncapped", "cap2"])
    def test_shifted_in_job_waits_for_the_next_scan(self, sim_machines, cap):
        """A start that pulls a fitting job from the backlog into the
        window does not start it in the same scan — the seed's scan had
        already passed that slot — but the next scan does."""
        machine = dataclasses.replace(sim_machines["IC"], max_concurrent_jobs=cap)
        new = ClusterSim(machine, backfill_window=2)
        ref = SeedCluster(machine, backfill_window=2)

        def make(job_id, user, cores):
            return Job(job_id, user, cores, 0.0, {"IC": 100.0}, {"IC": 1e3})

        for job in (make(1, 1, 500), make(2, 1, 8), make(3, 2, 8)):
            new.enqueue(_entry(job))
            ref.enqueue(job)
        # Job 1 starts; job 2 waits on its user; job 3 shifts in and fits.
        for now, expected in ((0.0, [1]), (1.0, [3])):
            started_new = new.startable(now)
            started_ref = ref.startable(now)
            assert [j.job_id for j in started_ref] == expected
            _assert_same_starts(started_new, started_ref, ref)
            _assert_same_state(new, ref, now)
        assert new._ready.synced

    def test_scan_reads_only_the_window_and_the_shifted_in(self, sim_machines):
        """O(window) per scan: on a 10,000-job queue one ``startable``
        call reads the fields of at most ``window + len(started)`` jobs
        and leaves the backlog deque in place instead of rebuilding it."""
        touched: set[int] = set()

        class CountingEntry(tuple):
            """A queue entry that records every read of its fields
            (unpacking a tuple subclass goes through ``__iter__``)."""

            def __iter__(self):
                touched.add(tuple.__getitem__(self, 0))
                return tuple.__iter__(self)

            def __getitem__(self, index):
                touched.add(tuple.__getitem__(self, 0))
                return tuple.__getitem__(self, index)

        window = 64
        cluster = ClusterSim(sim_machines["IC"], backfill_window=window)
        for i in range(10_000):
            # Every 16th job fits beside the others (32 cores, one user
            # each); the rest ask for the whole machine.
            cores = 32 if i % 16 == 0 else 576
            cluster.enqueue(CountingEntry((i, i, cores, 100.0)))
        backlog = cluster._ready.backlog
        touched.clear()
        started = cluster.startable(0.0)
        assert len(started) > 0
        # The scan reads at least the jobs it started (the counter works)
        # and at most the window plus the jobs shifted in behind them.
        assert len(started) <= len(touched) <= window + len(started)
        assert cluster._ready.backlog is backlog
        assert cluster.queue_length == 10_000 - len(started)


# ---------------------------------------------------------------------------
# Full-simulator equivalence
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def migration_workload(low_carbon_machines):
    cfg = WorkloadConfig(
        n_base_jobs=120, n_users=30, seed=2, runtime_median_s=4 * 3600.0
    )
    return PatelWorkloadGenerator(low_carbon_machines, cfg).generate()


@pytest.fixture(scope="module", params=["baseline", "tiered"])
def engine_case(request, sim_machines, small_workload, tiered_machines, tiered_workload):
    """(machines, workload) pairs the engine equivalence runs over.

    ``tiered`` covers heterogeneous tiers: skewed core counts, per-tier
    concurrency caps (mirrored by :class:`SeedCluster`), and
    straggler-inflated runtimes.
    """
    if request.param == "baseline":
        return sim_machines, small_workload
    return tiered_machines, tiered_workload


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "policy",
        [GreedyPolicy(), EFTPolicy(), MixedPolicy(), LargestFirstPolicy()],
        ids=lambda p: p.name,
    )
    def test_bit_identical_to_seed_loop(self, engine_case, method, policy):
        machines, wl = engine_case
        reference = seed_engine_run(machines, method, policy, wl)
        result = MultiClusterSimulator(machines, method, policy).run(wl)
        assert_results_identical(result, reference)


@pytest.fixture(scope="module", params=["low-carbon", "tiered"])
def migration_case(
    request,
    low_carbon_machines,
    migration_workload,
    tiered_machines,
    tiered_workload,
):
    """Fleets the migration equivalence runs over: the homogeneous
    low-carbon room and the tiered fleet (slot caps, straggler-inflated
    runtimes) — migrations must respect destination caps on both the
    seed port and the simulator."""
    if request.param == "low-carbon":
        return low_carbon_machines, migration_workload
    return tiered_machines, tiered_workload


class TestMigrationEquivalence:
    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_bit_identical_to_seed_loop(self, migration_case, method):
        machines, wl = migration_case
        reference = seed_migration_run(
            machines,
            method,
            GreedyPolicy(),
            wl,
            min_saving=0.15,
        )
        result = MigratingSimulator(
            machines, method, GreedyPolicy(), min_saving=0.15
        ).run(wl)
        assert_results_identical(result, reference)

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_running_table_regimes_bit_identical(
        self, low_carbon_machines, migration_workload, method, monkeypatch
    ):
        """The columnar collect/probe/decide pass, forced on for every
        re-evaluation (the crossover would otherwise leave it idle at
        this workload's concurrency): ``charge_many`` probe matrix and
        masked-argmin decisions with elig_rank tie-breaking — all five
        methods, exact equality with the seed loop."""
        reference = seed_migration_run(
            low_carbon_machines,
            method,
            GreedyPolicy(),
            migration_workload,
            min_saving=0.15,
        )
        monkeypatch.setattr(migration, "VECTOR_MIN", 0)
        sim = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.15
        )
        assert_results_identical(sim.run(migration_workload), reference)

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_multi_tick_batches_bit_identical(
        self, low_carbon_machines, migration_workload, method, monkeypatch
    ):
        """Multi-tick re-evaluation: when the calendar shows no
        arrival/finish between consecutive ticks, the columnar pass
        prices the whole quiet run at once.  Forced on (crossover
        zeroed) it must equal both the same forced-columnar simulator
        held to one tick per pass (``MULTI_TICK_MAX = 1``) and the seed
        loop exactly, for all five methods — and multi-tick passes must
        actually happen, or this proves nothing."""
        reference = seed_migration_run(
            low_carbon_machines,
            method,
            GreedyPolicy(),
            migration_workload,
            min_saving=0.15,
        )
        monkeypatch.setattr(migration, "VECTOR_MIN", 0)
        multi = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.15
        )
        multi_result = multi.run(migration_workload)
        monkeypatch.setattr(migration, "MULTI_TICK_MAX", 1)
        single = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.15
        )
        single_result = single.run(migration_workload)
        assert multi.multi_tick_batches > 0
        assert multi.multi_tick_ticks > multi.multi_tick_batches
        assert single.multi_tick_batches == 0
        assert_results_identical(multi_result, reference)
        assert_results_identical(single_result, reference)

    def test_migrations_actually_happen(
        self, low_carbon_machines, migration_workload
    ):
        """The equivalence above must exercise real migrations, or it
        proves nothing about preempt/requeue/stale-event ordering."""
        result = seed_migration_run(
            low_carbon_machines,
            CarbonBasedAccounting(),
            GreedyPolicy(),
            migration_workload,
            min_saving=0.15,
        )
        assert result.n_jobs == len(migration_workload)
        assert result.total_migrations > 0


class TestShiftingEquivalence:
    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_bit_identical_to_seed_loop(
        self, sim_machines, small_workload, method
    ):
        jobs = small_workload.jobs[:150]
        workload = Workload(
            jobs=jobs,
            config=small_workload.config,
            machines=small_workload.machines,
        )
        planner = TemporalShiftPlanner(sim_machines, method)
        shifted = [
            Job(
                job_id=j.job_id,
                user=j.user,
                cores=j.cores,
                submit_s=j.submit_s + planner.plan(j, j.submit_s).delay_s,
                runtime_s=j.runtime_s,
                energy_j=j.energy_j,
            )
            for j in jobs
        ]
        shifted.sort(key=lambda j: j.submit_s)
        reference = seed_engine_run(
            sim_machines,
            method,
            GreedyPolicy(),
            Workload(
                jobs=shifted,
                config=small_workload.config,
                machines=small_workload.machines,
            ),
        )
        result = ShiftingSimulator(sim_machines, method, GreedyPolicy()).run(
            workload
        )
        assert_results_identical(result, reference)
