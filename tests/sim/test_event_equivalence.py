"""Event-order equivalence: the indexed event core vs the seed loops.

The indexed ready-queue and the shared :class:`EventCalendar` claim to
be pure mechanism swaps: every start decision, event ordering, and
priced outcome must be **bit-identical** to the seed implementations
(per-simulator heaps + an always-rescanned backfill window).  This
module asserts exact equality of the resulting tables against faithful
ports of those seed loops — the shared engine oracle in
``seed_oracle.py`` and the migration port kept here — for the engine,
the migration simulator (batched and unbatched), and the shifting
wrapper, across all five accounting methods, plus a randomized
op-sequence property test on the ready-queue itself.

The ports use the *fixed* committed-core-seconds heuristic (running
remainders, not full runtimes), so the comparison isolates the
scheduling machinery from that intentional behaviour change.
"""

import dataclasses
import heapq
import random

import pytest

from repro.accounting.base import UsageRecord
from repro.accounting.methods import CarbonBasedAccounting, all_methods
from repro.sim.cluster import ClusterSim
from repro.sim.engine import (
    MultiClusterSimulator,
    SimulationResult,
    pricing_for_sim_machine,
)
from repro.sim.job import Job, JobOutcome
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import (
    EFTPolicy,
    GreedyPolicy,
    LargestFirstPolicy,
    MachineView,
    MixedPolicy,
)
from repro.sim.shifting import ShiftingSimulator, TemporalShiftPlanner
from repro.sim.workload import Workload, WorkloadConfig, PatelWorkloadGenerator
from repro.units import operational_carbon_g
from seed_oracle import SeedCluster, assert_results_identical, seed_engine_run

_ARRIVAL = 0
_FINISH = 1
_REEVALUATE = 2


# ---------------------------------------------------------------------------
# Seed ports
# ---------------------------------------------------------------------------
class _SeedProgress:
    __slots__ = (
        "job", "remaining_fraction", "energy_j", "cost", "operational_g",
        "attributed_g", "first_start_s", "migrations", "segment_start_s",
        "segment_machine", "is_continuation",
    )

    def __init__(self, job):
        self.job = job
        self.remaining_fraction = 1.0
        self.energy_j = 0.0
        self.cost = 0.0
        self.operational_g = 0.0
        self.attributed_g = 0.0
        self.first_start_s = None
        self.migrations = 0
        self.segment_start_s = 0.0
        self.segment_machine = ""
        self.is_continuation = False


def seed_migration_run(
    machines,
    method,
    policy,
    workload,
    reevaluate_every_s=3600.0,
    overhead_s=300.0,
    min_saving=0.2,
) -> SimulationResult:
    """Port of the seed migration loop: every arrival in the heap,
    scalar probe pricing, immediate per-segment charging."""
    pricings = {n: pricing_for_sim_machine(m) for n, m in machines.items()}
    carbon = CarbonBasedAccounting()
    clusters = {n: SeedCluster(m) for n, m in machines.items()}
    progress = {job.job_id: _SeedProgress(job) for job in workload.jobs}
    pending_runtime: dict[int, float] = {}

    def segment_record(job, machine, start_s, fraction, with_overhead):
        runtime = job.runtime_s[machine] * fraction
        energy = job.energy_j[machine] * fraction
        if with_overhead:
            runtime += overhead_s
            energy += (
                machines[machine].idle_watts_per_core * job.cores * overhead_s
            )
        return UsageRecord(
            machine=machine,
            duration_s=runtime,
            energy_j=energy,
            cores=job.cores,
            start_time_s=start_s,
        )

    def charge_segment(state, fraction, with_overhead):
        record = segment_record(
            state.job, state.segment_machine, state.segment_start_s,
            fraction, with_overhead,
        )
        pricing = pricings[state.segment_machine]
        intensity = machines[state.segment_machine].intensity.at(
            state.segment_start_s
        )
        operational = operational_carbon_g(record.energy_j, intensity)
        state.energy_j += record.energy_j
        state.cost += method.charge(record, pricing)
        state.operational_g += operational
        state.attributed_g += operational + carbon.embodied_charge(
            record, pricing
        )

    events: list[tuple[float, int, int, object]] = []
    seq = 0

    def push(time_s, kind, payload):
        nonlocal seq
        heapq.heappush(events, (time_s, kind, seq, payload))
        seq += 1

    for job in workload.jobs:
        push(job.submit_s, _ARRIVAL, job)
    if workload.jobs:
        push(workload.jobs[0].submit_s + reevaluate_every_s, _REEVALUATE, None)

    finish_log: list[tuple[int, float]] = []
    active = len(workload.jobs)

    def try_start(cluster, now):
        for job in cluster.startable(now):
            state = progress[job.job_id]
            if state.first_start_s is None:
                state.first_start_s = now
            state.segment_start_s = now
            state.segment_machine = cluster.name
            state.is_continuation = job.job_id in pending_runtime
            runtime = pending_runtime.get(job.job_id, job.runtime_s[cluster.name])
            end = now + runtime
            cluster.reschedule_end(job.job_id, end)
            push(end, _FINISH, (cluster.name, job.job_id))

    def reevaluate(now):
        moved_any = False
        for cluster in clusters.values():
            for job_id in list(cluster.running):
                state = progress[job_id]
                job = state.job
                end_s = cluster.running[job_id].end_s
                segment_total = end_s - state.segment_start_s
                if segment_total <= 0 or now >= end_s - 1e-9:
                    continue
                done_of_segment = (now - state.segment_start_s) / segment_total
                if done_of_segment <= 0:
                    continue
                frac_done = state.remaining_fraction * done_of_segment
                remaining = state.remaining_fraction - frac_done
                if remaining <= 0.05:
                    continue
                probe = _SeedProgress(job)
                probe.remaining_fraction = remaining
                probe.segment_start_s = now
                probe.segment_machine = cluster.name
                stay = method.charge(
                    segment_record(job, cluster.name, now, remaining, False),
                    pricings[cluster.name],
                )
                best_name, best_cost = None, stay
                for name in job.eligible_machines:
                    if name == cluster.name or name not in clusters:
                        continue
                    cost = method.charge(
                        segment_record(job, name, now, remaining, True),
                        pricings[name],
                    )
                    if cost < best_cost:
                        best_name, best_cost = name, cost
                if best_name is None or best_cost > stay * (1.0 - min_saving):
                    continue
                charge_segment(state, frac_done, state.is_continuation)
                state.remaining_fraction = remaining
                state.migrations += 1
                cluster.finish(job_id)
                pending_runtime[job_id] = (
                    job.runtime_s[best_name] * remaining + overhead_s
                )
                clusters[best_name].enqueue(job)
                moved_any = True
        return moved_any

    while events and active > 0:
        now, kind, _, payload = heapq.heappop(events)
        if kind == _ARRIVAL:
            job = payload
            views = [
                MachineView(
                    machine=name,
                    runtime_s=job.runtime_s[name],
                    energy_j=job.energy_j[name],
                    queue_wait_s=clusters[name].estimated_wait_s(now),
                    cost=method.charge(
                        segment_record(job, name, now, 1.0, False),
                        pricings[name],
                    ),
                )
                for name in job.eligible_machines
                if name in clusters
            ]
            if not views:
                active -= 1
                continue
            choice = policy.select(job, views)
            clusters[choice].enqueue(job)
            try_start(clusters[choice], now)
        elif kind == _FINISH:
            machine_name, job_id = payload
            cluster = clusters[machine_name]
            entry = cluster.running.get(job_id)
            if entry is None or abs(entry.end_s - now) > 1e-6:
                continue
            cluster.finish(job_id)
            state = progress[job_id]
            charge_segment(state, state.remaining_fraction, state.is_continuation)
            state.remaining_fraction = 0.0
            pending_runtime.pop(job_id, None)
            finish_log.append((job_id, now))
            active -= 1
            try_start(cluster, now)
        else:
            if reevaluate(now):
                for cluster in clusters.values():
                    try_start(cluster, now)
            if active > 0:
                push(now + reevaluate_every_s, _REEVALUATE, None)

    outcomes = []
    for job_id, end_s in finish_log:
        state = progress[job_id]
        job = state.job
        outcomes.append(
            JobOutcome(
                job_id=job.job_id,
                user=job.user,
                machine=state.segment_machine,
                cores=job.cores,
                submit_s=job.submit_s,
                start_s=(
                    state.first_start_s
                    if state.first_start_s is not None
                    else end_s
                ),
                end_s=end_s,
                energy_j=state.energy_j,
                cost=state.cost,
                work_core_hours=job.work_core_hours,
                operational_carbon_g=state.operational_g,
                attributed_carbon_g=state.attributed_g,
            )
        )
    result = SimulationResult(
        policy=f"{policy.name}+migrate",
        method=method.name,
        machines=list(machines),
        outcomes=outcomes,
    )
    result.total_migrations = sum(s.migrations for s in progress.values())
    return result


# ---------------------------------------------------------------------------
# Property test: the indexed ready-queue vs the always-scan cluster
# ---------------------------------------------------------------------------
class TestReadyQueueEquivalence:
    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cap", [None, 3], ids=["uncapped", "cap3"])
    def test_random_sequences_match_seed_scan(
        self, sim_machines, window, seed, cap
    ):
        machine = dataclasses.replace(
            sim_machines["IC"], max_concurrent_jobs=cap
        )  # 576 cores
        rng = random.Random(97 * seed + window)
        new = ClusterSim(machine, backfill_window=window)
        ref = SeedCluster(machine, backfill_window=window)
        now = 0.0
        next_id = 0
        for _ in range(400):
            now += rng.random() * 400.0
            roll = rng.random()
            if roll < 0.55:
                job = Job(
                    job_id=next_id,
                    user=rng.randrange(5),
                    cores=rng.choice([8, 48, 240, 576]),
                    submit_s=now,
                    runtime_s={"IC": 10.0 + rng.random() * 2000.0},
                    energy_j={"IC": 1e3},
                )
                next_id += 1
                new.enqueue(job)
                ref.enqueue(job)
            elif roll < 0.85 and new.running:
                jid = min(
                    new.running, key=lambda k: (new.running[k].end_s, k)
                )
                assert new.finish(jid).job_id == ref.finish(jid).job_id
            started_new = new.startable(now)
            started_ref = ref.startable(now)
            assert [j.job_id for j in started_new] == [
                j.job_id for j in started_ref
            ]
            assert new.free_cores == ref.free_cores
            assert new.queue_length == len(ref.queue)
            assert new.estimated_wait_s(now) == ref.estimated_wait_s(now)


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
        batched = MigratingSimulator(
            machines, method, GreedyPolicy(), min_saving=0.15
        ).run(wl)
        scalar = MigratingSimulator(
            machines,
            method,
            GreedyPolicy(),
            min_saving=0.15,
            batched=False,
        ).run(wl)
        assert_results_identical(batched, reference)
        assert_results_identical(scalar, reference)

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "tick_min,probe_min",
        [(0, 0), (0, 10**9)],
        ids=[
            "columnar-collect+columnar-probes+argmin-decisions",
            "columnar-collect+scalar-probes+scalar-decisions",
        ],
    )
    def test_running_table_regimes_bit_identical(
        self, low_carbon_machines, migration_workload, method, tick_min, probe_min
    ):
        """The columnar RunningTable tick, forced on for every
        re-evaluation (the adaptive thresholds would otherwise leave it
        idle at this workload's concurrency), in both regimes: fully
        columnar (charge_many probe matrix + masked-argmin decisions
        with elig_rank tie-breaking) and scalar probes with the
        per-candidate decision walk — all five methods, exact equality
        with the seed loop."""
        reference = seed_migration_run(
            low_carbon_machines,
            method,
            GreedyPolicy(),
            migration_workload,
            min_saving=0.15,
        )
        sim = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.15
        )
        sim.tick_vector_min = tick_min
        sim.probe_vector_min = probe_min
        assert_results_identical(sim.run(migration_workload), reference)

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_multi_tick_batches_bit_identical(
        self, low_carbon_machines, migration_workload, method
    ):
        """Batched multi-tick re-evaluation: when the calendar shows no
        arrival/finish between consecutive ticks, the columnar regime
        prices the whole quiet run in one flattened pass.  Forced on
        (thresholds zeroed) it must equal both the same forced-columnar
        simulator with batching disabled (``multi_tick_max=1``) and the
        seed loop exactly, for all five methods — and the batch path
        must actually engage, or this proves nothing."""
        reference = seed_migration_run(
            low_carbon_machines,
            method,
            GreedyPolicy(),
            migration_workload,
            min_saving=0.15,
        )
        multi = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.15
        )
        multi.tick_vector_min = 0
        multi.probe_vector_min = 0
        single = MigratingSimulator(
            low_carbon_machines, method, GreedyPolicy(), min_saving=0.15
        )
        single.tick_vector_min = 0
        single.probe_vector_min = 0
        single.multi_tick_max = 1
        multi_result = multi.run(migration_workload)
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
