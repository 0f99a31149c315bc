"""The simulators' reference oracles: faithful ports of the seed loops.

``seed_engine_run`` is the seed engine loop — one heap, per-record
``charge()`` pricing — and :class:`SeedCluster` the seed cluster that
rescans its backfill window on every call.  Every engine equivalence
test (event order, sweeps, tiered fleets) compares the vectorized
:class:`~repro.sim.engine.MultiClusterSimulator` against this one
reference, column for column.  ``seed_migration_run`` is the seed
migration loop (every arrival in the heap, scalar probe pricing,
immediate per-segment charging), the one reference for
:class:`~repro.sim.migration.MigratingSimulator`.

The port uses the *fixed* committed-core-seconds heuristic (running
remainders, not full runtimes), so the comparison isolates the
scheduling machinery from that intentional behaviour change.
"""

import heapq
from collections import deque

import numpy as np

from repro.accounting.base import UsageRecord
from repro.accounting.methods import CarbonBasedAccounting
from repro.accounting.pricing import OUTCOME_FIELDS
from repro.sim.cluster import _Running
from repro.sim.engine import SimulationResult, pricing_for_sim_machine
from repro.sim.job import Job, JobOutcome
from repro.sim.policies import MachineView
from repro.units import operational_carbon_g


class SeedCluster:
    """The seed ClusterSim: rescans the backfill window on every call.

    Committed-core-seconds bookkeeping replays the exact float-operation
    sequence of the new :class:`ClusterSim`, so wait estimates (and thus
    EFT/Mixed decisions) can be compared for bit-equality.
    """

    def __init__(self, machine, backfill_window: int = 64) -> None:
        self.machine = machine
        self.backfill_window = backfill_window
        self.name = machine.name
        self.total_cores = machine.total_cores
        self._capacity = max(1, self.total_cores)
        self.free_cores = self.total_cores
        self.queue: deque[Job] = deque()
        self.running: dict[int, _Running] = {}
        self._busy_users: set[int] = set()
        self._queued_core_s = 0.0
        self._running_cores = 0
        self._running_end_core_s = 0.0
        self.max_concurrent = machine.max_concurrent_jobs

    def estimated_wait_s(self, now: float) -> float:
        committed = self._queued_core_s + (
            self._running_end_core_s - now * self._running_cores
        )
        return committed / self._capacity if committed > 0.0 else 0.0

    def enqueue(self, job: Job) -> None:
        runtime = job.runtime_s[self.name]
        self.queue.append(job)
        self._queued_core_s += job.cores * runtime

    def startable(self, now: float) -> list[Job]:
        if not self.queue or self.free_cores <= 0:
            return []
        started: list[Job] = []
        scanned = 0
        remaining: deque[Job] = deque()
        busy = self._busy_users
        cap = self.max_concurrent
        while self.queue and scanned < self.backfill_window:
            job = self.queue.popleft()
            scanned += 1
            if (
                job.cores <= self.free_cores
                and job.user not in busy
                and (cap is None or len(self.running) < cap)
            ):
                self._start(job, now)
                started.append(job)
            else:
                remaining.append(job)
        self.queue = remaining + self.queue
        return started

    def _start(self, job: Job, now: float) -> None:
        self.free_cores -= job.cores
        runtime = job.runtime_s[self.name]
        end = now + runtime
        self.running[job.job_id] = _Running(job=job, end_s=end)
        self._busy_users.add(job.user)
        self._queued_core_s -= job.cores * runtime
        self._running_cores += job.cores
        self._running_end_core_s += job.cores * end

    def finish(self, job_id: int) -> Job:
        entry = self.running.pop(job_id)
        job = entry.job
        self.free_cores += job.cores
        self._running_cores -= job.cores
        self._running_end_core_s -= job.cores * entry.end_s
        self._busy_users.discard(job.user)
        return job

    def reschedule_end(self, job_id: int, end_s: float) -> None:
        entry = self.running[job_id]
        self._running_end_core_s += entry.job.cores * (end_s - entry.end_s)
        entry.end_s = end_s

    def end_time_of(self, job_id: int) -> float:
        return self.running[job_id].end_s


def seed_engine_run(machines, method, policy, workload) -> SimulationResult:
    """Port of the seed engine loop: one heap, per-record pricing."""
    pricings = {n: pricing_for_sim_machine(m) for n, m in machines.items()}
    carbon = CarbonBasedAccounting()
    clusters = {n: SeedCluster(m) for n, m in machines.items()}
    arrivals = sorted(workload.jobs, key=lambda j: j.submit_s)
    finish_heap: list[tuple[float, int, str, int, float]] = []
    seq = 0
    outcomes: list[JobOutcome] = []

    def outcome(job, machine_name, start_s, end_s):
        energy = job.energy_j[machine_name]
        pricing = pricings[machine_name]
        record = UsageRecord(
            machine=machine_name,
            duration_s=job.runtime_s[machine_name],
            energy_j=energy,
            cores=job.cores,
            start_time_s=start_s,
            job_id=str(job.job_id),
        )
        cost = method.charge(record, pricing)
        intensity = machines[machine_name].intensity.at(start_s)
        operational = operational_carbon_g(energy, intensity)
        attributed = operational + carbon.embodied_charge(record, pricing)
        return JobOutcome(
            job_id=job.job_id,
            user=job.user,
            machine=machine_name,
            cores=job.cores,
            submit_s=job.submit_s,
            start_s=start_s,
            end_s=end_s,
            energy_j=energy,
            cost=cost,
            work_core_hours=job.work_core_hours,
            operational_carbon_g=operational,
            attributed_carbon_g=attributed,
        )

    def try_start(cluster, now):
        nonlocal seq
        for job in cluster.startable(now):
            heapq.heappush(
                finish_heap,
                (cluster.end_time_of(job.job_id), seq, cluster.name, job.job_id, now),
            )
            seq += 1

    ai = 0
    n = len(arrivals)
    while ai < n or finish_heap:
        if finish_heap and (
            ai >= n or finish_heap[0][0] < arrivals[ai].submit_s
        ):
            now, _, mname, jid, start_s = heapq.heappop(finish_heap)
            cluster = clusters[mname]
            job = cluster.finish(jid)
            outcomes.append(outcome(job, mname, start_s, now))
            try_start(cluster, now)
        else:
            job = arrivals[ai]
            ai += 1
            now = job.submit_s
            views = []
            for name in job.eligible_machines:
                if name not in clusters:
                    continue
                runtime = job.runtime_s[name]
                energy = job.energy_j[name]
                record = UsageRecord(
                    machine=name,
                    duration_s=runtime,
                    energy_j=energy,
                    cores=job.cores,
                    start_time_s=now,
                )
                views.append(
                    MachineView(
                        machine=name,
                        runtime_s=runtime,
                        energy_j=energy,
                        queue_wait_s=clusters[name].estimated_wait_s(now),
                        cost=method.charge(record, pricings[name]),
                    )
                )
            if not views:
                continue
            cluster = clusters[policy.select(job, views)]
            cluster.enqueue(job)
            try_start(cluster, now)
    return SimulationResult(
        policy=policy.name,
        method=method.name,
        machines=list(machines),
        outcomes=outcomes,
    )


_ARRIVAL = 0
_FINISH = 1
_REEVALUATE = 2


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


def assert_results_identical(a: SimulationResult, b: SimulationResult) -> None:
    assert a.table.machines == b.table.machines
    assert len(a.table) == len(b.table)
    for field, _ in OUTCOME_FIELDS:
        col_a = getattr(a.table, field)
        col_b = getattr(b.table, field)
        assert np.array_equal(col_a, col_b), f"column {field} differs"
