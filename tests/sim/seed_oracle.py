"""The engine's reference oracle: a faithful port of the seed loops.

``seed_engine_run`` is the seed engine loop — one heap, per-record
``charge()`` pricing — and :class:`SeedCluster` the seed cluster that
rescans its backfill window on every call.  Every engine equivalence
test (event order, sweeps, tiered fleets) compares the vectorized
:class:`~repro.sim.engine.MultiClusterSimulator` against this one
reference, column for column.

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


def assert_results_identical(a: SimulationResult, b: SimulationResult) -> None:
    assert a.table.machines == b.table.machines
    assert len(a.table) == len(b.table)
    for field, _ in OUTCOME_FIELDS:
        col_a = getattr(a.table, field)
        col_b = getattr(b.table, field)
        assert np.array_equal(col_a, col_b), f"column {field} differs"
