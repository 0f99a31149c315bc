"""Job migration between machines — the paper's §7 limitation, lifted.

"In the simulation (as well as above), we do not allow job migration:
once a job has been started on a machine, it cannot move even as the
carbon intensities change."  This module implements the missing
mechanism so the claim can be tested rather than assumed: a simulator in
which running jobs are periodically re-evaluated and may checkpoint, pay
a migration overhead, and resume on a machine that has become cheaper
(under CBA this happens when grid intensities cross, Fig. 7b).

Model
-----
* Jobs execute in **segments**.  At every re-evaluation boundary the
  simulator compares the cost of finishing on the current machine with
  the cost of finishing elsewhere (remaining-fraction scaled, plus a
  checkpoint/restart overhead added to the remaining runtime).
* A job migrates when the relative saving exceeds ``min_saving``; the
  continuation re-enters the target's queue under the same user, so all
  §5.3 queue rules still apply.
* Every segment is charged at its own start-time intensity; a migrated
  job's cost, energy, and carbon are the sums over its segments —
  exactly what a provider metering per interval would bill.

Batched pricing architecture
----------------------------
The default path follows the quote-table / settle contract of
:mod:`repro.accounting.pricing`, so the migration simulator no longer
prices inside its event loop:

* arrival views come from a precomputed
  :class:`~repro.accounting.pricing.PricingKernel` quote table (arrival
  time *is* the submit time, as in the plain engine);
* the running set is mirrored in a columnar :class:`RunningTable`
  (struct-of-arrays: kernel job row, machine index, segment start,
  scheduled end, remaining fraction) maintained incrementally on every
  segment start / finish / migrate, so a re-evaluation tick computes
  every candidate's remaining-fraction math in one vectorized pass
  instead of walking the per-cluster ``running`` dicts in Python;
* candidate stay/move probes are priced adaptively: large candidate
  sets go through one
  :meth:`~repro.accounting.base.AccountingMethod.charge_many` per
  machine over the table's columns, while small sets use the
  per-machine
  :meth:`~repro.accounting.base.AccountingMethod.probe_kernel` scalar
  closures — hoisted per-machine constants, no record construction —
  which beat fixed-overhead NumPy batches below a few dozen probes.
  Both replay ``charge()``'s exact IEEE operations, so the crossover
  threshold can never change a decision;
* above the same crossover the stay/move *decision* is vectorized too:
  winners come from a masked argmin over the probe-cost matrix whose
  tie-breaking replays the scalar walk's eligibility order through the
  quote table's ``elig_rank`` column, and only the movers are applied
  (in the reference candidate order), so a re-evaluation tick does no
  per-candidate Python work at all on the hot path;
* finished or preempted segments are appended to a
  :class:`~repro.accounting.pricing.SegmentLedger` and settled in one
  vectorized pass after the run, with per-job sums replayed in append
  order.

All three substitutions use the same IEEE operation order as the scalar
path, so results are **bit-identical** to ``batched=False`` (the test
suite asserts exact equality for all five accounting methods).

Events come from the shared :class:`~repro.sim.events.EventCalendar`:
arrivals are consumed from the submit-sorted job list, only finishes
live in the heap, and the single outstanding re-evaluation boundary is
a scalar tick — the same ``(time, kind, seq)`` order as the seed's
all-in-one heap, without pushing every arrival through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accounting.base import AccountingMethod, UsageBatch, UsageRecord
from repro.accounting.methods import CarbonBasedAccounting
from repro.accounting.pricing import (
    PricingKernel,
    QuoteTable,
    SegmentLedger,
)
from repro.sim.cluster import ClusterSim
from repro.sim.engine import SimulationResult, pricing_for_sim_machine
from repro.sim.events import ARRIVAL, FINISH, EventCalendar
from repro.sim.job import ELIG_RANK_INELIGIBLE, Job, JobOutcome
from repro.sim.policies import MachineView, Policy
from repro.sim.scenarios import SimMachine
from repro.sim.workload import Workload
from repro.units import operational_carbon_g


@dataclass(slots=True)
class _Progress:
    """Per-job execution state across segments."""

    job: Job
    remaining_fraction: float = 1.0
    energy_j: float = 0.0
    cost: float = 0.0
    operational_g: float = 0.0
    attributed_g: float = 0.0
    first_start_s: float | None = None
    migrations: int = 0
    segment_start_s: float = 0.0
    segment_machine: str = ""
    is_continuation: bool = False


#: Live running-row count at or above which a re-evaluation tick
#: collects its candidates through the columnar :class:`RunningTable`
#: pass instead of the per-cluster dict walk.  Below it, NumPy's fixed
#: per-expression cost exceeds the walk over a handful of rows
#: (measured crossover ~50 rows on the low-carbon scenario).
TICK_VECTOR_MIN = 48

#: Candidate count at or above which a re-evaluation tick prices its
#: stay/move probes with one ``charge_many`` per machine instead of the
#: scalar probe kernels (measured crossover ~50-64 candidates; the
#: vectorized path is ~2x at 512).  All paths replay ``charge()``'s
#: exact IEEE operations, so these crossovers affect speed only, never
#: decisions (the equivalence suite pins every regime to the seed loop).
PROBE_VECTOR_MIN = 48

#: Most re-evaluation ticks one batched multi-tick pass will price at
#: once when the calendar shows no arrival/finish before them (bounds
#: the ``(ticks × rows × machines)`` probe matrix).  ``1`` disables
#: batching.  Speed-only, like the crossover knobs: the batch replays
#: the per-tick IEEE expressions exactly.
MULTI_TICK_MAX = 64


#: Slot-array capacity :class:`RunningTable` never shrinks below (small
#: arrays are cheap to keep), and the initial allocation size.
COMPACT_MIN_CAPACITY = 64

#: Columns of :class:`RunningTable` (the ``states`` object list rides
#: along separately).
_RUNNING_COLUMNS = ("machine", "start", "end", "rem", "job_row", "seq", "job_id")


class RunningTable:
    """Columnar mirror of every running job across all clusters.

    Struct-of-arrays — per live row: the machine index, the kernel job
    row, the segment start time, the scheduled end, and the remaining
    fraction at segment start — maintained incrementally on segment
    start / finish / migrate events.  A re-evaluation tick then computes
    the remaining-fraction candidate math for the whole running set as
    array expressions (:meth:`candidates`) instead of walking the
    per-cluster ``running`` dicts in Python.

    The layout is a **dense live-row index**: rows ``[0, len(table))``
    are all live, and :meth:`remove` fills the hole it leaves by
    swapping the last live row down.  There are no dead slots to skip,
    so :meth:`candidates` does zero work proportional to anything but
    the live count — churn-heavy workloads no longer pay for their
    high-water mark on every tick (the old free-list layout needed a
    periodic compaction heuristic to merely bound that waste).

    Every insertion stamps a monotone sequence number and candidates
    come back sorted by (machine index, sequence) — the *reference*
    iteration order: clusters in machine-index order, then running-dict
    insertion order within a cluster.  The sort makes the swap
    shuffling invisible downstream, so decision application (and thus
    requeue order on the target clusters) stays bit-identical to the
    dict-walking path.

    Because :meth:`remove` renumbers the last row, callers must not
    hold row indices across removes — resolve rows to their ``states``
    objects first.  Capacity doubles on demand and shrinks back to
    ``2 × live`` when live rows fall to a quarter of it (never below
    :data:`COMPACT_MIN_CAPACITY`); the shrink is purely an allocator
    detail, invisible to the scan.
    """

    __slots__ = (
        "machine",
        "start",
        "end",
        "rem",
        "job_row",
        "seq",
        "job_id",
        "states",
        "shrinks",
        "last_scan_rows",
        "_slot_of",
        "_next_seq",
    )

    def __init__(self, capacity: int = COMPACT_MIN_CAPACITY) -> None:
        capacity = max(1, capacity)
        self.machine = np.full(capacity, -1, dtype=np.int64)
        self.start = np.zeros(capacity)
        self.end = np.zeros(capacity)
        self.rem = np.zeros(capacity)
        self.job_row = np.zeros(capacity, dtype=np.intp)
        self.seq = np.zeros(capacity, dtype=np.int64)
        self.job_id = np.full(capacity, -1, dtype=np.int64)
        #: Per-row owning :class:`_Progress` (``None`` past the live end).
        self.states: list[_Progress | None] = [None] * capacity
        #: Capacity shrinks performed so far (diagnostics and tests).
        self.shrinks = 0
        #: Rows the most recent :meth:`candidates` call touched — always
        #: exactly the live count (diagnostics and tests).
        self.last_scan_rows = 0
        self._slot_of: dict[int, int] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._slot_of)

    def _resize(self, capacity: int) -> None:
        n = len(self._slot_of)
        for name in _RUNNING_COLUMNS:
            col = getattr(self, name)
            resized = np.empty(capacity, dtype=col.dtype)
            resized[:n] = col[:n]
            setattr(self, name, resized)
        self.states = self.states[:n] + [None] * (capacity - n)

    def add(
        self,
        job_id: int,
        job_row: int,
        machine_idx: int,
        start_s: float,
        end_s: float,
        remaining_fraction: float,
        state: _Progress,
    ) -> None:
        """Mirror one started segment (job_id must not be running)."""
        row = len(self._slot_of)
        if row == len(self.machine):
            self._resize(2 * row)
        self.machine[row] = machine_idx
        self.start[row] = start_s
        self.end[row] = end_s
        self.rem[row] = remaining_fraction
        self.job_row[row] = job_row
        self.seq[row] = self._next_seq
        self.job_id[row] = job_id
        self._next_seq += 1
        self.states[row] = state
        self._slot_of[job_id] = row

    def remove(self, job_id: int) -> None:
        """Drop a row when its segment finishes or migrates away.

        The last live row swaps into the hole, keeping the live prefix
        dense — any row index held from before this call is invalid
        afterwards.
        """
        row = self._slot_of.pop(job_id)
        last = len(self._slot_of)
        if row != last:
            self.machine[row] = self.machine[last]
            self.start[row] = self.start[last]
            self.end[row] = self.end[last]
            self.rem[row] = self.rem[last]
            self.job_row[row] = self.job_row[last]
            self.seq[row] = self.seq[last]
            moved_id = int(self.job_id[last])
            self.job_id[row] = moved_id
            self.states[row] = self.states[last]
            self._slot_of[moved_id] = row
        self.states[last] = None
        capacity = len(self.machine)
        if capacity > COMPACT_MIN_CAPACITY and last * 4 <= capacity:
            self._resize(max(COMPACT_MIN_CAPACITY, 2 * last))
            self.shrinks += 1

    def candidates(
        self, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, remaining, frac_done)`` of every migration candidate.

        One vectorized pass over the live rows — and *only* the live
        rows: the dense layout means dead capacity is never touched —
        replays the reference filters element-wise: positive segment
        length, not within 1e-9 s of the scheduled end, positive
        progress, more than 5% of the job left, with the exact float
        expressions of the scalar loop, so the surviving set (and each
        survivor's remaining fraction) is bit-identical.  Rows come back
        sorted by (machine, insertion sequence): the reference dict-walk
        order.
        """
        n = len(self._slot_of)
        self.last_scan_rows = n
        machine = self.machine[:n]
        start = self.start[:n]
        end = self.end[:n]
        rem = self.rem[:n]
        seg_total = end - start
        # Degenerate (zero-length) segments divide by zero here; their
        # rows are masked out below, so silence the transients.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            done = (now - start) / seg_total
            frac_done = rem * done
            remaining = rem - frac_done
        keep = (
            (seg_total > 0)
            & (now < end - 1e-9)
            & (done > 0)
            & (remaining > 0.05)
        )
        rows = np.flatnonzero(keep)
        if len(rows) > 1:
            rows = rows[np.lexsort((self.seq[rows], machine[rows]))]
        return rows, remaining[rows], frac_done[rows]


class MigratingSimulator:
    """Event-driven simulation with periodic migration re-evaluation.

    Parameters
    ----------
    machines, method, policy:
        As for :class:`~repro.sim.engine.MultiClusterSimulator`.
    reevaluate_every_s:
        How often running jobs are reconsidered (hourly by default, the
        carbon-intensity resolution).
    overhead_s:
        Checkpoint + restart cost added to the remaining runtime on the
        target machine (charged at the target's idle power).
    min_saving:
        Minimum relative saving on the remaining cost required to move
        (hysteresis against flapping between machines).
    batched:
        Use the vectorized pricing paths (default).  ``False`` runs the
        reference per-record implementation; outcomes are bit-identical
        either way.
    quote_table:
        Optional prebuilt
        :class:`~repro.accounting.pricing.QuoteTable` for the workload
        this simulator will run (e.g. from a sweep's shared
        :class:`~repro.accounting.pricing.QuoteTableCache`); skips the
        per-run quote-table build.  Validated against the workload at
        ``run()``; ignored when ``batched=False``.
    """

    __slots__ = (
        "machines",
        "method",
        "policy",
        "reevaluate_every_s",
        "overhead_s",
        "min_saving",
        "batched",
        "quote_table",
        "pricings",
        "_carbon",
        "_name_idx",
        "_idle_w",
        "tick_vector_min",
        "probe_vector_min",
        "multi_tick_max",
        "multi_tick_batches",
        "multi_tick_ticks",
        "_ledger",
        "_owners",
        "_quoters",
        "_running",
        "_kernel",
    )

    def __init__(
        self,
        machines: dict[str, SimMachine],
        method: AccountingMethod,
        policy: Policy,
        reevaluate_every_s: float = 3600.0,
        overhead_s: float = 300.0,
        min_saving: float = 0.2,
        batched: bool = True,
        quote_table: QuoteTable | None = None,
    ) -> None:
        if reevaluate_every_s <= 0:
            raise ValueError("re-evaluation period must be positive")
        if overhead_s < 0:
            raise ValueError("overhead cannot be negative")
        if not 0.0 <= min_saving < 1.0:
            raise ValueError("min_saving must be in [0, 1)")
        self.machines = machines
        self.method = method
        self.policy = policy
        self.reevaluate_every_s = reevaluate_every_s
        self.overhead_s = overhead_s
        self.min_saving = min_saving
        self.batched = batched
        self.quote_table = quote_table
        self.pricings = {
            name: pricing_for_sim_machine(m) for name, m in machines.items()
        }
        self._carbon = CarbonBasedAccounting()
        self._name_idx = {name: mi for mi, name in enumerate(self.pricings)}
        #: Idle watts per core, hoisted off the property chain (the probe
        #: path reads it once per move probe).
        self._idle_w = {
            name: m.idle_watts_per_core for name, m in machines.items()
        }
        #: Deferred-settlement state, rebuilt per run (batched mode only).
        self._ledger: SegmentLedger | None = None
        self._owners: list[_Progress] = []
        self._kernel: PricingKernel | None = None
        #: Per-machine scalar probe quoters, rebuilt per run (batched
        #: mode only; closures hold per-run memo state).
        self._quoters: dict[str, object] | None = None
        #: Columnar running-set mirror, rebuilt per run (batched only).
        self._running: RunningTable | None = None
        #: Speed-only crossover knobs (see the module constants); tests
        #: pin them to 0 / huge to force one regime.
        self.tick_vector_min = TICK_VECTOR_MIN
        self.probe_vector_min = PROBE_VECTOR_MIN
        #: Cap on ticks priced per batched multi-tick pass (1 disables).
        self.multi_tick_max = MULTI_TICK_MAX
        #: Multi-tick passes taken / ticks they covered (diagnostics and
        #: tests; cumulative across runs).
        self.multi_tick_batches = 0
        self.multi_tick_ticks = 0

    # ------------------------------------------------------------------
    # Segment economics
    # ------------------------------------------------------------------
    def _segment_scalars(
        self,
        job: Job,
        machine: str,
        fraction: float,
        with_overhead: bool,
    ) -> tuple[float, float]:
        """(runtime, energy) of one segment — the single definition both
        the scalar and the batched paths price, so they cannot drift."""
        runtime = job.runtime_s[machine] * fraction
        energy = job.energy_j[machine] * fraction
        if with_overhead:
            runtime += self.overhead_s
            energy += (
                self.machines[machine].idle_watts_per_core
                * job.cores
                * self.overhead_s
            )
        return runtime, energy

    def _segment_record(
        self,
        job: Job,
        machine: str,
        start_s: float,
        fraction: float,
        with_overhead: bool,
    ) -> UsageRecord:
        runtime, energy = self._segment_scalars(
            job, machine, fraction, with_overhead
        )
        return UsageRecord(
            machine=machine,
            duration_s=runtime,
            energy_j=energy,
            cores=job.cores,
            start_time_s=start_s,
        )

    def _charge_segment(
        self,
        state: _Progress,
        fraction: float,
        with_overhead: bool,
    ) -> None:
        """Bill one segment: append it to the deferred ledger (batched)
        or accumulate its cost/energy/carbon immediately (reference)."""
        if self._ledger is not None:
            job = state.job
            machine = state.segment_machine
            runtime, energy = self._segment_scalars(
                job, machine, fraction, with_overhead
            )
            self._ledger.add(
                machine, state.segment_start_s, runtime, energy, job.cores
            )
            self._owners.append(state)
            return
        record = self._segment_record(
            state.job,
            state.segment_machine,
            state.segment_start_s,
            fraction,
            with_overhead,
        )
        pricing = self.pricings[state.segment_machine]
        intensity = self.machines[state.segment_machine].intensity.at(
            state.segment_start_s
        )
        operational = operational_carbon_g(record.energy_j, intensity)
        state.energy_j += record.energy_j
        state.cost += self.method.charge(record, pricing)
        state.operational_g += operational
        state.attributed_g += operational + self._carbon.embodied_charge(
            record, pricing
        )

    def _settle_segments(self) -> None:
        """Price the whole segment ledger and replay the per-job sums.

        ``settle`` returns per-segment values in append order — the same
        chronological order the reference path charges in — so the
        ``+=`` replay below performs the identical sequence of additions
        per job and the accumulated floats match bit for bit.
        """
        ledger = self._ledger
        if ledger is None or not len(ledger):
            return
        cost, operational, attributed = ledger.settle()
        energy = ledger.energy
        cost_l = cost.tolist()
        oper_l = operational.tolist()
        attr_l = attributed.tolist()
        for idx, state in enumerate(self._owners):
            state.energy_j += energy[idx]
            state.cost += cost_l[idx]
            state.operational_g += oper_l[idx]
            state.attributed_g += attr_l[idx]

    def _remaining_cost(
        self, state: _Progress, machine: str, at_s: float, migrating: bool
    ) -> float:
        record = self._segment_record(
            state.job, machine, at_s, state.remaining_fraction, migrating
        )
        return self.method.charge(record, self.pricings[machine])

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> SimulationResult:
        clusters = {name: ClusterSim(m) for name, m in self.machines.items()}
        progress = {job.job_id: _Progress(job=job) for job in workload.jobs}
        #: job_id -> runtime its queued continuation needs on its target.
        pending_runtime: dict[int, float] = {}

        kernel: PricingKernel | None = None
        if self.batched:
            kernel = PricingKernel(
                workload.block(list(self.pricings)),
                self.pricings,
                self.method,
                table=self.quote_table,
            )
            self._ledger = SegmentLedger(self.method, self.pricings)
            self._owners = []
            self._quoters = {
                name: self.method.probe_kernel(pricing)
                for name, pricing in self.pricings.items()
            }
            self._running = RunningTable()
        else:
            self._ledger = None
            self._owners = []
            self._quoters = None
            self._running = None
        self._kernel = kernel
        running_table = self._running
        name_idx = self._name_idx
        static_views = kernel.static_views if kernel is not None else None
        row_of = kernel.row_of if kernel is not None else None

        calendar = EventCalendar(workload.jobs)
        if workload.jobs:
            calendar.schedule_tick(
                workload.jobs[0].submit_s + self.reevaluate_every_s
            )

        #: Finish log: (job_id, end time), in completion order.
        finish_log: list[tuple[int, float]] = []
        active = len(workload.jobs)

        def try_start(cluster: ClusterSim, now: float) -> None:
            for job in cluster.startable(now):
                state = progress[job.job_id]
                if state.first_start_s is None:
                    state.first_start_s = now
                state.segment_start_s = now
                state.segment_machine = cluster.name
                state.is_continuation = job.job_id in pending_runtime
                runtime = pending_runtime.get(
                    job.job_id, job.runtime_s[cluster.name]
                )
                end = now + runtime
                # ClusterSim scheduled the full runtime; continuations
                # carry only their remainder.
                cluster.reschedule_end(job.job_id, end)
                calendar.schedule_finish(end, (cluster.name, job.job_id))
                if running_table is not None:
                    running_table.add(
                        job.job_id,
                        row_of[job.job_id],
                        name_idx[cluster.name],
                        now,
                        end,
                        state.remaining_fraction,
                        state,
                    )

        while calendar and active > 0:
            now, kind, payload = calendar.pop()

            if kind == ARRIVAL:
                job = payload  # type: ignore[assignment]
                if static_views is not None:
                    views = [
                        MachineView(
                            name, rt, en, clusters[name].estimated_wait_s(now), cost
                        )
                        for name, rt, en, cost in static_views[row_of[job.job_id]]
                    ]
                else:
                    views = [
                        MachineView(
                            machine=name,
                            runtime_s=job.runtime_s[name],
                            energy_j=job.energy_j[name],
                            queue_wait_s=clusters[name].estimated_wait_s(now),
                            # repro-lint: disable=RPL004 (batched=False reference path; segment quotes here are the oracle the quote-table path is tested against)
                            cost=self.method.charge(
                                self._segment_record(job, name, now, 1.0, False),
                                self.pricings[name],
                            ),
                        )
                        for name in job.eligible_machines
                        if name in clusters
                    ]
                if not views:
                    active -= 1
                    continue
                choice = self.policy.select(job, views)
                clusters[choice].enqueue(job)
                try_start(clusters[choice], now)

            elif kind == FINISH:
                machine_name, job_id = payload  # type: ignore[misc]
                cluster = clusters[machine_name]
                entry = cluster.running.get(job_id)
                if entry is None or abs(entry.end_s - now) > 1e-6:
                    continue  # stale event from a migrated segment
                cluster.finish(job_id)
                if running_table is not None:
                    running_table.remove(job_id)
                state = progress[job_id]
                self._charge_segment(
                    state, state.remaining_fraction, state.is_continuation
                )
                state.remaining_fraction = 0.0
                pending_runtime.pop(job_id, None)
                finish_log.append((job_id, now))
                active -= 1
                try_start(cluster, now)

            else:  # TICK: periodic migration re-evaluation
                # A run of ticks with no arrival/finish before them all
                # sees the same running set, so the columnar regime can
                # price the whole run in one pass.  ``now`` advances to
                # the last tick actually consumed (the first tick that
                # moves anything ends the run: movers change state).
                tick_run = [now]
                if (
                    running_table is not None
                    and self.multi_tick_max > 1
                    and len(running_table) >= self.tick_vector_min
                    and len(running_table) >= self.probe_vector_min
                ):
                    horizon = calendar.next_disturbance()
                    t = now + self.reevaluate_every_s
                    while len(tick_run) < self.multi_tick_max and t < horizon:
                        tick_run.append(t)
                        t += self.reevaluate_every_s
                if len(tick_run) > 1:
                    moved, now = self._reevaluate_multi(
                        clusters, pending_runtime, tick_run
                    )
                else:
                    moved = self._reevaluate(
                        clusters, progress, pending_runtime, now
                    )
                if moved:
                    for cluster in clusters.values():
                        try_start(cluster, now)
                if active > 0:
                    calendar.schedule_tick(now + self.reevaluate_every_s)

        self._settle_segments()
        self._ledger = None
        self._owners = []
        self._kernel = None
        self._quoters = None
        self._running = None
        outcomes = [
            self._outcome(progress[job_id], end_s)
            for job_id, end_s in finish_log
        ]
        return SimulationResult(
            policy=f"{self.policy.name}+migrate",
            method=self.method.name,
            machines=list(self.machines),
            outcomes=outcomes,
        )

    # ------------------------------------------------------------------
    def _reevaluate(
        self,
        clusters: dict[str, ClusterSim],
        progress: dict[int, _Progress],
        pending_runtime: dict[int, float],
        now: float,
    ) -> bool:
        """Preempt-and-requeue any running job with a big enough saving.

        Probes are pure functions of (job, remaining fraction, now).
        The batched path reads its candidates straight out of the
        columnar :class:`RunningTable` — one vectorized pass over the
        live rows — and, for large candidate sets, also *decides*
        vectorized: stay/move probe costs become columns, winners come
        from a masked argmin whose tie-breaking replays the scalar
        loop's eligibility-walk order through the quote table's
        ``elig_rank`` (see :meth:`_decide_and_apply_columnar`), and only
        the movers are applied in a final pass.  Small candidate sets
        keep the scalar probe kernels and the per-candidate decision
        loop; the reference path walks the per-cluster running dicts.
        """
        running_table = self._running
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]]
        if (
            running_table is not None
            and len(running_table) >= self.tick_vector_min
        ):
            slots, rem_arr, done_arr = running_table.candidates(now)
            if not len(slots):
                return False
            if len(slots) >= self.probe_vector_min:
                return self._decide_and_apply_columnar(
                    clusters, pending_runtime, now, slots, rem_arr, done_arr
                )
            names = self._kernel.machine_names
            states = running_table.states
            cluster_of = [clusters[name] for name in names]
            cur_machines = running_table.machine[slots].tolist()
            candidates = []
            append = candidates.append
            for slot, mi, remaining, frac_done in zip(
                slots.tolist(),
                cur_machines,
                rem_arr.tolist(),
                done_arr.tolist(),
            ):
                state = states[slot]
                job = state.job
                append(
                    (cluster_of[mi], job.job_id, state, job, remaining, frac_done)
                )
            probe_costs, name_idx = self._probe_costs_indexed(
                clusters, candidates, now
            )
        else:
            candidates = []
            for cluster in clusters.values():
                for job_id, entry in cluster.running.items():
                    state = progress[job_id]
                    job = state.job
                    end_s = entry.end_s
                    segment_total = end_s - state.segment_start_s
                    if segment_total <= 0 or now >= end_s - 1e-9:
                        continue
                    done_of_segment = (
                        now - state.segment_start_s
                    ) / segment_total
                    if done_of_segment <= 0:
                        continue
                    frac_done = state.remaining_fraction * done_of_segment
                    remaining = state.remaining_fraction - frac_done
                    if remaining <= 0.05:
                        continue  # nearly finished; never worth moving
                    candidates.append(
                        (cluster, job_id, state, job, remaining, frac_done)
                    )
            if not candidates:
                return False
            if self.batched:
                probe_costs, name_idx = self._probe_costs_indexed(
                    clusters, candidates, now
                )
            else:
                probe_costs, name_idx = self._probe_costs_scalar(
                    clusters, candidates, now
                )

        moved_any = False
        for k, (cluster, job_id, state, job, remaining, frac_done) in enumerate(
            candidates
        ):
            costs = probe_costs[k]
            stay = costs[name_idx[cluster.name]]
            best_name, best_cost = None, stay
            for name in job.eligible_machines:
                if name == cluster.name or name not in clusters:
                    continue
                cost = costs[name_idx[name]]
                if cost < best_cost:
                    best_name, best_cost = name, cost
            if best_name is None or best_cost > stay * (1.0 - self.min_saving):
                continue

            # Bill the partial segment, release, and requeue.
            self._charge_segment(state, frac_done, state.is_continuation)
            state.remaining_fraction = remaining
            state.migrations += 1
            cluster.finish(job_id)
            if self._running is not None:
                self._running.remove(job_id)
            pending_runtime[job_id] = (
                job.runtime_s[best_name] * remaining + self.overhead_s
            )
            clusters[best_name].enqueue(job)
            moved_any = True
        return moved_any

    def _reevaluate_multi(
        self,
        clusters: dict[str, ClusterSim],
        pending_runtime: dict[int, float],
        tick_times: list[float],
    ) -> tuple[bool, float]:
        """Price a run of quiet re-evaluation ticks in one batched pass.

        ``tick_times`` are consecutive tick boundaries with no arrival
        or finish before any of them (see
        :meth:`~repro.sim.events.EventCalendar.next_disturbance`), so
        every tick sees the identical running set — until the first
        tick that moves something, which changes state and ends the
        run.  The batch therefore:

        * computes the candidate filters and remaining-fraction math
          for all ``(tick, row)`` pairs with one broadcast of the
          per-tick expressions (identical IEEE operations per element);
        * prices every eligible ``(tick, row)`` stay/move probe with
          **one** ``charge_many`` per machine over the flattened pairs
          — the batch kernels are elementwise, so each element equals
          the per-tick batch bit for bit;
        * runs the masked stay/move decision over all pairs at once and
          finds the first tick with any mover.

        Ticks before that first mover tick are consumed with no state
        change — exactly what the per-tick loop would have done — and
        the mover tick itself is applied through
        :meth:`_decide_and_apply_columnar` in reference candidate
        order.  Returns ``(moved, now)`` where ``now`` is the last tick
        actually consumed; the caller resumes per-tick scheduling from
        there.
        """
        kernel = self._kernel
        name_idx = self._name_idx
        idle_w = self._idle_w
        overhead = self.overhead_s
        method = self.method
        table = self._running
        K = len(tick_times)
        n = len(table)
        table.last_scan_rows = n
        self.multi_tick_batches += 1
        if n == 0:
            self.multi_tick_ticks += K
            return False, tick_times[-1]
        machine = table.machine[:n]
        start = table.start[:n]
        end = table.end[:n]
        rem = table.rem[:n]
        job_rows = table.job_row[:n]
        ts = np.asarray(tick_times)
        seg_total = end - start
        # Same transient div-by-zero note as RunningTable.candidates.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            done = (ts[:, None] - start) / seg_total
            frac_done = rem * done
            remaining = rem - frac_done
        keep = (
            (seg_total > 0)
            & (ts[:, None] < end - 1e-9)
            & (done > 0)
            & (remaining > 0.05)
        )
        if not keep.any():
            self.multi_tick_ticks += K
            return False, tick_times[-1]

        # One charge_many per machine over the flattened (tick, row)
        # pairs — position k*n + i is tick k, table row i.
        cores = kernel.cores[job_rows]
        keep_flat = keep.ravel()
        starts_flat = np.repeat(ts, n)
        rem_flat = remaining.ravel()
        costs = np.full((K * n, len(name_idx)), np.nan)
        for name, mi in name_idx.items():
            rt = kernel.runtime[name][job_rows]
            sel = np.flatnonzero(keep_flat & np.tile(~np.isnan(rt), K))
            if not len(sel):
                continue
            rows_sel = sel % n
            rem_sel = rem_flat[sel]
            runtime = rt[rows_sel] * rem_sel
            energy = kernel.energy[name][job_rows[rows_sel]] * rem_sel
            cores_sel = cores[rows_sel]
            move = machine[rows_sel] != mi
            if move.any():
                runtime[move] += overhead
                energy[move] += idle_w[name] * cores_sel[move] * overhead
            batch = UsageBatch.unchecked(
                machine=name,
                duration_s=runtime,
                energy_j=energy,
                cores=cores_sel,
                start_time_s=starts_flat[sel],
            )
            costs[sel, mi] = method.charge_many(batch, self.pricings[name])

        # The stay/move decision over all pairs at once: non-candidate
        # pairs carry NaN stay costs, and NaN comparisons are False, so
        # they can never be movers — matching the per-tick candidate
        # filter exactly.
        flat_rows = np.arange(K * n)
        cur_flat = np.tile(machine, K)
        stay = costs[flat_rows, cur_flat]
        move_costs = np.where(np.isnan(costs), np.inf, costs)
        move_costs[flat_rows, cur_flat] = np.inf
        best_cost = move_costs.min(axis=1)
        with np.errstate(invalid="ignore"):
            movers = (best_cost < stay) & (
                best_cost <= stay * (1.0 - self.min_saving)
            )
        mover_ticks = np.flatnonzero(movers.reshape(K, n).any(axis=1))
        if not len(mover_ticks):
            self.multi_tick_ticks += K
            return False, tick_times[-1]

        # Apply the first mover tick in reference candidate order; the
        # later ticks in the run are discarded (their running set just
        # changed) and per-tick scheduling resumes from here.
        j = int(mover_ticks[0])
        self.multi_tick_ticks += j + 1
        order = np.lexsort((table.seq[:n], machine))
        cand = order[keep[j][order]]
        moved = self._decide_and_apply_columnar(
            clusters,
            pending_runtime,
            tick_times[j],
            cand,
            remaining[j, cand],
            frac_done[j, cand],
            costs=costs[j * n + cand],
        )
        return moved, tick_times[j]

    def _decide_and_apply_columnar(
        self,
        clusters: dict[str, ClusterSim],
        pending_runtime: dict[int, float],
        now: float,
        slots: np.ndarray,
        remaining: np.ndarray,
        frac_done: np.ndarray,
        costs: np.ndarray | None = None,
    ) -> bool:
        """One vectorized stay/move decision pass over all candidates.

        Probe costs come back from :meth:`_probe_costs_columnar` as a
        ``(candidate, machine)`` matrix (the multi-tick batch passes the
        matrix it already priced); the decision is then three array
        expressions instead of a Python walk per candidate:

        * ``stay`` is each candidate's cost on its current machine;
        * the cheapest move is a row minimum over the move columns
          (current machine and ineligible machines masked to ``inf``);
        * a candidate moves exactly when the scalar loop would —
          ``best < stay`` (the walk only replaces on a strict
          improvement) **and** ``best <= stay * (1 - min_saving)``
          (the hysteresis gate, with the identical IEEE expression).

        The winning machine replays the scalar walk's tie-breaking
        through the quote table's ``elig_rank``: the walk keeps the
        *first* machine, in the job's own eligibility order, that
        reaches the row minimum, so among the columns equal to that
        minimum the smallest eligibility rank is the identical winner.
        Only the movers are then applied, in candidate order — the same
        (machine index, insertion seq) order the scalar loop iterates —
        so preempt/requeue order on the target clusters is unchanged.
        """
        running_table = self._running
        kernel = self._kernel
        if costs is None:
            costs, _ = self._probe_costs_columnar(
                running_table, slots, remaining, now
            )
        n = len(slots)
        rows = np.arange(n)
        cur = running_table.machine[slots]
        stay = costs[rows, cur]
        move = np.where(np.isnan(costs), np.inf, costs)
        move[rows, cur] = np.inf
        best_cost = move.min(axis=1)
        movers = (best_cost < stay) & (
            best_cost <= stay * (1.0 - self.min_saving)
        )
        if not movers.any():
            return False
        mk = np.flatnonzero(movers)
        ranks = kernel.elig_rank[running_table.job_row[slots[mk]]]
        tied = move[mk] == best_cost[mk, None]
        best_mi = np.where(tied, ranks, ELIG_RANK_INELIGIBLE).argmin(axis=1)
        names = kernel.machine_names
        states = running_table.states
        overhead = self.overhead_s
        # Swap-with-last removal renumbers rows, so resolve every
        # mover's state before the first remove invalidates the indices.
        mover_states = [states[row] for row in slots[mk].tolist()]
        for state, mi_cur, mi_best, rem, fdone in zip(
            mover_states,
            cur[mk].tolist(),
            best_mi.tolist(),
            remaining[mk].tolist(),
            frac_done[mk].tolist(),
        ):
            job = state.job
            best_name = names[mi_best]
            self._charge_segment(state, fdone, state.is_continuation)
            state.remaining_fraction = rem
            state.migrations += 1
            clusters[names[mi_cur]].finish(job.job_id)
            running_table.remove(job.job_id)
            pending_runtime[job.job_id] = (
                job.runtime_s[best_name] * rem + overhead
            )
            clusters[best_name].enqueue(job)
        return True

    def _probe_costs_scalar(
        self,
        clusters: dict[str, ClusterSim],
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]],
        now: float,
    ) -> tuple[np.ndarray, dict[str, int]]:
        """Reference probe pricing: one ``charge()`` per (job, machine)."""
        name_idx = self._name_idx
        out = np.full((len(candidates), len(name_idx)), np.nan)
        for k, (cluster, _job_id, _state, job, remaining, _frac_done) in enumerate(
            candidates
        ):
            probe = _Progress(
                job=job,
                remaining_fraction=remaining,
                segment_start_s=now,
                segment_machine=cluster.name,
            )
            out[k, name_idx[cluster.name]] = self._remaining_cost(
                probe, cluster.name, now, migrating=False
            )
            for name in job.eligible_machines:
                if name == cluster.name or name not in clusters:
                    continue
                out[k, name_idx[name]] = self._remaining_cost(
                    probe, name, now, migrating=True
                )
        return out, name_idx

    def _probe_costs_columnar(
        self,
        running_table: RunningTable,
        slots: np.ndarray,
        remaining: np.ndarray,
        now: float,
    ) -> tuple[np.ndarray, dict[str, int]]:
        """Stay/move probe pricing as one ``charge_many`` per machine.

        The candidate columns come straight from the
        :class:`RunningTable` and the kernel's per-machine runtime and
        energy tables, so composing a probe batch is pure array
        arithmetic: scale by the remaining fraction, add the
        checkpoint/restart overhead on the move rows.  Every expression
        uses :meth:`_segment_scalars`' exact association order and
        ``charge_many`` replays ``charge()``'s IEEE operations, so probe
        costs — and therefore migration decisions — are bit-identical to
        the reference path.
        """
        kernel = self._kernel
        name_idx = self._name_idx
        idle_w = self._idle_w
        overhead = self.overhead_s
        method = self.method
        job_rows = running_table.job_row[slots]
        cur_machine = running_table.machine[slots]
        cores = kernel.cores[job_rows]
        out = np.full((len(slots), len(name_idx)), np.nan)
        for name, mi in name_idx.items():
            rt = kernel.runtime[name][job_rows]
            sub = np.flatnonzero(~np.isnan(rt))
            if not len(sub):
                continue
            rem_sub = remaining[sub]
            runtime = rt[sub] * rem_sub
            energy = kernel.energy[name][job_rows[sub]] * rem_sub
            cores_sub = cores[sub]
            move = cur_machine[sub] != mi
            if move.any():
                runtime[move] += overhead
                energy[move] += idle_w[name] * cores_sub[move] * overhead
            batch = UsageBatch.unchecked(
                machine=name,
                duration_s=runtime,
                energy_j=energy,
                cores=cores_sub,
                start_time_s=np.full(len(sub), now),
            )
            out[sub, mi] = method.charge_many(batch, self.pricings[name])
        return out, name_idx

    def _probe_costs_indexed(
        self,
        clusters: dict[str, ClusterSim],
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]],
        now: float,
    ) -> tuple[list[list[float]], dict[str, int]]:
        """Probe pricing through the per-machine scalar probe kernels.

        Candidate sets per tick are tiny (the running jobs of a few
        clusters), so fixed-overhead NumPy batches lose to plain float
        arithmetic; the probe kernels hoist every per-machine constant
        and memoize the single trace lookup a tick needs.  Segment
        scalars are composed with :meth:`_segment_scalars`' exact
        association order and the kernels replay ``charge()``'s IEEE
        operations, so probe costs (and therefore migration decisions)
        are bit-identical to the reference path.
        """
        quoters = self._quoters
        name_idx = self._name_idx
        idle_w = self._idle_w
        overhead = self.overhead_s
        nan = float("nan")
        n_machines = len(name_idx)
        out: list[list[float]] = []
        for cluster, _job_id, _state, job, remaining, _frac in candidates:
            row = [nan] * n_machines
            current = cluster.name
            cores = job.cores
            runtimes = job.runtime_s
            energies = job.energy_j
            for name, rt in runtimes.items():
                mi = name_idx.get(name)
                if mi is None or name not in clusters:
                    continue
                runtime = rt * remaining
                energy = energies[name] * remaining
                if name != current:
                    runtime += overhead
                    energy += idle_w[name] * cores * overhead
                row[mi] = quoters[name](runtime, energy, cores, now)
            out.append(row)
        return out, name_idx

    def _outcome(self, state: _Progress, end_s: float) -> JobOutcome:
        job = state.job
        return JobOutcome(
            job_id=job.job_id,
            user=job.user,
            machine=state.segment_machine,
            cores=job.cores,
            submit_s=job.submit_s,
            start_s=(
                state.first_start_s if state.first_start_s is not None else end_s
            ),
            end_s=end_s,
            energy_j=state.energy_j,
            cost=state.cost,
            work_core_hours=job.work_core_hours,
            operational_carbon_g=state.operational_g,
            attributed_carbon_g=state.attributed_g,
        )
