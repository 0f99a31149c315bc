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

Pricing architecture
--------------------
The simulator follows the quote-table / settle contract of
:mod:`repro.accounting.pricing`, so it never prices a record inside its
event loop:

* arrival views come from a precomputed
  :class:`~repro.accounting.pricing.PricingKernel` quote table (arrival
  time *is* the submit time, as in the plain engine);
* the running set is mirrored in a columnar :class:`RunningTable`
  (struct-of-arrays: kernel job row, machine index, segment start,
  scheduled end, remaining fraction) maintained incrementally on every
  segment start / finish / migrate;
* finished or preempted segments are appended to a
  :class:`~repro.accounting.pricing.SegmentLedger` and settled in one
  vectorized pass after the run, with per-job sums replayed in append
  order.

A re-evaluation tick takes one of two paths, chosen by the live
running-row count against :data:`VECTOR_MIN`:

* **below it** (the common case: a handful of running jobs), a walk
  over the per-cluster ``running`` dicts, stay/move probes through the
  per-machine :meth:`~repro.accounting.base.AccountingMethod.probe_kernel`
  closures — hoisted per-machine constants, no record construction —
  and a per-candidate decision loop;
* **at or above it**, one columnar pass over a run of 1 ..
  :data:`MULTI_TICK_MAX` quiet ticks (no arrival or finish between
  them, so every tick sees the same running set): *collect* the
  candidate ``(tick, row)`` pairs with :meth:`RunningTable.candidates`,
  *probe* them with one
  :meth:`~repro.accounting.base.AccountingMethod.charge_many` per
  machine, and *decide* with a masked argmin whose tie-breaking replays
  the walk's eligibility order through the quote table's ``elig_rank``
  column; only the first tick with a mover is applied.

Both paths replay ``charge()``'s exact IEEE operations, so the
crossover changes speed, never a decision: outcomes are
**bit-identical** to the seed's per-record loop, which the test suite
keeps as its oracle for all five accounting methods.

Events come from the shared :class:`~repro.sim.events.EventCalendar`:
arrivals are consumed from the submit-sorted job list, only finishes
live in the heap, and the single outstanding re-evaluation boundary is
a scalar tick — the same ``(time, kind, seq)`` order as the seed's
all-in-one heap, without pushing every arrival through it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.accounting.base import AccountingMethod, UsageBatch
from repro.accounting.pricing import PricingKernel, QuoteTable, SegmentLedger
from repro.sim.cluster import ClusterSim
from repro.sim.engine import SimulationResult, pricing_for_sim_machine
from repro.sim.events import ARRIVAL, FINISH, EventCalendar
from repro.sim.job import ELIG_RANK_INELIGIBLE, Job, JobOutcome
from repro.sim.policies import MachineView, Policy
from repro.sim.scenarios import SimMachine
from repro.sim.workload import Workload


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


#: Live running-row count at or above which a re-evaluation tick takes
#: the columnar pass instead of the dict walk with scalar probe
#: kernels.  Below it, NumPy's fixed per-expression cost exceeds the
#: walk over a handful of rows (measured crossover ~50 rows on the
#: low-carbon scenario).  Speed only: both paths replay ``charge()``'s
#: IEEE operations, so decisions never depend on it.
VECTOR_MIN = 48

#: Most quiet re-evaluation ticks one columnar pass prices at once
#: (bounds the ``(ticks × rows × machines)`` probe matrix).  Speed only,
#: like :data:`VECTOR_MIN`.
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
    start / finish / migrate events.  A columnar re-evaluation pass then
    computes the remaining-fraction candidate math for the whole running
    set, at every tick of a quiet run, as array expressions
    (:meth:`candidates`) instead of walking the per-cluster ``running``
    dicts in Python.

    The layout is a **dense live-row index**: rows ``[0, len(table))``
    are all live, and :meth:`remove` fills the hole it leaves by
    swapping the last live row down.  There are no dead slots to skip,
    so :meth:`candidates` does zero work proportional to anything but
    the live count — churn-heavy workloads no longer pay for their
    high-water mark on every tick (the old free-list layout needed a
    periodic compaction heuristic to merely bound that waste).

    Every insertion stamps a monotone sequence number and each tick's
    candidates come back sorted by (machine index, sequence) — the
    *reference* iteration order: clusters in machine-index order, then
    running-dict insertion order within a cluster.  The sort makes the swap
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
        self, ticks: list[float]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(tick, rows, remaining, frac_done)`` of every candidate pair.

        One broadcast pass over the live rows — and *only* the live
        rows: the dense layout means dead capacity is never touched —
        replays the reference filters for every tick in ``ticks``:
        positive segment length, not within 1e-9 s of the scheduled
        end, positive progress, more than 5% of the job left, with the
        exact float expressions of the scalar loop, so each tick's
        surviving set (and each survivor's remaining fraction) is
        bit-identical.  The kept ``(tick, row)`` pairs come back
        flattened once: ``tick`` indexes ``ticks`` and is
        non-decreasing, and within a tick ``rows`` are in (machine,
        insertion sequence) order — the reference dict-walk order.
        """
        n = len(self._slot_of)
        self.last_scan_rows = n
        order = np.lexsort((self.seq[:n], self.machine[:n]))
        start = self.start[order]
        end = self.end[order]
        rem = self.rem[order]
        ts = np.asarray(ticks, dtype=np.float64)[:, None]
        seg_total = end - start
        # Degenerate (zero-length) segments divide by zero here; their
        # rows are masked out below, so silence the transients.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            done = (ts - start) / seg_total
            frac_done = rem * done
            remaining = rem - frac_done
        keep = (
            (seg_total > 0)
            & (ts < end - 1e-9)
            & (done > 0)
            & (remaining > 0.05)
        )
        flat = np.flatnonzero(keep)
        tick, pos = np.divmod(flat, n)
        return tick, order[pos], remaining.ravel()[flat], frac_done.ravel()[flat]


class MigratingSimulator:
    """Event-driven simulation with periodic migration re-evaluation.

    Parameters
    ----------
    machines, method, policy:
        As for :class:`~repro.sim.engine.MultiClusterSimulator`.
    reevaluate_every_s:
        How often running jobs are reconsidered (hourly by default, the
        carbon-intensity resolution; ``inf`` never re-evaluates).
    overhead_s:
        Checkpoint + restart cost added to the remaining runtime on the
        target machine (charged at the target's idle power).
    min_saving:
        Minimum relative saving on the remaining cost required to move
        (hysteresis against flapping between machines).
    quote_table:
        Optional prebuilt
        :class:`~repro.accounting.pricing.QuoteTable` for the workload
        this simulator will run (e.g. from a sweep's shared
        :class:`~repro.accounting.pricing.QuoteTableCache`); skips the
        per-run quote-table build.  Validated against the workload at
        ``run()``.
    """

    __slots__ = (
        "machines",
        "method",
        "policy",
        "reevaluate_every_s",
        "overhead_s",
        "min_saving",
        "quote_table",
        "pricings",
        "_name_idx",
        "_idle_w",
        "multi_tick_batches",
        "multi_tick_ticks",
        "_ledger",
        "_owners",
        "_quoters",
        "_running",
        "_kernel",
    )

    #: Per-run state, rebuilt by every ``run()``: the deferred segment
    #: ledger and each entry's owner, the per-machine scalar probe
    #: quoters (closures hold per-run memo state), the columnar
    #: running-set mirror, and the workload's pricing kernel.
    _ledger: SegmentLedger
    _owners: list[_Progress]
    _quoters: dict[str, Callable[[float, float, int, float], float]]
    _running: RunningTable
    _kernel: PricingKernel

    def __init__(
        self,
        machines: dict[str, SimMachine],
        method: AccountingMethod,
        policy: Policy,
        reevaluate_every_s: float = 3600.0,
        overhead_s: float = 300.0,
        min_saving: float = 0.2,
        quote_table: QuoteTable | None = None,
    ) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN fails every
        # comparison, and a NaN period would never advance the clock.
        if not reevaluate_every_s > 0:
            raise ValueError("re-evaluation period must be positive")
        if not overhead_s >= 0:
            raise ValueError("overhead must be a non-negative number")
        if not 0.0 <= min_saving < 1.0:
            raise ValueError("min_saving must be in [0, 1)")
        self.machines = machines
        self.method = method
        self.policy = policy
        self.reevaluate_every_s = reevaluate_every_s
        self.overhead_s = overhead_s
        self.min_saving = min_saving
        self.quote_table = quote_table
        self.pricings = {
            name: pricing_for_sim_machine(m) for name, m in machines.items()
        }
        self._name_idx = {name: mi for mi, name in enumerate(self.pricings)}
        #: Idle watts per core, hoisted off the property chain (the probe
        #: paths read it once per move probe).
        self._idle_w = {
            name: m.idle_watts_per_core for name, m in machines.items()
        }
        #: Columnar passes that covered more than one tick / ticks those
        #: passes consumed (diagnostics and tests; cumulative across runs).
        self.multi_tick_batches = 0
        self.multi_tick_ticks = 0

    # ------------------------------------------------------------------
    # Segment economics
    # ------------------------------------------------------------------
    def _charge_segment(
        self,
        state: _Progress,
        fraction: float,
        with_overhead: bool,
    ) -> None:
        """Append one segment to the deferred ledger.

        The probe paths compose runtime and energy with these same
        expressions, in the same association order, so a probe prices
        exactly the segment it would bill.
        """
        job = state.job
        machine = state.segment_machine
        runtime = job.runtime_s[machine] * fraction
        energy = job.energy_j[machine] * fraction
        if with_overhead:
            runtime += self.overhead_s
            energy += self._idle_w[machine] * job.cores * self.overhead_s
        self._ledger.add(machine, state.segment_start_s, runtime, energy, job.cores)
        self._owners.append(state)

    def _settle_segments(self) -> None:
        """Price the whole segment ledger and replay the per-job sums.

        ``settle`` returns per-segment values in append order — the
        chronological order the seed loop charged in — so the ``+=``
        replay below performs the identical sequence of additions per
        job and the accumulated floats match bit for bit.
        """
        ledger = self._ledger
        if not len(ledger):
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

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> SimulationResult:
        clusters = {name: ClusterSim(m) for name, m in self.machines.items()}
        progress = {job.job_id: _Progress(job=job) for job in workload.jobs}
        #: job_id -> runtime its queued continuation needs on its target.
        pending_runtime: dict[int, float] = {}

        kernel = PricingKernel(
            workload.block(list(self.pricings)),
            self.pricings,
            self.method,
            table=self.quote_table,
        )
        self._kernel = kernel
        self._ledger = SegmentLedger(self.method, self.pricings)
        self._owners = []
        self._quoters = {
            name: self.method.probe_kernel(pricing)
            for name, pricing in self.pricings.items()
        }
        running_table = self._running = RunningTable()
        name_idx = self._name_idx
        static_views = kernel.static_views
        row_of = kernel.row_of
        every = self.reevaluate_every_s

        calendar = EventCalendar(workload.jobs)
        if workload.jobs:
            calendar.schedule_tick(workload.jobs[0].submit_s + every)

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
                views = [
                    MachineView(
                        name, rt, en, clusters[name].estimated_wait_s(now), cost
                    )
                    for name, rt, en, cost in static_views[row_of[job.job_id]]
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
                if len(running_table) >= VECTOR_MIN:
                    # Ticks before the next arrival/finish all see the
                    # same running set, so one columnar pass prices the
                    # whole quiet run; ``now`` advances to the last tick
                    # it consumed.
                    ticks = [now]
                    horizon = calendar.next_disturbance()
                    t = now + every
                    while len(ticks) < MULTI_TICK_MAX and t < horizon:
                        ticks.append(t)
                        t += every
                    moved, now = self._reevaluate_columnar(
                        clusters, pending_runtime, ticks
                    )
                else:
                    moved = self._reevaluate(
                        clusters, progress, pending_runtime, now
                    )
                if moved:
                    for cluster in clusters.values():
                        try_start(cluster, now)
                if active > 0:
                    calendar.schedule_tick(now + every)

        self._settle_segments()
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
    # Small running sets: dict walk + scalar probe kernels
    # ------------------------------------------------------------------
    def _reevaluate(
        self,
        clusters: dict[str, ClusterSim],
        progress: dict[int, _Progress],
        pending_runtime: dict[int, float],
        now: float,
    ) -> bool:
        """Preempt-and-requeue any running job with a big enough saving.

        Walks the per-cluster running dicts in reference order, prices
        each candidate's stay/move probes with the scalar probe kernels
        (:meth:`_probe_costs_indexed`), and decides per candidate.
        """
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]] = []
        for cluster in clusters.values():
            for job_id, entry in cluster.running.items():
                state = progress[job_id]
                job = state.job
                end_s = entry.end_s
                segment_total = end_s - state.segment_start_s
                if segment_total <= 0 or now >= end_s - 1e-9:
                    continue
                done_of_segment = (now - state.segment_start_s) / segment_total
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
        probe_costs, name_idx = self._probe_costs_indexed(
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
            self._running.remove(job_id)
            pending_runtime[job_id] = (
                job.runtime_s[best_name] * remaining + self.overhead_s
            )
            clusters[best_name].enqueue(job)
            moved_any = True
        return moved_any

    def _probe_costs_indexed(
        self,
        clusters: dict[str, ClusterSim],
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]],
        now: float,
    ) -> tuple[list[list[float]], dict[str, int]]:
        """Probe pricing through the per-machine scalar probe kernels.

        Candidate sets on this path are tiny (the running jobs of a few
        clusters), so fixed-overhead NumPy batches lose to plain float
        arithmetic; the probe kernels hoist every per-machine constant
        and memoize the single trace lookup a tick needs.  Segment
        scalars are composed with :meth:`_charge_segment`'s
        association order and the kernels replay ``charge()``'s IEEE
        operations, so probe costs (and therefore migration decisions)
        are bit-identical to per-record pricing.
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

    # ------------------------------------------------------------------
    # Large running sets: one columnar collect / probe / decide pass
    # ------------------------------------------------------------------
    def _reevaluate_columnar(
        self,
        clusters: dict[str, ClusterSim],
        pending_runtime: dict[int, float],
        ticks: list[float],
    ) -> tuple[bool, float]:
        """Re-evaluate a run of quiet ticks in one columnar pass.

        ``ticks`` are consecutive tick boundaries with no arrival or
        finish before any of them (see
        :meth:`~repro.sim.events.EventCalendar.next_disturbance`), so
        every tick sees the identical running set — until the first
        tick that moves something, which changes state and ends the
        run.  A single tick is the case ``len(ticks) == 1``.

        * **Collect** — :meth:`RunningTable.candidates` returns every
          kept ``(tick, row)`` pair, flattened once.
        * **Probe** — :meth:`_probe_pairs` prices every pair's
          stay/move probes with one ``charge_many`` per machine, each
          pair at its own tick.  The batch kernels are elementwise, so
          each element equals a per-tick batch bit for bit.
        * **Decide** — :meth:`_decide_and_apply_columnar` finds the
          first tick with a mover and applies that tick's movers.

        Ticks before the mover tick are consumed with no state change —
        exactly what a per-tick loop would do.  Returns ``(moved,
        now)`` where ``now`` is the last tick consumed; the caller
        resumes scheduling from there.
        """
        table = self._running
        tick, rows, remaining, frac_done = table.candidates(ticks)
        consumed = len(ticks)
        moved = False
        if len(rows):
            cur = table.machine[rows]
            starts = np.asarray(ticks, dtype=np.float64)[tick]
            costs = self._probe_pairs(rows, cur, remaining, starts)
            mover_tick = self._decide_and_apply_columnar(
                clusters, pending_runtime, tick, rows, cur, remaining, frac_done, costs
            )
            if mover_tick is not None:
                consumed = mover_tick + 1
                moved = True
        if len(ticks) > 1:
            self.multi_tick_batches += 1
            self.multi_tick_ticks += consumed
        return moved, ticks[consumed - 1]

    def _probe_pairs(
        self,
        rows: np.ndarray,
        cur: np.ndarray,
        remaining: np.ndarray,
        starts: np.ndarray,
    ) -> np.ndarray:
        """Stay/move probe costs of ``(tick, row)`` pairs, one
        ``charge_many`` per machine.

        Returns a ``(pair, machine)`` matrix, NaN where the job cannot
        run.  Composing a probe batch is pure array arithmetic over the
        :class:`RunningTable` and kernel columns: scale by the remaining
        fraction, add the checkpoint/restart overhead on the move rows,
        with :meth:`_charge_segment`'s association order.  Each pair is
        priced at its own tick (``starts``).
        """
        kernel = self._kernel
        idle_w = self._idle_w
        overhead = self.overhead_s
        method = self.method
        job_rows = self._running.job_row[rows]
        cores = kernel.cores[job_rows]
        out = np.full((len(rows), len(self._name_idx)), np.nan)
        for name, mi in self._name_idx.items():
            rt = kernel.runtime[name][job_rows]
            sub = np.flatnonzero(~np.isnan(rt))
            if not len(sub):
                continue
            rem_sub = remaining[sub]
            runtime = rt[sub] * rem_sub
            energy = kernel.energy[name][job_rows[sub]] * rem_sub
            cores_sub = cores[sub]
            move = cur[sub] != mi
            if move.any():
                runtime[move] += overhead
                energy[move] += idle_w[name] * cores_sub[move] * overhead
            batch = UsageBatch.unchecked(
                machine=name,
                duration_s=runtime,
                energy_j=energy,
                cores=cores_sub,
                start_time_s=starts[sub],
            )
            out[sub, mi] = method.charge_many(batch, self.pricings[name])
        return out

    def _decide_and_apply_columnar(
        self,
        clusters: dict[str, ClusterSim],
        pending_runtime: dict[int, float],
        tick: np.ndarray,
        rows: np.ndarray,
        cur: np.ndarray,
        remaining: np.ndarray,
        frac_done: np.ndarray,
        costs: np.ndarray,
    ) -> int | None:
        """Vectorized stay/move decision over every pair; apply the
        first tick that has a mover and return its index (``None`` when
        no pair moves).

        The decision is three array expressions instead of a Python
        walk per candidate:

        * ``stay`` is each pair's cost on its current machine;
        * the cheapest move is a row minimum over the move columns
          (current machine and ineligible machines masked to ``inf``);
        * a pair moves exactly when the scalar walk would —
          ``best < stay`` (the walk only replaces on a strict
          improvement) **and** ``best <= stay * (1 - min_saving)``
          (the hysteresis gate, with the identical IEEE expression).

        The winning machine replays the scalar walk's tie-breaking
        through the quote table's ``elig_rank``: the walk keeps the
        *first* machine, in the job's own eligibility order, that
        reaches the row minimum, so among the columns equal to that
        minimum the smallest eligibility rank is the identical winner.
        Only the mover tick's movers are then applied, in candidate
        order — the (machine index, insertion seq) order the walk
        iterates — so preempt/requeue order on the target clusters is
        unchanged.
        """
        table = self._running
        kernel = self._kernel
        n = len(rows)
        pairs = np.arange(n)
        stay = costs[pairs, cur]
        move = np.where(np.isnan(costs), np.inf, costs)
        move[pairs, cur] = np.inf
        best_cost = move.min(axis=1)
        movers = (best_cost < stay) & (
            best_cost <= stay * (1.0 - self.min_saving)
        )
        if not movers.any():
            return None
        j = int(tick[movers.argmax()])
        mk = np.flatnonzero(movers & (tick == j))
        ranks = kernel.elig_rank[table.job_row[rows[mk]]]
        tied = move[mk] == best_cost[mk, None]
        best_mi = np.where(tied, ranks, ELIG_RANK_INELIGIBLE).argmin(axis=1)
        names = kernel.machine_names
        overhead = self.overhead_s
        # Swap-with-last removal renumbers rows, so resolve every
        # mover's state before the first remove invalidates the indices.
        mover_states = [table.states[row] for row in rows[mk].tolist()]
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
            table.remove(job.job_id)
            pending_runtime[job.job_id] = (
                job.runtime_s[best_name] * rem + overhead
            )
            clusters[best_name].enqueue(job)
        return j

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
