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
* stay/move probes at a re-evaluation tick go through the per-machine
  :meth:`~repro.accounting.base.AccountingMethod.probe_kernel` closures
  — hoisted per-machine constants, no record construction;
* finished or preempted segments are appended to a
  :class:`~repro.accounting.pricing.SegmentLedger` and settled in one
  vectorized pass after the run, with per-job sums replayed in append
  order.

A re-evaluation tick walks the per-cluster ``running`` dicts in
machine order, probes each candidate's stay/move costs, and decides per
candidate, keeping the first eligible machine among tied costs.  The
probe kernels replay ``charge()``'s exact IEEE operations, so outcomes
are **bit-identical** to the seed's per-record loop, which the test
suite keeps as its oracle for all five accounting methods.

Events come from the shared :class:`~repro.sim.events.EventCalendar`:
arrivals are consumed from the submit-sorted submit column (an
arrival's payload is its row, mapped back to ``workload.jobs[row]``),
only finishes live in the heap, and the single outstanding
re-evaluation boundary is a scalar tick — the same ``(time, kind,
seq)`` order as the seed's all-in-one heap, without pushing every
arrival through it.  A finish carries its segment's generation; a
preempted segment's finish no longer matches the job's and is dropped.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.accounting.base import AccountingMethod
from repro.accounting.pricing import PricingKernel, QuoteTable, SegmentLedger
from repro.sim.cluster import ClusterSim
from repro.sim.engine import SimulationResult, pricing_for_sim_machine
from repro.sim.events import ARRIVAL, FINISH, EventCalendar
from repro.sim.job import Job, JobOutcome
from repro.sim.policies import Policy
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
    #: Generation of the job's segment: bumped when a segment is
    #: preempted, so a finish scheduled for it is recognisably stale.
    segment: int = 0


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
    )

    #: Per-run state, rebuilt by every ``run()``: the deferred segment
    #: ledger and each entry's owner, and the per-machine scalar probe
    #: quoters (closures hold per-run memo state).
    _ledger: SegmentLedger
    _owners: list[_Progress]
    _quoters: dict[str, Callable[[float, float, int, float], float]]

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
        #: Always 0; perfbench's ``migration_cba`` workload reads them.
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
        self._ledger = SegmentLedger(self.method, self.pricings)
        self._owners = []
        self._quoters = {
            name: self.method.probe_kernel(pricing)
            for name, pricing in self.pricings.items()
        }
        quotes = kernel.quotes
        walk_names = kernel.walk_names
        walk_clusters = [
            tuple(clusters[name] for name in names) for names in walk_names
        ]
        every = self.reevaluate_every_s
        jobs = workload.jobs

        calendar = EventCalendar(kernel.submit)
        if jobs:
            calendar.schedule_tick(jobs[0].submit_s + every)

        #: Finish log: (job_id, end time), in completion order.
        finish_log: list[tuple[int, float]] = []
        active = len(jobs)

        def try_start(cluster: ClusterSim, now: float) -> None:
            for job_id, _ in cluster.startable(now):
                state = progress[job_id]
                if state.first_start_s is None:
                    state.first_start_s = now
                state.segment_start_s = now
                state.segment_machine = cluster.name
                state.is_continuation = job_id in pending_runtime
                runtime = pending_runtime.get(
                    job_id, state.job.runtime_s[cluster.name]
                )
                end = now + runtime
                # ClusterSim scheduled the full runtime; continuations
                # carry only their remainder.
                cluster.reschedule_end(job_id, end)
                calendar.schedule_finish(end, (cluster.name, job_id, state.segment))

        while calendar and active > 0:
            now, kind, payload = calendar.pop()

            if kind == ARRIVAL:
                row: int = payload  # type: ignore[assignment]
                job = jobs[row]
                walk, runtime, energy, cost = quotes[row]
                candidates = walk_clusters[walk]
                if not candidates:
                    active -= 1
                    continue
                wait = [c.estimated_wait_s(now) for c in candidates]
                i = self.policy.select(walk_names[walk], runtime, energy, wait, cost)
                cluster = candidates[i]
                cluster.enqueue((job.job_id, job.user, job.cores, runtime[i]))
                try_start(cluster, now)

            elif kind == FINISH:
                machine_name, job_id, segment = payload  # type: ignore[misc]
                state = progress[job_id]
                if segment != state.segment:
                    continue  # stale event from a migrated segment
                cluster = clusters[machine_name]
                cluster.finish(job_id)
                self._charge_segment(
                    state, state.remaining_fraction, state.is_continuation
                )
                state.remaining_fraction = 0.0
                pending_runtime.pop(job_id, None)
                finish_log.append((job_id, now))
                active -= 1
                try_start(cluster, now)

            else:  # TICK: periodic migration re-evaluation
                if self._reevaluate(clusters, progress, pending_runtime, now):
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
    # Re-evaluation: dict walk + scalar probe kernels
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
            for job_id, (_, end_s) in cluster.running.items():
                state = progress[job_id]
                job = state.job
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
        probe_costs = self._probe_costs_indexed(clusters, candidates, now)
        name_idx = self._name_idx

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
            self._migrate(
                clusters,
                pending_runtime,
                state,
                cluster,
                best_name,
                remaining,
                frac_done,
            )
            moved_any = True
        return moved_any

    def _migrate(
        self,
        clusters: dict[str, ClusterSim],
        pending_runtime: dict[int, float],
        state: _Progress,
        cluster: ClusterSim,
        target: str,
        remaining: float,
        frac_done: float,
    ) -> None:
        """Bill a running job's partial segment, release it from
        ``cluster`` and requeue its continuation on ``target``.

        The preempted segment's finish event stays in the calendar; the
        generation bump makes it stale.  The continuation queues with
        the job's full runtime on ``target``, as a fresh job would, and
        starts with only ``pending_runtime``: the remainder plus the
        checkpoint/restart overhead.
        """
        job = state.job
        job_id = job.job_id
        self._charge_segment(state, frac_done, state.is_continuation)
        state.remaining_fraction = remaining
        state.migrations += 1
        state.segment += 1
        cluster.finish(job_id)
        runtime = job.runtime_s[target]
        pending_runtime[job_id] = runtime * remaining + self.overhead_s
        clusters[target].enqueue((job_id, job.user, job.cores, runtime))

    def _probe_costs_indexed(
        self,
        clusters: dict[str, ClusterSim],
        candidates: list[tuple[ClusterSim, int, _Progress, Job, float, float]],
        now: float,
    ) -> list[list[float]]:
        """Probe pricing through the per-machine scalar probe kernels.

        Candidate sets are small (a tick of the low-carbon migration
        benchmark sees about five running jobs), so fixed-overhead NumPy
        batches lose to plain float arithmetic; the probe kernels hoist
        every per-machine constant and memoize the single trace lookup
        a tick needs.  Segment
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
        return out

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
