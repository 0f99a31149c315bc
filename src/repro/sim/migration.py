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

One event loop
--------------
A run has no loop of its own: it extends the engine's
(:meth:`MultiClusterSimulator.run
<repro.sim.engine.MultiClusterSimulator.run>`) with a
:class:`_MigrationRun`, which keeps state only for jobs queued or
running.  Ticks probe stay/move costs with the per-machine
:meth:`~repro.accounting.base.AccountingMethod.probe_kernel` closures,
which replay ``charge()``'s exact IEEE operations, and billed segments
are settled through a :class:`~repro.accounting.pricing.SegmentLedger`,
so outcomes are **bit-identical** to the seed's per-record loop, the
test suite's oracle for all five accounting methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accounting.base import AccountingMethod
from repro.accounting.pricing import FloatArray, QuoteTable, SegmentLedger
from repro.sim.cluster import ClusterSim
from repro.sim.engine import MultiClusterSimulator, SimulationResult
from repro.sim.policies import Policy
from repro.sim.scenarios import SimMachine
from repro.sim.workload import StreamingWorkload, Workload

#: A tick candidate: cluster, job id, state, fraction left, fraction done.
_Candidate = tuple[ClusterSim, int, "_Progress", float, float]


@dataclass(slots=True)
class _Progress:
    """One job in flight: its quote row and its segments so far."""

    cores: int
    #: The job's clusters in its eligibility order, and its runtime and
    #: energy on each; ``at`` indexes the one that queues or runs it.
    clusters: tuple[ClusterSim, ...]
    runtime: tuple[float, ...]
    energy: tuple[float, ...]
    at: int
    remaining_fraction: float = 1.0
    energy_j: float = 0.0
    cost: float = 0.0
    operational_g: float = 0.0
    attributed_g: float = 0.0
    first_start_s: float = 0.0
    segment_start_s: float = 0.0
    #: The continuation's runtime; ``None`` until the job first moves.
    resume_s: float | None = None
    #: Segment generation: a move bumps it, making the finish scheduled
    #: for the preempted segment stale.
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
        :class:`~repro.accounting.pricing.QuoteTable` for the in-memory
        workload this simulator will run (e.g. from a sweep's shared
        :class:`~repro.accounting.pricing.QuoteTableCache`); skips the
        per-run quote-table build.  Validated against the workload at
        ``run()``.
    """

    __slots__ = (
        "machines",
        "method",
        "policy",
        "engine",
        "reevaluate_every_s",
        "overhead_s",
        "min_saving",
        "_idle_w",
    )

    #: Always 0; perfbench's ``migration_cba`` workload reads them.
    multi_tick_batches = multi_tick_ticks = 0

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
        #: The loop every run extends.
        self.engine = MultiClusterSimulator(
            machines, method, policy, quote_table=quote_table
        )
        self.reevaluate_every_s = reevaluate_every_s
        self.overhead_s = overhead_s
        self.min_saving = min_saving
        #: Idle watts per core, hoisted off the property chain (the probe
        #: paths read it once per move probe).
        self._idle_w = {
            name: m.idle_watts_per_core for name, m in machines.items()
        }

    def run(self, workload: Workload | StreamingWorkload) -> SimulationResult:
        """Run the workload on the engine's loop, extended by migration."""
        result = self.engine.run(workload, _MigrationRun(self))
        result.policy = f"{self.policy.name}+migrate"
        return result


class _MigrationRun:
    """One run's migration state: the hook the engine's loop calls
    at arrival, tick, start, finish and settle."""

    __slots__ = ("sim", "every", "live", "finished", "ledger", "owners", "quoters")

    def __init__(self, sim: MigratingSimulator) -> None:
        pricings = sim.engine.pricings
        self.sim = sim
        self.every = sim.reevaluate_every_s
        #: job_id -> state, for every job queued or running.
        self.live: dict[int, _Progress] = {}
        #: Jobs finished since the last settle, in completion order.
        self.finished: list[_Progress] = []
        #: Segments billed since the last settle, and the job of each.
        self.ledger = SegmentLedger(sim.method, pricings)
        self.owners: list[_Progress] = []
        #: Scalar probe quoters (closures hold per-run memo state).
        self.quoters = {
            name: sim.method.probe_kernel(pricing)
            for name, pricing in pricings.items()
        }

    def arrive(
        self,
        job_id: int,
        cores: int,
        clusters: tuple[ClusterSim, ...],
        runtime: tuple[float, ...],
        energy: tuple[float, ...],
        at: int,
    ) -> None:
        self.live[job_id] = _Progress(cores, clusters, runtime, energy, at)

    def start(
        self, code: int, cluster: ClusterSim, job_id: int, now: float
    ) -> tuple[float, tuple[int, int, _Progress, int]]:
        state = self.live[job_id]
        state.segment_start_s = now
        if state.resume_s is None:
            state.first_start_s = now
            end = now + state.runtime[state.at]
        else:
            # ClusterSim scheduled the full runtime; continuations
            # carry only their remainder.
            end = now + state.resume_s
            cluster.reschedule_end(job_id, end)
        return end, (code, job_id, state, state.segment)

    def finish(
        self, payload: tuple[int, int, _Progress, int]
    ) -> tuple[int, int, float] | None:
        code, job_id, state, segment = payload
        if segment != state.segment:
            return None  # a preempted segment's finish
        del self.live[job_id]
        self._charge_segment(state, state.remaining_fraction)
        self.finished.append(state)
        return code, job_id, state.first_start_s

    def tick(self, clusters: list[ClusterSim], now: float) -> bool:
        return self._reevaluate(clusters, now)

    def settle(self) -> list[FloatArray]:
        """The energy, cost, operational and attributed columns of the
        jobs finished since the last settle.

        The ledger prices its segments in append order, the seed loop's
        charging order, so the ``+=`` replay sums each job bit for bit
        as the seed does, however the ledger is cut into blocks.
        """
        ledger = self.ledger
        if len(ledger):
            cost, operational, attributed = ledger.settle()
            for state, e, c, o, a in zip(
                self.owners,
                ledger.energy,
                cost.tolist(),
                operational.tolist(),
                attributed.tolist(),
            ):
                state.energy_j += e
                state.cost += c
                state.operational_g += o
                state.attributed_g += a
            self.ledger = SegmentLedger(ledger.method, ledger.pricings)
            self.owners = []
        done, self.finished = self.finished, []
        return [
            np.array([s.energy_j for s in done]),
            np.array([s.cost for s in done]),
            np.array([s.operational_g for s in done]),
            np.array([s.attributed_g for s in done]),
        ]

    def _charge_segment(self, state: _Progress, fraction: float) -> None:
        """Bill one segment; a continuation's carries the overhead.  The
        probes compose their operands the same way, in the same order."""
        at = state.at
        machine = state.clusters[at].name
        runtime = state.runtime[at] * fraction
        energy = state.energy[at] * fraction
        if state.resume_s is not None:
            overhead = self.sim.overhead_s
            runtime += overhead
            energy += self.sim._idle_w[machine] * state.cores * overhead
        self.ledger.add(machine, state.segment_start_s, runtime, energy, state.cores)
        self.owners.append(state)

    def _reevaluate(self, clusters: list[ClusterSim], now: float) -> bool:
        """Preempt-and-requeue any running job with a big enough saving.

        Walks the running dicts in machine order, prices each
        candidate's stay/move probes (:meth:`_probe_costs_indexed`), and
        decides per candidate, keeping the first of tied targets.
        """
        live = self.live
        candidates: list[_Candidate] = []
        for cluster in clusters:
            for job_id, (_, end_s) in cluster.running.items():
                state = live[job_id]
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
                candidates.append((cluster, job_id, state, remaining, frac_done))
        if not candidates:
            return False
        keep = 1.0 - self.sim.min_saving
        moved_any = False
        for candidate, costs in zip(
            candidates, self._probe_costs_indexed(candidates, now)
        ):
            at = candidate[2].at
            best, best_cost = at, costs[at]
            for k, cost in enumerate(costs):
                if k != at and cost < best_cost:
                    best, best_cost = k, cost
            if best == at or best_cost > costs[at] * keep:
                continue
            self._migrate(candidate, best)
            moved_any = True
        return moved_any

    def _migrate(self, candidate: _Candidate, target: int) -> None:
        """Bill a running job's partial segment, release it, and requeue
        its continuation on ``clusters[target]`` with its full runtime
        there, as a fresh job would; it starts with only ``resume_s``.
        Its running segment's finish stays in the calendar, made stale
        by the generation bump."""
        cluster, job_id, state, remaining, frac_done = candidate
        self._charge_segment(state, frac_done)
        state.remaining_fraction = remaining
        state.segment += 1
        _, user, cores, _ = cluster.finish(job_id)
        runtime = state.runtime[target]
        state.at = target
        state.resume_s = runtime * remaining + self.sim.overhead_s
        state.clusters[target].enqueue((job_id, user, cores, runtime))

    def _probe_costs_indexed(
        self, candidates: list[_Candidate], now: float
    ) -> list[list[float]]:
        """Each candidate's cost on each of its machines, in its
        eligibility order: its remainder where it runs, plus the
        overhead elsewhere.  Tick candidate sets are small, so scalar
        probe kernels (one trace lookup per tick, memoized) beat NumPy
        batches; on :meth:`_charge_segment`'s operands they price
        exactly what a move would bill."""
        quoters = self.quoters
        idle_w = self.sim._idle_w
        overhead = self.sim.overhead_s
        out: list[list[float]] = []
        for _cluster, _job_id, state, remaining, _frac in candidates:
            cores = state.cores
            row = []
            for k, (cluster, rt, en) in enumerate(
                zip(state.clusters, state.runtime, state.energy)
            ):
                runtime = rt * remaining
                energy = en * remaining
                if k != state.at:
                    runtime += overhead
                    energy += idle_w[cluster.name] * cores * overhead
                row.append(quoters[cluster.name](runtime, energy, cores, now))
            out.append(row)
        return out
