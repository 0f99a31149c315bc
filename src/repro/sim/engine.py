"""The event-driven multi-cluster simulation loop.

Replays a workload against a set of machines under one selection policy
and one accounting method.  The engine reuses the *same* accounting
implementations as the FaaS platform (``repro.accounting``): each
machine gets a :class:`~repro.accounting.base.MachinePricing` spanning
its whole fleet, so Eq. (1)/(2) shares scale correctly for multi-node
jobs.

Event order is deterministic: (time, sequence) keys, arrivals before
finishes at equal times, so a seeded workload yields identical results
across runs.

One event loop
--------------
:meth:`MultiClusterSimulator.run` is a single loop over submit-ordered
job *chunks*.  A :class:`~repro.sim.workload.StreamingWorkload` delivers
many; an in-memory :class:`~repro.sim.workload.Workload` is one chunk.
Pricing follows the quote-table / settle contract of
:mod:`repro.accounting.pricing`:

1. each chunk gets a quote-table shard from a
   :class:`~repro.accounting.pricing.ShardedPricingKernel`, which
   **precomputes** every arrival-time (submission-quote) charge of the
   chunk with one vectorized
   :meth:`~repro.accounting.base.AccountingMethod.charge_many` call per
   machine (arrival time *is* the submit time — EBA charges are
   time-invariant and CBA varies only with the hour bucket of the
   cyclic trace).  An in-memory run's shard may adopt a prebuilt
   ``quote_table``; a shard retires once its last job settles;
2. finished jobs are **settled** in vectorized blocks of up to
   ``spill_block_jobs`` (a block also closes when a chunk loads)
   (:meth:`~repro.accounting.pricing.ShardedPricingKernel.price_block`)
   and appended to an :class:`~repro.accounting.spill.OutcomeSpillStore`
   — in memory by default, as ``.npz`` segments under ``spill_dir``.

The loop is **row-indexed**: no :class:`~repro.sim.job.Job` or
per-machine view object is built between the quote shard and
settlement.  An arrival is its row in the chunk
(:class:`~repro.sim.events.EventCalendar` payload); the policy's
:meth:`~repro.sim.policies.Policy.select` gets that row's quote tuples
plus one wait estimate per eligible machine and returns an index; the
chosen cluster queues a ``(job_id, user, cores, runtime)`` tuple; and
the finish log holds ``(job_id, machine code, start, end)`` entries that
:meth:`~repro.accounting.pricing.ShardedPricingKernel.price_block`
settles.  A chunk that arrives as a job list is columnized first
(:meth:`~repro.sim.job.JobBlock.from_jobs`).

Each chunk's arrivals are spliced into the calendar before the next
pop, so event order equals that of a run that saw the whole workload at
once, and the completion-ordered blocks back one
:class:`SimulationResult` whatever the chunking.  The vectorized pricing
is bit-identical to pricing record by record; the seed-loop port in the
test suite is the reference it is checked against.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.accounting.base import AccountingMethod, MachinePricing
from repro.accounting.pricing import (
    FloatArray,
    IntArray,
    OutcomeTable,
    Quote,
    QuoteTable,
    ShardedPricingKernel,
)
from repro.accounting.spill import OutcomeSpillStore
from repro.sim.cluster import ClusterSim
from repro.sim.events import ARRIVAL, EventCalendar
from repro.sim.job import JobBlock, JobOutcome
from repro.sim.policies import Policy
from repro.sim.scenarios import SimMachine
from repro.sim.workload import JobChunk, StreamingWorkload, Workload

#: Finished jobs settled (and spilled) per block.
DEFAULT_SPILL_BLOCK_JOBS = 32_768

#: One eligibility walk of a chunk: its machines' codes, clusters and
#: names, in the walk's order.
_Walk = tuple[tuple[int, ...], tuple[ClusterSim, ...], tuple[str, ...]]

#: What a chunk's arrivals read by row (see ``MultiClusterSimulator.run``):
#: the quotes, the walks they index, and the job ids, users and cores.
_Chunk = tuple[list[Quote], list[_Walk], list[int], list[int], list[int]]


def _running_sums(column: FloatArray, carry: float | None) -> FloatArray:
    """Left-to-right running sums of ``column``, continuing from ``carry``.

    ``np.cumsum`` accumulates sequentially, so this reproduces the exact
    floats of the reference ``total += x`` loops — which matters because
    budget queries compare a *running* spend against totals and must not
    disagree by an ulp (``np.sum`` pairwise summation would).  Prepending
    the carry of earlier blocks continues the identical addition chain;
    the first block seeds it, so there is no spurious leading ``0.0 +``.
    """
    if carry is None:
        return np.cumsum(column)
    return np.cumsum(np.concatenate(([carry], column)))[1:]


def _chained_sum(columns: Iterable[FloatArray]) -> float:
    """Left-to-right sum of the concatenated ``columns``, one at a time."""
    carry: float | None = None
    for values in columns:
        if len(values):
            carry = float(_running_sums(values, carry)[-1])
    return 0.0 if carry is None else carry


def _end_order(end_s: FloatArray) -> slice | IntArray:
    """Stable end-time order of one block's rows.

    Engine blocks are slices of the completion-ordered finish log, so
    theirs is the identity (a ``slice``, which indexes without copying
    or sorting); only rows built in another order get an ``argsort``.
    """
    if np.all(end_s[1:] >= end_s[:-1]):
        return slice(None)
    return np.argsort(end_s, kind="stable")


def pricing_for_sim_machine(machine: SimMachine) -> MachinePricing:
    """Fleet-wide pricing view for one simulation machine.

    ``total_cores`` spans every node, and the embodied rate override is
    the Table 5 per-node rate scaled to the fleet, so a job's share
    ``cores / total_cores`` charges exactly
    ``node_rate * cores / cores_per_node`` — linear in cores, correct
    across node boundaries.
    """
    node = machine.node
    return MachinePricing(
        name=machine.name,
        total_cores=machine.total_cores,
        tdp_watts=node.tdp_watts * node.node_count,
        peak_rating=node.peak_gflops_per_core,
        embodied_carbon_g=node.embodied_carbon_g * node.node_count,
        age_years=0,  # unused: the rate override below wins
        intensity=machine.intensity,
        carbon_rate_override_g_per_h=machine.carbon_rate_g_per_h
        * node.node_count,
    )


# repro-lint: disable=RPL007 (one object per run, not per row; the lazy table cache lives in __dict__ so pickling across sweep workers stays layout-stable)
class SimulationResult:
    """All job outcomes of one (policy, method) simulation run.

    The rows are a sequence of completion-ordered column blocks
    (:class:`~repro.accounting.pricing.OutcomeTable`) held by an
    :class:`~repro.accounting.spill.OutcomeSpillStore`
    (``result.store``): an in-memory result is one block, a long run
    spills many.  Construct with ``store=`` (the engine) or with one
    block as ``table=`` or ``outcomes=``.

    Every aggregate has one body: it walks the blocks with carried
    accumulators, taking each block in stable end-time order.  On one
    block that is a whole-table stable sort + ``cumsum``; on many it is
    exact because the blocks are consecutive slices of the
    completion-ordered finish log (end times never decrease across
    blocks) and ``np.cumsum`` / ``np.add.at`` accumulate sequentially,
    so a carried partial sum replays the whole-column left-to-right
    accumulation bit for bit.  Blocks load one at a time, so a budget
    query on a spilled result reads no segment past its cutoff.

    :attr:`table` and :attr:`outcomes` materialize (and cache) every
    row; on a spilled result that defeats the flat-memory point, so
    aggregate through the methods instead.
    """

    def __init__(
        self,
        policy: str,
        method: str,
        machines: list[str],
        outcomes: list[JobOutcome] | None = None,
        table: OutcomeTable | None = None,
        store: OutcomeSpillStore | None = None,
        shard_stats: dict[str, int] | None = None,
    ) -> None:
        if sum(arg is not None for arg in (outcomes, table, store)) != 1:
            raise ValueError("pass exactly one of outcomes=, table= or store=")
        if store is None:
            if table is None:
                table = OutcomeTable.from_rows(outcomes or [], machines)
            store = OutcomeSpillStore(table.machines)
            store.append(table)
        self.policy = policy
        self.method = method
        self.machines = list(machines)
        self.store = store
        #: Shard lifecycle counters of the engine's pricing kernel
        #: (built/retired/peak live); empty for results built from rows.
        self.shard_stats = dict(shard_stats or {})

    # ------------------------------------------------------------------
    @property
    def table(self) -> OutcomeTable:
        """Every row as one table (built once, then cached)."""
        cached = self.__dict__.get("_table_cache")
        if cached is None:
            cached = self.__dict__["_table_cache"] = self.store.materialize()
        return cached

    @property
    def outcomes(self) -> list[JobOutcome]:
        """Lazy row view over :attr:`table` (built once, then cached)."""
        return self.table.rows()

    def iter_tables(self) -> Iterator[OutcomeTable]:
        """The result as completion-ordered column blocks, one at a time.

        An in-memory result is one block (an empty result one empty
        block); a spilled result loads its segments one by one, so
        consumers that aggregate with carried accumulators (e.g.
        :func:`repro.reporting.fleet_report`) never hold all rows.
        """
        if len(self.store):
            return self.store.blocks()
        return iter((self.table,))

    def _ordered(self) -> Iterator[tuple[OutcomeTable, slice | IntArray]]:
        """Each block with its stable end-time order, one block at a time."""
        return ((block, _end_order(block.end_s)) for block in self.iter_tables())

    def _affordable(
        self, budget: float
    ) -> Iterator[tuple[OutcomeTable, slice | IntArray, int]]:
        """Walk the blocks in completion order while ``budget`` lasts.

        Yields each block, its end order, and how many of its ordered
        rows fit the running spend; stops after the block where the
        budget runs out.
        """
        if budget < 0:
            raise ValueError("budget cannot be negative")
        carry: float | None = None
        for block, order in self._ordered():
            if not len(block):
                continue
            spent = _running_sums(block.cost[order], carry)
            cut = int(np.searchsorted(spent > budget, True))
            yield block, order, cut
            if cut < len(block):
                return
            carry = float(spent[-1])

    def _total(self, column: Callable[[OutcomeTable], FloatArray]) -> float:
        """Left-to-right sum of a column over every row, in row order."""
        return _chained_sum(column(block) for block in self.iter_tables())

    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.store)

    @property
    def makespan_s(self) -> float:
        return max(
            (float(b.end_s.max()) for b in self.iter_tables() if len(b)), default=0.0
        )

    def total_cost(self) -> float:
        return self._total(lambda b: b.cost)

    def total_energy_j(self) -> float:
        return self._total(lambda b: b.energy_j)

    def total_work_core_hours(self) -> float:
        return self._total(lambda b: b.work_core_hours)

    def total_operational_carbon_g(self) -> float:
        return self._total(lambda b: b.operational_carbon_g)

    def total_attributed_carbon_g(self) -> float:
        return self._total(lambda b: b.attributed_carbon_g)

    def mean_queue_wait_s(self) -> float:
        n = self.n_jobs
        return self._total(lambda b: b.start_s - b.submit_s) / n if n else 0.0

    # ------------------------------------------------------------------
    def jobs_with_budget(self, budget: float) -> int:
        """Jobs completed before a fixed allocation runs out.

        Jobs are consumed in completion order; once cumulative cost
        exceeds ``budget`` the remaining jobs are outside the allocation
        (Fig. 5a / Fig. 6 semantics)."""
        return sum(cut for _, _, cut in self._affordable(budget))

    def work_with_budget(self, budget: float) -> float:
        """Core-hours of work completed before a fixed allocation runs out."""
        return _chained_sum(
            block.work_core_hours[order][:cut]
            for block, order, cut in self._affordable(budget)
        )

    def jobs_finished_by(self, times_s: list[float]) -> list[int]:
        """Cumulative jobs finished at each query time (Fig. 5b)."""
        times = np.asarray(times_s)
        counts = np.zeros(len(times), dtype=np.int64)
        for block, order in self._ordered():
            counts += np.searchsorted(block.end_s[order], times, side="right")
        return counts.tolist()

    def machine_distribution(self) -> dict[str, int]:
        """Jobs per machine (Fig. 5c)."""
        names = self.store.machines
        counts = np.zeros(len(names), dtype=np.int64)
        for block in self.iter_tables():
            counts += np.bincount(block.machine_code, minlength=len(names))
        dist = {m: 0 for m in self.machines}
        for name, count in zip(names, counts.tolist()):
            if count or name in dist:
                dist[name] = dist.get(name, 0) + count
        return dist

    def user_balances(self) -> dict[int, float]:
        """Settled cost per user — the credit-ledger view of a run.

        ``np.add.at`` is unbuffered and applies repeated indices in row
        order, so each user's balance is the same left-to-right float
        accumulation as the reference ``balance[user] += cost`` loop.
        """
        if not self.n_jobs:
            return {}
        users = np.unique(
            np.concatenate([np.unique(b.user) for b in self.iter_tables()])
        )
        acc = np.zeros(len(users))
        for block in self.iter_tables():
            np.add.at(acc, np.searchsorted(users, block.user), block.cost)
        return {int(u): float(v) for u, v in zip(users, acc)}

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_table_cache", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(policy={self.policy!r}, method={self.method!r}, "
            f"n_jobs={self.n_jobs}, blocks={self.store.n_blocks})"
        )


def _chunk_block(chunk: JobChunk, machine_names: Sequence[str]) -> JobBlock:
    """A stream chunk as the columns it runs from: a block as is, a job
    list columnized."""
    if isinstance(chunk, JobBlock):
        return chunk
    return JobBlock.from_jobs(chunk, machine_names)


class MultiClusterSimulator:
    """Simulates one policy over one workload.

    Parameters
    ----------
    machines:
        The scenario's machines (name -> :class:`SimMachine`).
    method:
        Accounting method that prices jobs (and that Greedy/Mixed see).
    policy:
        The machine-selection policy under study.
    quote_table:
        Optional prebuilt
        :class:`~repro.accounting.pricing.QuoteTable` for the in-memory
        workload this simulator will run (e.g. from a sweep's shared
        :class:`~repro.accounting.pricing.QuoteTableCache`); the run's
        one chunk adopts it instead of pricing the workload, which
        dominates short runs.  Validated against the workload at
        ``run()``; streamed runs build a shard per chunk and reject it.
    spill_dir:
        Directory for the outcome spill store's ``.npz`` segments.
        ``None`` (the default) keeps settled blocks in memory; pass a
        directory for archive-scale traces.
    spill_block_jobs:
        Finished jobs settled (and spilled) per block; a block also
        closes when the next chunk loads.  Any value yields
        bit-identical results; it only trades settlement batch
        efficiency against peak memory.
    """

    __slots__ = (
        "machines",
        "method",
        "policy",
        "quote_table",
        "spill_dir",
        "spill_block_jobs",
        "pricings",
    )

    def __init__(
        self,
        machines: dict[str, SimMachine],
        method: AccountingMethod,
        policy: Policy,
        quote_table: QuoteTable | None = None,
        spill_dir: str | None = None,
        spill_block_jobs: int = DEFAULT_SPILL_BLOCK_JOBS,
    ) -> None:
        if not machines:
            raise ValueError("need at least one machine")
        if spill_block_jobs < 1:
            raise ValueError("spill_block_jobs must be >= 1")
        self.machines = machines
        self.method = method
        self.policy = policy
        self.quote_table = quote_table
        self.spill_dir = spill_dir
        self.spill_block_jobs = spill_block_jobs
        self.pricings = {
            name: pricing_for_sim_machine(m) for name, m in machines.items()
        }

    def run(self, workload: Workload | StreamingWorkload) -> SimulationResult:
        """Run the full workload to completion and collect outcomes.

        Events come from the shared :class:`~repro.sim.events.EventCalendar`
        (one ``(time, kind, seq)`` discipline): arrivals are consumed
        from the submit-sorted chunk and only *finishes* live in the
        heap — at equal times arrivals still precede finishes, and ties
        within a kind keep submission/push order, exactly as the seed
        loop ordered them.

        The next chunk is loaded as soon as the current one's last
        arrival has been handled — before the next pop, so the merge
        always sees the globally next arrival.  Quotes come from the
        newest chunk's shard (every arrival belongs to it), and finished
        jobs settle in blocks of at most ``spill_block_jobs``, closed
        early when a chunk loads.  A chunk may therefore reuse the id of
        any job that has finished, but not of one still queued or
        running (:class:`ValueError` naming the id).  Peak memory
        is O(chunk + in-flight jobs + one block), plus the settled
        blocks when the spill store keeps them in memory.
        """
        names = list(self.pricings)
        blocks: Iterator[JobBlock]
        if isinstance(workload, StreamingWorkload):
            if self.quote_table is not None:
                raise ValueError(
                    "a prebuilt quote table cannot back a streaming run; "
                    "shards are built per chunk"
                )
            blocks = (_chunk_block(chunk, names) for chunk in workload.chunks())
            source = workload.source
        else:
            blocks = iter((workload.block(names),))
            source = "<memory>"
        #: Clusters by machine code (the quote tables' machine index).
        clusters = [ClusterSim(self.machines[name]) for name in names]
        kernel = ShardedPricingKernel(self.pricings, self.method, workload_token=source)
        calendar = EventCalendar()
        store = OutcomeSpillStore(kernel.machine_names, directory=self.spill_dir)
        #: The finish log not yet settled: (job_id, machine code,
        #: start_s, end_s), in completion order.
        pending: list[tuple[int, int, float, float]] = []
        block_jobs = self.spill_block_jobs

        def settle_pending() -> None:
            store.append(kernel.price_block(pending))
            pending.clear()

        def load_next_chunk() -> _Chunk:
            """Load the next non-empty chunk and return what its arrivals
            read by row: the quotes, the walks they index, and the job
            ids, users and cores.

            Jobs that have finished are settled first, so the chunk's
            id check sees exactly the jobs still queued or running.
            """
            for block in blocks:
                if len(block):
                    if pending:
                        settle_pending()
                    table = kernel.load_chunk(block, self.quote_table).kernel
                    calendar.refill(table.submit)
                    walks = [
                        (walk, tuple(clusters[mi] for mi in walk), walk_names)
                        for walk, walk_names in zip(table.walks, table.walk_names)
                    ]
                    return (
                        table.quotes,
                        walks,
                        table.job_id.tolist(),
                        table.user.tolist(),
                        table.cores.tolist(),
                    )
            return [], [], [], [], []

        schedule_finish = calendar.schedule_finish
        select = self.policy.select

        def try_start(code: int, cluster: ClusterSim, now: float) -> None:
            if cluster.free_cores <= 0 or not cluster.queue_length:
                return
            for job_id, end in cluster.startable(now):
                #: Finish payload: (machine code, job_id, start time).
                schedule_finish(end, (code, job_id, now))

        try:
            quotes, walks, job_ids, users, cores = load_next_chunk()
            while True:
                event = calendar.pop()
                if event is None:
                    break
                now, kind, payload = event
                if kind == ARRIVAL:
                    row: int = payload  # type: ignore[assignment]
                    walk, runtime, energy, cost = quotes[row]
                    codes, candidates, machine_names = walks[walk]
                    if candidates:
                        wait = [c.estimated_wait_s(now) for c in candidates]
                        i = select(machine_names, runtime, energy, wait, cost)
                        cluster = candidates[i]
                        cluster.enqueue(
                            (job_ids[row], users[row], cores[row], runtime[i])
                        )
                        try_start(codes[i], cluster, now)
                    else:
                        kernel.discard(job_ids[row])
                    if not calendar.arrivals_pending:
                        quotes, walks, job_ids, users, cores = load_next_chunk()
                else:
                    code, job_id, start_s = payload  # type: ignore[misc]
                    cluster = clusters[code]
                    cluster.finish(job_id)
                    pending.append((job_id, code, start_s, now))
                    if len(pending) >= block_jobs:
                        settle_pending()
                    try_start(code, cluster, now)
            if pending:
                settle_pending()
        except BaseException:
            # A mid-flight failure (bad chunk, raising policy, pricing
            # error) must not strand spilled ``block-*.npz`` segments on
            # disk: on success the store's lifetime transfers to the
            # returned result, but on the error path nobody else holds
            # it, so unlink the segments before propagating.
            store.close()
            raise
        return SimulationResult(
            policy=self.policy.name,
            method=self.method.name,
            machines=list(self.machines),
            store=store,
            shard_stats={
                "built": kernel.shards_built,
                "retired": kernel.shards_retired,
                "peak_live": kernel.peak_live_shards,
            },
        )
