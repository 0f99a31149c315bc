"""Parallel policy-sweep engine.

The paper's headline results (Figs. 5-7, Table 6) replay one workload
through eight scheduling policies under two accounting methods.  Every
cell of that (scenario x policy x method x seed) grid is an independent
deterministic simulation, so the sweep parallelises perfectly: the
:class:`SweepRunner` fans tasks across the worker pool of
:class:`~repro.sim.sweep_service.SweepService` and returns exactly the
results a serial loop would produce, in task order.  There is one pool:
a plain sweep gets the service's crash retry and deduplication, with no
result store behind it.

Warm state
----------
Workload generation and quote-table pricing are the expensive set-up
steps, so the runner *warms* the caller-supplied memoized
``scenario``/``workload`` builders and one
:class:`~repro.accounting.pricing.QuoteTable` per distinct
``(scenario, scale, seed, method)`` in the parent before the pool
starts.  Fork workers inherit all of it copy-on-write.  Non-fork pools
(``mp_context="spawn"``/``"forkserver"``) cannot inherit, so the pool
ships each cached quote table as a :mod:`multiprocessing.shared_memory`
block: a worker attaches zero-copy column views (one attach per
(worker, table), counted in the ``shm_attached`` cache statistic) and
assembles the workload's jobs bit-identically from the table's own
:class:`~repro.sim.job.JobBlock`.  A table that cannot be shipped
(shared memory exhausted) is rebuilt by the workers instead, with the
same bits.

Worker results come back as shared-memory blocks too: a worker copies
the outcome columns into one block and sends only its descriptor, and
the parent copies them out and unlinks the block.  If a block cannot be
created the result is pickled instead.

The quote-table cache is **bounded**: an LRU policy of
:data:`DEFAULT_KERNEL_CACHE_SIZE` tables (:func:`set_quote_table_capacity`
changes it) keeps a long-lived process that sweeps thousands of
distinct configurations at flat memory.  Eviction never changes
results: an evicted table rebuilds bit-identically on the next request.
Hit/miss/eviction counters surface through
:func:`quote_table_cache_stats` and :meth:`SweepRunner.cache_stats`.

Shared schedules
----------------
A policy whose :attr:`~repro.sim.policies.Policy.reads_cost` is
``False`` schedules a workload the same way under every accounting
method.  :meth:`SweepRunner.run` therefore simulates each
(scenario, scale, seed, policy) of such a policy once — its first task
in task order, the *leader* — and settles the leader's schedule under
each other method in the parent
(:meth:`~repro.accounting.pricing.PricingKernel.price_outcomes`).  The
split is fixed by the task list before dispatch, so the work a sweep
does never depends on which worker takes which task.

Worker count resolution order: explicit ``workers=`` argument, the
:func:`set_default_workers` override (the CLI's ``--jobs``), the
``REPRO_SWEEP_WORKERS`` environment variable, then ``os.cpu_count()``.
``workers=1`` runs serially in-process; results are identical either
way (the determinism tests assert bit-equality).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from repro.accounting.base import AccountingMethod
from repro.accounting.methods import method_by_name
from repro.accounting.pricing import (
    PricingKernel,
    QuoteTable,
    QuoteTableCache,
    QuoteTableCacheStats,
    QuoteTableKey,
    QuoteTableShm,
)
from repro.sim.engine import (
    MultiClusterSimulator,
    SimulationResult,
    pricing_for_sim_machine,
)
from repro.sim.policies import (
    FixedMachinePolicy,
    LargestFirstPolicy,
    Policy,
    standard_policies,
)
from repro.sim.scenarios import SimMachine
from repro.sim.workload import Workload, WorkloadConfig

#: Environment knob capping sweep parallelism (laptops, CI).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment knob forcing the pool's multiprocessing start method
#: ("fork", "spawn", "forkserver"); empty/unset keeps fork where
#: available (the platform default elsewhere).  Results are
#: bit-identical under every context; non-fork pools receive quote
#: tables through shared memory instead of inheriting them.
MP_CONTEXT_ENV = "REPRO_SWEEP_MP_CONTEXT"

#: LRU bound on the quote-table cache.  Sized to the workload
#: memoization lifecycle it rides on: the experiment driver memoizes at
#: most 4 live workloads (``repro.experiments._simulation.workload``,
#: ``lru_cache(maxsize=4)``) times two §5 methods, so 16 keeps every
#: table a live workload can request resident with headroom, while a
#: long-lived process sweeping thousands of distinct (scenario, scale,
#: seed, method) configurations stays at flat memory.
DEFAULT_KERNEL_CACHE_SIZE = 16

#: Process-wide quote-table cache.  Deliberately module-level: the
#: parent populates it in :meth:`SweepRunner._warm` *before* the pool
#: starts, so fork workers inherit every built table copy-on-write and
#: non-fork pools ship what it holds.  Tables are immutable once built
#: and the LRU bound only frees memory — an evicted key rebuilds a
#: bit-identical table; see
#: :class:`~repro.accounting.pricing.QuoteTableCache`.
_QUOTE_TABLES = QuoteTableCache(capacity=DEFAULT_KERNEL_CACHE_SIZE)

#: Workloads reconstructed from attached quote tables, keyed like the
#: table cache.  Non-fork workers fill this on first attach so the
#: remaining tasks of a sweep reuse the rebuilt job list instead of
#: looping over the columns again — the non-fork analogue of the fork
#: path's memoized ``workload_fn``.  Never populated under fork.
_ATTACHED_WORKLOADS: dict[QuoteTableKey, Workload] = {}


def clear_quote_tables() -> None:
    """Drop every cached quote table and reset its counters (tests;
    long-lived processes that want the memory back immediately)."""
    _QUOTE_TABLES.clear()
    _ATTACHED_WORKLOADS.clear()


def set_quote_table_capacity(capacity: int | None) -> None:
    """Re-bound the process-wide quote-table cache at runtime.

    ``None`` removes the bound; shrinking below the current size evicts
    least-recently-used tables immediately.
    """
    _QUOTE_TABLES.resize(capacity)


def quote_table_cache_stats() -> QuoteTableCacheStats:
    """Size, bound, and hit/miss/eviction counters of the process-wide
    quote-table cache (what :meth:`SweepRunner.cache_stats` returns).

    Counters reflect *this* process: the parent's warm-phase builds and
    any serial (``workers=1``) lookups.  Pool workers report their own
    traffic per task; :attr:`SweepRunner.last_worker_cache_stats` sums
    it.
    """
    return _QUOTE_TABLES.stats()


def _cache_delta(before: QuoteTableCacheStats) -> QuoteTableCacheStats:
    """Quote-table cache counter deltas since ``before`` (size and
    capacity are the live values)."""
    after = _QUOTE_TABLES.stats()
    return QuoteTableCacheStats(
        size=after.size,
        capacity=after.capacity,
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        evictions=after.evictions - before.evictions,
        shm_attached=after.shm_attached - before.shm_attached,
    )


_workers_override: int | None = None


def set_default_workers(workers: int | None) -> None:
    """Process-wide default worker count (the CLI's ``--jobs N``).

    ``None`` restores env/cpu-count resolution."""
    global _workers_override
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    _workers_override = workers


def resolve_workers(explicit: int | None = None) -> int:
    """The worker count a sweep will actually use."""
    if explicit is not None:
        return max(1, int(explicit))
    if _workers_override is not None:
        return _workers_override
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer {WORKERS_ENV}={env!r}; "
                "falling back to the CPU count",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, os.cpu_count() or 1)


def resolve_mp_context(explicit: str | None = None) -> str | None:
    """The pool's start method: ``explicit``, else ``REPRO_SWEEP_MP_CONTEXT``,
    else ``None`` (fork where available).  Rejects names the platform
    does not support."""
    if explicit is None:
        explicit = os.environ.get(MP_CONTEXT_ENV, "").strip() or None
    if explicit is not None:
        available = multiprocessing.get_all_start_methods()
        if explicit not in available:
            raise ValueError(
                f"unknown multiprocessing start method {explicit!r}; "
                f"this platform supports {available}"
            )
    return explicit


def policy_by_name(name: str) -> Policy:
    """Instantiate a policy from its table name.

    Resolves the eight §5.3 policies plus the tiered fleets'
    ``LargestFirst`` (kept out of :func:`standard_policies` so the
    paper's 8-policy grids stay exactly the paper's); any other name
    becomes a single-machine policy, matching how the paper labels the
    Theta/IC/FASTER rows by machine.
    """
    for policy in standard_policies():
        if policy.name == name:
            return policy
    if name == LargestFirstPolicy.name:
        return LargestFirstPolicy()
    return FixedMachinePolicy(name)


@dataclass(frozen=True)
class SweepTask:
    """One cell of the sweep grid."""

    scenario: str
    policy: str
    method: str
    scale: int
    seed: int = 0


def sweep_grid(
    scenarios: Iterable[str],
    policies: Iterable[str],
    methods: Iterable[str],
    scales: Iterable[int],
    seeds: Iterable[int] = (0,),
) -> list[SweepTask]:
    """The full cartesian task grid, in deterministic order."""
    return [
        SweepTask(scenario=sc, policy=p, method=m, scale=n, seed=s)
        for sc, m, n, s, p in product(scenarios, methods, scales, seeds, policies)
    ]


def _shared_schedules(tasks: Sequence[SweepTask]) -> dict[SweepTask, SweepTask]:
    """Map each follower task to its leader.

    Tasks of one (scenario, scale, seed, policy) whose policy does not
    read costs share one schedule whatever the method: the first of them
    in task order leads, and each other task of the group follows it.
    A repeat of the leader itself is not a follower.  Fixed by the task
    list alone, so a sweep does the same work however its tasks are
    spread over workers.
    """
    leaders: dict[tuple[str, int, int, str], SweepTask] = {}
    leader_of: dict[SweepTask, SweepTask] = {}
    for task in tasks:
        if policy_by_name(task.policy).reads_cost:
            continue
        group = (task.scenario, task.scale, task.seed, task.policy)
        leader = leaders.setdefault(group, task)
        if task != leader:
            leader_of[task] = leader
    return leader_of


def _build_quote_table(
    machines: Mapping[str, SimMachine], workload: Workload, method: AccountingMethod
) -> QuoteTable:
    """Price ``workload`` on ``machines`` under ``method``."""
    pricings = {name: pricing_for_sim_machine(m) for name, m in machines.items()}
    return QuoteTable.build(workload.block(list(pricings)), pricings, method)


class SweepRunner:
    """Fans simulation tasks over the sweep pool with shared memoized inputs.

    Parameters
    ----------
    scenario_fn:
        ``(scenario_name, seed) -> machines`` (a mapping or an iterable
        of ``(name, SimMachine)`` pairs).  Should be memoized by the
        caller; :mod:`repro.experiments._simulation` supplies one.
    workload_fn:
        ``(scenario_name, scale, seed) -> Workload``; likewise memoized.
    method_fn:
        ``method_name -> AccountingMethod`` (defaults to the §4.2 table
        lookup).
    workers:
        Parallelism cap; see the module docstring for resolution order.
    mp_context:
        Multiprocessing start method for the worker pool ("fork",
        "spawn", "forkserver").  ``None`` resolves from
        ``REPRO_SWEEP_MP_CONTEXT``, then falls back to fork where
        available.  Results are bit-identical under every context; see
        the module docstring for how warm state reaches non-fork
        workers.
    """

    def __init__(
        self,
        scenario_fn: Callable[
            ..., Mapping[str, SimMachine] | Iterable[tuple[str, SimMachine]]
        ],
        workload_fn: Callable[..., Workload],
        method_fn: Callable[[str], AccountingMethod] = method_by_name,
        workers: int | None = None,
        mp_context: str | None = None,
    ) -> None:
        self.scenario_fn = scenario_fn
        self.workload_fn = workload_fn
        self.method_fn = method_fn
        self.workers = resolve_workers(workers)
        self.mp_context = resolve_mp_context(mp_context)
        #: Quote-table cache traffic of the most recent :meth:`run`
        #: (counter deltas), or ``None`` before any run completed.
        self.last_cache_stats: QuoteTableCacheStats | None = None
        #: Summed *worker-side* cache traffic of the most recent
        #: parallel :meth:`run` (each task's delta rides back with its
        #: result), or ``None`` after a serial run.  Under fork this
        #: shows pure hits (workers inherit the warmed cache); under
        #: spawn it shows one miss + ``shm_attached`` per (worker,
        #: table) pair and hits for every other task.
        self.last_worker_cache_stats: QuoteTableCacheStats | None = None
        #: Quote tables a non-fork pool shipped to this process, keyed
        #: like the cache.  Set by the pool worker that owns this
        #: runner; :meth:`run_task` attaches one on a cache miss.
        self._shipped: Mapping[QuoteTableKey, QuoteTableShm] = {}

    # ------------------------------------------------------------------
    def _quote_table_key(
        self, task: SweepTask, machines: Mapping[str, SimMachine]
    ) -> QuoteTableKey:
        """Cache identity of a task's quote table.

        The workload token is the ``workload_fn`` memoization key
        ``(scenario, scale, seed)`` — the caller's contract is that
        those three determine the job list — plus the method name and
        the ordered machine set the table is priced against.
        """
        return QuoteTableKey(
            workload=(task.scenario, task.scale, task.seed),
            method=task.method,
            machines=tuple(machines),
        )

    def run_task(self, task: SweepTask) -> SimulationResult:
        """Run one grid cell (in this process).

        The task's quote table is resolved with exactly one cache
        lookup: a hit adopts the shared table; a miss is satisfied by
        attaching a shipped shared-memory block (non-fork workers;
        counted in ``shm_attached``) or else by building from the
        generated workload.  A worker holding an attached table also
        skips workload generation: the jobs are assembled once per
        (worker, table) from the table's own block, bit-identically.
        """
        machines = dict(self.scenario_fn(task.scenario, task.seed))
        policy = policy_by_name(task.policy)
        if (
            isinstance(policy, FixedMachinePolicy)
            and policy.machine not in machines
        ):
            # A fixed policy for a machine the scenario lacks is almost
            # always a typo'd policy name; failing loudly beats silently
            # reporting fastest-eligible placements under a wrong label.
            raise KeyError(
                f"unknown policy {task.policy!r}: neither a standard policy "
                f"nor a machine of scenario {task.scenario!r} "
                f"(machines: {sorted(machines)})"
            )
        method = self.method_fn(task.method)
        key = self._quote_table_key(task, machines)
        workload: Workload | None = None
        quote_table = _QUOTE_TABLES.get(key)
        if quote_table is None:
            descriptor = self._shipped.get(key)
            if descriptor is None:
                workload = self.workload_fn(task.scenario, task.scale, task.seed)
                quote_table = _build_quote_table(machines, workload, method)
            else:
                quote_table = QuoteTable.attach(descriptor)
                try:
                    # The attached block holds the exact stored doubles
                    # and each job's machine order, so these jobs are
                    # the generator's, bit for bit.
                    _ATTACHED_WORKLOADS[key] = Workload.from_block(
                        quote_table.block,
                        WorkloadConfig(n_base_jobs=max(1, len(quote_table))),
                    )
                except BaseException:
                    quote_table.release()
                    raise
                # From here the cache owns the mapping and release()s it
                # on eviction or clear; the pool unlinks the block.
                _QUOTE_TABLES.shm_attached += 1
            _QUOTE_TABLES.store(key, quote_table)
        if workload is None:
            workload = _ATTACHED_WORKLOADS.get(key)
        if workload is None:
            workload = self.workload_fn(task.scenario, task.scale, task.seed)
        simulator = MultiClusterSimulator(
            machines, method, policy, quote_table=quote_table
        )
        return simulator.run(workload)

    def run(self, tasks: Sequence[SweepTask]) -> dict[SweepTask, SimulationResult]:
        """Run every task; returns ``{task: result}`` in task order.

        Deterministic regardless of parallelism: each simulation is
        independent and internally deterministic, so scheduling order
        cannot change any result.  A policy that does not read costs
        (:attr:`~repro.sim.policies.Policy.reads_cost` is ``False``) is
        simulated once per (scenario, scale, seed): the first such task
        leads, and every other method of that group settles the
        leader's schedule in this process
        (:meth:`~repro.accounting.pricing.PricingKernel.price_outcomes`),
        with the bits its own simulation would give.  With more than
        one worker the simulated tasks run on a
        :class:`~repro.sim.sweep_service.SweepService` pool without a
        result store, opened after the warm-up and closed before this
        returns; a task that fails raises
        :class:`~repro.sim.sweep_service.SweepTaskError`.
        """
        tasks = list(tasks)
        if not tasks:
            return {}
        stats_before = _QUOTE_TABLES.stats()
        self._warm(tasks)
        leader_of = _shared_schedules(tasks)
        simulated = [task for task in tasks if task not in leader_of]
        workers = min(self.workers, len(tasks))
        if workers <= 1:
            results = {task: self.run_task(task) for task in simulated}
            self.last_worker_cache_stats = None
        else:
            from repro.sim.sweep_service import SweepService

            service = SweepService(
                self.scenario_fn,
                self.workload_fn,
                self.method_fn,
                store=None,
                workers=workers,
                mp_context=self.mp_context,
            )
            try:
                results = service.run(simulated)
            finally:
                service.close()
            self.last_worker_cache_stats = service.worker_cache_stats
        for follower, leader in leader_of.items():
            results[follower] = self._settle_follower(follower, results[leader])
        out = {task: results[task] for task in tasks}
        self.last_cache_stats = _cache_delta(stats_before)
        return out

    def _settle_follower(
        self, task: SweepTask, leader: SimulationResult
    ) -> SimulationResult:
        """``task``'s result from its leader's schedule: one counted
        quote-table lookup, then a settlement under ``task``'s method."""
        machines = dict(self.scenario_fn(task.scenario, task.seed))
        method = self.method_fn(task.method)
        quote_table = _QUOTE_TABLES.get_or_build(
            self._quote_table_key(task, machines),
            lambda: _build_quote_table(
                machines,
                self.workload_fn(task.scenario, task.scale, task.seed),
                method,
            ),
        )
        pricings = {name: pricing_for_sim_machine(m) for name, m in machines.items()}
        kernel = PricingKernel(quote_table.block, pricings, method, table=quote_table)
        return SimulationResult(
            policy=leader.policy,
            method=method.name,
            machines=list(machines),
            table=kernel.price_outcomes(leader.table),
        )

    def cache_stats(self) -> QuoteTableCacheStats:
        """Live counters of the process-wide quote-table cache (see
        :func:`quote_table_cache_stats` for scope caveats)."""
        return _QUOTE_TABLES.stats()

    # ------------------------------------------------------------------
    def _warm(self, tasks: Sequence[SweepTask]) -> None:
        """Build each distinct scenario, workload and quote table once
        in this process, before any worker starts.

        The quote-table cache's LRU bound is deliberately *not* grown
        to fit a wide sweep — flat memory is the bound's whole point —
        so a sweep whose distinct-table working set exceeds the bound
        only prewarms the first ``capacity`` distinct tables (warming
        more would build tables just to evict them before any task ran)
        and later configurations build on demand, staying resident for
        their own contiguous task block.  That costs time, never
        correctness; warn so the operator can call
        :func:`set_quote_table_capacity` instead of paying the rebuilds
        silently.
        """
        capacity = _QUOTE_TABLES.capacity
        kernel_warm_budget = None
        if capacity is not None:
            distinct = {
                (task.scenario, task.scale, task.seed, task.method)
                for task in tasks
            }
            if len(distinct) > capacity:
                kernel_warm_budget = capacity
                warnings.warn(
                    f"sweep needs {len(distinct)} distinct quote tables "
                    f"but the cache is bounded at {capacity}; only the "
                    f"first {capacity} are prewarmed and later "
                    "configurations rebuild on demand (call "
                    "set_quote_table_capacity to avoid the rebuilds)",
                    RuntimeWarning,
                    stacklevel=3,
                )
        kernel_keys_warmed = 0
        seen: set[tuple] = set()
        for task in tasks:
            scenario_key = (task.scenario, task.seed)
            if ("s", *scenario_key) not in seen:
                seen.add(("s", *scenario_key))
                self.scenario_fn(*scenario_key)
            workload_key = (task.scenario, task.scale, task.seed)
            if ("w", *workload_key) not in seen:
                seen.add(("w", *workload_key))
                self.workload_fn(*workload_key)
            kernel_key = (*workload_key, task.method)
            if ("k", *kernel_key) not in seen:
                seen.add(("k", *kernel_key))
                if (
                    kernel_warm_budget is not None
                    and kernel_keys_warmed >= kernel_warm_budget
                ):
                    continue
                kernel_keys_warmed += 1
                machines = dict(self.scenario_fn(*scenario_key))
                _QUOTE_TABLES.get_or_build(
                    self._quote_table_key(task, machines),
                    lambda: _build_quote_table(
                        machines,
                        self.workload_fn(*workload_key),
                        self.method_fn(task.method),
                    ),
                )
