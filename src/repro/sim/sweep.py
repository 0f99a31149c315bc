"""Parallel policy-sweep engine.

The paper's headline results (Figs. 5-7, Table 6) replay one workload
through eight scheduling policies under two accounting methods.  Every
cell of that (scenario x policy x method x seed) grid is an independent
deterministic simulation, so the sweep parallelises perfectly: the
:class:`SweepRunner` fans tasks across a ``ProcessPoolExecutor`` and
returns exactly the results a serial loop would produce, in task order.

Workload sharing
----------------
Workload generation is the second-most expensive step, so the runner
*warms* the caller-supplied memoized ``scenario``/``workload`` builders
in the parent process before forking; on fork-capable platforms every
worker then inherits the generated workload copy-on-write instead of
regenerating (or unpickling) it.  Non-fork pools (``mp_context=
"spawn"``/``"forkserver"``, or platforms without fork) cannot inherit,
so with the kernel cache on the runner *ships* each warmed quote table
to workers as a :mod:`multiprocessing.shared_memory` block: a worker
attaches zero-copy column views (one attach per (worker, table),
counted in the ``shm_attached`` cache statistic) and assembles the
workload's jobs bit-identically from the table's own
:class:`~repro.sim.job.JobBlock` — no workload regeneration, no
re-pricing.  Only with the kernel cache
*off* do non-fork workers fall back to regenerating through the
memoized functions.

Shared-memory result return
---------------------------
At paper scale (``scale=71_190``) the *results* dominate sweep IPC:
142k outcomes per task used to be pickled row by row through the
executor pipe.  Because a :class:`SimulationResult` is backed by the
columnar :class:`~repro.accounting.pricing.OutcomeTable`, each worker
now copies the raw column buffers into a
:mod:`multiprocessing.shared_memory` block and sends only a tiny
descriptor (name + dtypes + shapes) through the pipe; the parent
reattaches, rebuilds the arrays, and unlinks the block.  No NumPy data
is pickled, and the reconstruction is an exact byte copy, so results
are bit-identical to the in-process path.  Set ``shared_memory=False``
(or ``REPRO_SWEEP_SHM=0``) to fall back to pickled returns; workers
also fall back automatically if a shared block cannot be created.

Quote-table sharing
-------------------
Short engine runs pay a visible fraction of their time just building
the per-run :class:`~repro.accounting.pricing.PricingKernel` quote
tables, and every task of a sweep over the same (workload, method,
machine set) builds the *same* tables.  The runner therefore warms one
:class:`~repro.accounting.pricing.QuoteTable` per distinct
``(scenario, scale, seed, method)`` in the parent process before
forking; workers inherit the built tables copy-on-write and each run
adopts them instead of re-pricing the workload.  A quote table is a
pure function of its key, so results are bit-identical with the cache
on or off.  Set ``kernel_cache=False`` (or
``REPRO_SWEEP_KERNEL_CACHE=0``) to rebuild per task.

The cache is **bounded**: an LRU policy (default
:data:`DEFAULT_KERNEL_CACHE_SIZE` tables, ``REPRO_SWEEP_KERNEL_CACHE_SIZE``
to change it, ``0`` for unbounded) keeps a long-lived process that
sweeps thousands of distinct (scenario, scale, seed, method)
configurations at flat memory.  Eviction never changes results — an
evicted table rebuilds bit-identically on the next request — and
hit/miss/eviction counters are surfaced through
:func:`quote_table_cache_stats` / :meth:`SweepRunner.cache_stats`.

Worker count resolution order: explicit ``workers=`` argument, the
:func:`set_default_workers` override (the CLI's ``--jobs``), the
``REPRO_SWEEP_WORKERS`` environment variable, then ``os.cpu_count()``.
``workers=1`` runs serially in-process — results are identical either
way (the determinism test asserts bit-equality).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from repro.accounting.base import AccountingMethod
from repro.accounting.methods import method_by_name
from repro.accounting.pricing import (
    OutcomeTable,
    OutcomeTableShm,
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
#: ("fork", "spawn", "forkserver"); empty/unset keeps the platform
#: default (fork where available).  Speed/transport only — results are
#: bit-identical under every context — but spawn-context pools change
#: *how* warm state reaches workers: quote tables are shipped through
#: shared memory instead of inherited copy-on-write.
MP_CONTEXT_ENV = "REPRO_SWEEP_MP_CONTEXT"

#: Environment knob disabling shared-memory result return ("0"/"false").
SHM_ENV = "REPRO_SWEEP_SHM"

#: Environment knob disabling the cross-run quote-table cache
#: ("0"/"false"): every task then rebuilds its pricing kernel from
#: scratch, the pre-cache behaviour.
KERNEL_CACHE_ENV = "REPRO_SWEEP_KERNEL_CACHE"

#: Environment knob bounding the quote-table cache (read once at
#: import): the maximum number of distinct (workload, method, machine
#: set) tables held at once.  ``0`` or a negative value removes the
#: bound; use :func:`set_quote_table_capacity` to change it at runtime.
KERNEL_CACHE_SIZE_ENV = "REPRO_SWEEP_KERNEL_CACHE_SIZE"

#: Default LRU bound on the quote-table cache.  Sized to the workload
#: memoization lifecycle it rides on: the experiment driver memoizes at
#: most 4 live workloads (``repro.experiments._simulation.workload``,
#: ``lru_cache(maxsize=4)``) times two §5 methods, so 16 keeps every
#: table a live workload can request resident with headroom, while a
#: long-lived process sweeping thousands of distinct (scenario, scale,
#: seed, method) configurations stays at flat memory.
DEFAULT_KERNEL_CACHE_SIZE = 16


def _resolve_cache_capacity() -> int | None:
    """The quote-table LRU bound from the environment (None=unbounded)."""
    raw = os.environ.get(KERNEL_CACHE_SIZE_ENV)
    if raw is None or raw.strip() == "":
        return DEFAULT_KERNEL_CACHE_SIZE
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {KERNEL_CACHE_SIZE_ENV}={raw!r}; "
            f"using the default bound of {DEFAULT_KERNEL_CACHE_SIZE}",
            RuntimeWarning,
            stacklevel=2,
        )
        return DEFAULT_KERNEL_CACHE_SIZE
    return None if value <= 0 else value


#: Process-wide quote-table cache.  Deliberately module-level: the
#: parent populates it in :meth:`SweepRunner._warm` *before* the pool
#: forks, so workers inherit every built table copy-on-write instead of
#: receiving (or rebuilding) them per task.  Tables are immutable once
#: built and the LRU bound only frees memory — an evicted key rebuilds
#: a bit-identical table; see
#: :class:`~repro.accounting.pricing.QuoteTableCache`.
_QUOTE_TABLES = QuoteTableCache(capacity=_resolve_cache_capacity())

#: Workloads reconstructed from attached quote tables, keyed like the
#: table cache.  Spawn-context workers fill this on first attach so the
#: remaining tasks of a sweep reuse the rebuilt job list instead of
#: looping over the columns again — the spawn-side analogue of the
#: fork path's memoized ``workload_fn``.  Never populated under fork.
_ATTACHED_WORKLOADS: dict[QuoteTableKey, Workload] = {}


def clear_quote_tables() -> None:
    """Drop every cached quote table and reset its counters (tests;
    long-lived processes that want the memory back immediately)."""
    _QUOTE_TABLES.clear()
    _ATTACHED_WORKLOADS.clear()


def set_quote_table_capacity(capacity: int | None) -> None:
    """Re-bound the process-wide quote-table cache at runtime.

    ``None`` removes the bound; shrinking below the current size evicts
    least-recently-used tables immediately.  The environment knob
    ``REPRO_SWEEP_KERNEL_CACHE_SIZE`` is read once at import, so
    processes that change it later should call this instead.
    """
    _QUOTE_TABLES.resize(capacity)


def quote_table_cache_stats() -> QuoteTableCacheStats:
    """Size, bound, and hit/miss/eviction counters of the process-wide
    quote-table cache (what :meth:`SweepRunner.cache_stats` returns).

    Counters reflect *this* process: the parent's warm-phase builds and
    any serial (``workers=1``) lookups.  Forked workers operate on a
    copy-on-write snapshot, so their hits are not aggregated here.
    """
    return _QUOTE_TABLES.stats()


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


def _stats_delta(before: QuoteTableCacheStats) -> QuoteTableCacheStats:
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


def _execute(runner: "SweepRunner", task: SweepTask):
    """Worker entry point for pickled returns: ``(result, stats)``
    where ``stats`` is this task's cache-counter delta *in the worker
    process* (the parent aggregates them per sweep)."""
    before = _QUOTE_TABLES.stats()
    result = runner.run_task(task)
    return result, _stats_delta(before)


# ---------------------------------------------------------------------------
# Pickle-free result transport
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class _ResultShm:
    """Picklable envelope a worker ships instead of a pickled result:
    the :class:`~repro.accounting.pricing.OutcomeTableShm` block
    descriptor plus the scalar result identity."""

    table: OutcomeTableShm
    policy: str
    method: str
    machines: Sequence[str]


def _result_to_shm(result: SimulationResult) -> _ResultShm:
    """Copy a result's column blocks into one shared-memory block and
    return the picklable envelope the parent rebuilds it from.

    Blocks are packed one at a time straight off the result's store
    (:meth:`OutcomeTable.stream_to_shm`), never materialized: spill
    segments live in the worker's filesystem/tempdir and must not
    outlive the worker, yet only one block of rows is resident here
    while the parent receives the full concatenated columns.  The block
    is handed off: the parent unlinks it after :func:`_result_from_shm`
    copies out, or via :meth:`SweepRunner.run`'s abort-path sweep."""
    descriptor = OutcomeTable.stream_to_shm(
        result.iter_tables(), result.n_jobs, result.store.machines, hand_off=True
    )
    return _ResultShm(
        table=descriptor,
        policy=result.policy,
        method=result.method,
        machines=result.machines,
    )


def _result_from_shm(payload: _ResultShm) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from a worker's envelope,
    copying the columns out and unlinking the shared block."""
    try:
        table = OutcomeTable.attach(payload.table)
    finally:
        payload.table.unlink()
    return SimulationResult(
        policy=payload.policy,
        method=payload.method,
        machines=list(payload.machines),
        table=table,
    )


def _execute_shm(runner: "SweepRunner", task: SweepTask):
    """Worker entry point for shared-memory returns: ``(payload, stats)``
    where ``payload`` is the block descriptor — or, when a shared block
    cannot be created, the (picklable) result itself; the parent handles
    both shapes.
    """
    before = _QUOTE_TABLES.stats()
    result = runner.run_task(task)
    try:
        payload = _result_to_shm(result)
    except OSError:
        payload = result
    return payload, _stats_delta(before)


class SweepRunner:
    """Fans simulation tasks over processes with shared memoized inputs.

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
    shared_memory:
        Return worker results through :mod:`multiprocessing.shared_memory`
        instead of pickling them (default; see the module docstring).
        ``None`` resolves from ``REPRO_SWEEP_SHM``.
    kernel_cache:
        Share one prebuilt
        :class:`~repro.accounting.pricing.QuoteTable` per distinct
        ``(workload, method, machine set)`` across the sweep's runs
        (default; ``None`` resolves from ``REPRO_SWEEP_KERNEL_CACHE``).
        :meth:`_warm` builds each distinct table once in the parent so
        forked workers inherit it copy-on-write; non-fork pools receive
        the same tables through shared memory instead (see
        ``mp_context``).  Short engine runs then stop paying the kernel
        construction per task.  Results are bit-identical either way —
        a quote table is a pure function of its key.
    mp_context:
        Multiprocessing start method for the worker pool ("fork",
        "spawn", "forkserver").  ``None`` resolves from
        ``REPRO_SWEEP_MP_CONTEXT``, then falls back to fork where
        available (the platform default elsewhere).  Transport only —
        results are bit-identical under every context — but non-fork
        pools cannot inherit the warmed caches, so the runner ships
        each warmed quote table to workers as a
        :mod:`multiprocessing.shared_memory` block: workers attach
        zero-copy views (counted in
        :attr:`~repro.accounting.pricing.QuoteTableCacheStats.shm_attached`)
        and assemble the workload's jobs from the table's block
        instead of regenerating it.
    """

    def __init__(
        self,
        scenario_fn: Callable[
            ..., Mapping[str, SimMachine] | Iterable[tuple[str, SimMachine]]
        ],
        workload_fn: Callable[..., Workload],
        method_fn: Callable[[str], AccountingMethod] = method_by_name,
        workers: int | None = None,
        shared_memory: bool | None = None,
        kernel_cache: bool | None = None,
        mp_context: str | None = None,
    ) -> None:
        self.scenario_fn = scenario_fn
        self.workload_fn = workload_fn
        self.method_fn = method_fn
        self.workers = resolve_workers(workers)
        if mp_context is None:
            mp_context = os.environ.get(MP_CONTEXT_ENV, "").strip() or None
        if mp_context is not None:
            available = multiprocessing.get_all_start_methods()
            if mp_context not in available:
                raise ValueError(
                    f"unknown multiprocessing start method {mp_context!r}; "
                    f"this platform supports {available}"
                )
        self.mp_context = mp_context
        if shared_memory is None:
            shared_memory = os.environ.get(SHM_ENV, "1").lower() not in (
                "0", "false", "no",
            )
        self.shared_memory = shared_memory
        if kernel_cache is None:
            kernel_cache = os.environ.get(KERNEL_CACHE_ENV, "1").lower() not in (
                "0", "false", "no",
            )
        self.kernel_cache = kernel_cache
        #: Quote-table cache traffic of the most recent :meth:`run`
        #: (counter deltas), or ``None`` before any run completed.
        self.last_cache_stats: QuoteTableCacheStats | None = None
        #: Aggregated *worker-side* cache traffic of the most recent
        #: parallel :meth:`run` (summed per-task deltas reported back
        #: through the result pipe), or ``None`` before any parallel
        #: run completed.  Under fork this shows pure hits (workers
        #: inherit the warmed cache); under spawn it shows one
        #: miss + ``shm_attached`` per (worker, table) pair and hits
        #: for every other task — and, with the kernel cache off, pure
        #: misses (per-task rebuilds).
        self.last_worker_cache_stats: QuoteTableCacheStats | None = None
        #: Shared-memory descriptors of the tables shipped to the
        #: current non-fork pool, keyed like the cache.  Populated by
        #: :meth:`_ship_tables` just before the pool starts (so it is
        #: pickled into every worker task) and emptied — with the
        #: blocks unlinked — when the pool finishes.
        self._shipped: dict[QuoteTableKey, QuoteTableShm] = {}

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

    def _quote_table_for(
        self,
        task: SweepTask,
        machines: Mapping[str, SimMachine],
        workload: Workload,
        method: AccountingMethod,
    ) -> QuoteTable:
        """The task's shared quote table, built on first use.

        ``get_or_build`` hits for every task after the first of a
        distinct (workload, method, machine set) — in the parent because
        :meth:`_warm` pre-built it, in forked workers because they
        inherited the warmed cache.  Non-fork workers start empty and
        rebuild once per (worker, key): still correct, merely slower.
        """
        pricings = {
            name: pricing_for_sim_machine(m) for name, m in machines.items()
        }
        return _QUOTE_TABLES.get_or_build(
            self._quote_table_key(task, machines),
            lambda: QuoteTable.build(workload.block(list(pricings)), pricings, method),
        )

    def run_task(self, task: SweepTask) -> SimulationResult:
        """Run one grid cell (in this process).

        With the kernel cache on, the task's quote table is resolved
        with exactly one cache lookup: a hit adopts the shared table; a
        miss is satisfied — in preference order — by attaching a
        shipped shared-memory block (non-fork workers; counted in
        ``shm_attached``) or by building from the generated workload.
        A worker holding an attached table also skips workload
        generation entirely: the jobs are assembled once per (worker,
        table) from the table's own block, bit-identically.
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
        workload: Workload | None = None
        quote_table: QuoteTable | None = None
        if self.kernel_cache:
            key = self._quote_table_key(task, machines)
            quote_table = _QUOTE_TABLES.get(key)
            if quote_table is None:
                descriptor = self._shipped.get(key)
                if descriptor is not None:
                    # repro-lint: disable=RPL003 (ownership transfers to the process-wide _QUOTE_TABLES cache, which release()s on eviction/clear; the parent unlinks the named block after the sweep)
                    quote_table = QuoteTable.attach(descriptor)
                    # Pre-3.13 attach re-registers the block with the
                    # resource tracker the pool shares with the parent.
                    # Leave that registration alone: the tracker's cache
                    # is a set (duplicate registers collapse), and the
                    # parent's post-sweep unlink unregisters the name
                    # once.  An explicit unregister here would race a
                    # sibling worker attaching the same block and crash
                    # the shared tracker on the second removal.
                    _QUOTE_TABLES.store(key, quote_table)
                    _QUOTE_TABLES.shm_attached += 1
                else:
                    workload = self.workload_fn(
                        task.scenario, task.scale, task.seed
                    )
                    pricings = {
                        name: pricing_for_sim_machine(m)
                        for name, m in machines.items()
                    }
                    quote_table = QuoteTable.build(
                        workload.block(list(pricings)), pricings, method
                    )
                    _QUOTE_TABLES.store(key, quote_table)
            if workload is None and quote_table.from_shm:
                workload = _ATTACHED_WORKLOADS.get(key)
                if workload is None:
                    # The attached block holds the exact stored doubles
                    # and each job's machine order, so these jobs are
                    # the generator's, bit for bit.
                    workload = Workload.from_block(
                        quote_table.block,
                        WorkloadConfig(n_base_jobs=max(1, len(quote_table))),
                    )
                    _ATTACHED_WORKLOADS[key] = workload
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
        cannot change any result.
        """
        tasks = list(tasks)
        if not tasks:
            return {}
        stats_before = _QUOTE_TABLES.stats()
        self._warm(tasks)
        workers = min(self.workers, len(tasks))
        if workers <= 1:
            out = {task: self.run_task(task) for task in tasks}
            self._record_cache_stats(stats_before)
            self.last_worker_cache_stats = None
            return out
        if self.mp_context is not None:
            start_method = self.mp_context
        elif "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        else:
            start_method = multiprocessing.get_start_method()
        context = multiprocessing.get_context(start_method)
        if self.kernel_cache and start_method != "fork":
            # Non-fork workers start with empty caches; ship the warmed
            # tables through shared memory so they attach instead of
            # regenerating workload + kernel per worker.
            self._ship_tables(tasks)
        worker = _execute_shm if self.shared_memory else _execute
        raw: list = []
        try:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            ) as pool:
                for item in pool.map(partial(worker, self), tasks):
                    raw.append(item)
            results = [
                _result_from_shm(r) if isinstance(r, _ResultShm) else r
                for r, _ in raw
            ]
        except BaseException:
            # A failed task aborts the sweep mid-stream; unlink every
            # shared block whose descriptor already reached us so the
            # columns don't outlive the run (workers handed cleanup
            # responsibility to this process).
            for item in raw:
                payload = item[0] if isinstance(item, tuple) else item
                if isinstance(payload, _ResultShm):
                    try:
                        payload.table.unlink()
                    except OSError:
                        pass
            raise
        finally:
            self._release_shipped()
        self._record_cache_stats(stats_before)
        self.last_worker_cache_stats = QuoteTableCacheStats(
            size=0,
            capacity=_QUOTE_TABLES.capacity,
            hits=sum(s.hits for _, s in raw),
            misses=sum(s.misses for _, s in raw),
            evictions=sum(s.evictions for _, s in raw),
            shm_attached=sum(s.shm_attached for _, s in raw),
        )
        return dict(zip(tasks, results))

    def _ship_tables(self, tasks: Sequence[SweepTask]) -> None:
        """Serialize each warmed quote table a non-fork pool will need
        into a shared-memory block (descriptors land in ``_shipped``,
        which is pickled into every worker task).

        Only tables actually resident after :meth:`_warm` are shipped —
        a table the warm budget skipped rebuilds worker-side on demand,
        exactly as before.  Reads bypass the cache counters: shipping
        is transport, not a lookup.
        """
        shipped: dict[QuoteTableKey, QuoteTableShm] = {}
        for task in tasks:
            machines = dict(self.scenario_fn(task.scenario, task.seed))
            key = self._quote_table_key(task, machines)
            if key in shipped:
                continue
            table = _QUOTE_TABLES._tables.get(key)
            if table is not None:
                # repro-lint: disable=RPL003 (descriptors land in self._shipped; run() unlinks them all via _release_shipped() in its finally)
                shipped[key] = table.to_shm()
        self._shipped = shipped

    def _release_shipped(self) -> None:
        """Unlink every block shipped to the finished pool (workers
        only hold attach views; the parent owns the blocks)."""
        shipped, self._shipped = self._shipped, {}
        for descriptor in shipped.values():
            descriptor.unlink()

    def _record_cache_stats(self, before: QuoteTableCacheStats) -> None:
        """Publish this run's quote-table traffic as ``last_cache_stats``
        (counter deltas against the sweep's start; size and capacity are
        the live values)."""
        after = _QUOTE_TABLES.stats()
        self.last_cache_stats = QuoteTableCacheStats(
            size=after.size,
            capacity=after.capacity,
            hits=after.hits - before.hits,
            misses=after.misses - before.misses,
            evictions=after.evictions - before.evictions,
            shm_attached=after.shm_attached - before.shm_attached,
        )

    def cache_stats(self) -> QuoteTableCacheStats:
        """Live counters of the process-wide quote-table cache (see
        :func:`quote_table_cache_stats` for scope caveats)."""
        return _QUOTE_TABLES.stats()

    # ------------------------------------------------------------------
    def _warm(self, tasks: Sequence[SweepTask]) -> None:
        """Build each distinct scenario/workload — and, when the kernel
        cache is on, each distinct quote table — once in the parent so
        forked workers inherit the memoized objects copy-on-write.

        The quote-table cache's LRU bound is deliberately *not* grown
        to fit a wide sweep — flat memory is the bound's whole point —
        so a sweep whose distinct-table working set exceeds the bound
        only prewarms the first ``capacity`` distinct tables (warming
        more would build tables just to evict them before any task ran)
        and later configurations build on demand, staying resident for
        their own contiguous task block.  That costs time, never
        correctness; warn so the operator can raise
        ``REPRO_SWEEP_KERNEL_CACHE_SIZE`` (or call
        :func:`set_quote_table_capacity`) instead of paying the
        rebuilds silently.
        """
        capacity = _QUOTE_TABLES.capacity
        kernel_warm_budget = None
        if self.kernel_cache and capacity is not None:
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
                    "configurations rebuild on demand (raise "
                    f"{KERNEL_CACHE_SIZE_ENV} or call "
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
            if not self.kernel_cache:
                continue
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
                self._quote_table_for(
                    task,
                    machines,
                    self.workload_fn(*workload_key),
                    self.method_fn(task.method),
                )
