"""The sweep worker pool: persistent workers, crash retry, result store.

This is the one worker pool behind every parallel sweep.
:meth:`SweepRunner.run <repro.sim.sweep.SweepRunner.run>` opens a
:class:`SweepService` without a store for one batch and closes it
before returning.  The policy-search loops behind the paper's Table 6
and Fig. 7 instead issue *streams* of heavily overlapping grids, so the
long-lived service (``repro sweep serve``) keeps the expensive state
alive between submissions:

* **persistent workers** (fork / spawn / forkserver processes) whose
  worker-local quote-table caches stay warm across tasks; results come
  back as shared-memory blocks, and non-fork workers receive the
  parent's cached quote tables the same way;
* an **async submission queue**: :meth:`SweepService.submit` returns a
  :class:`SweepSubmission` immediately and results stream through it
  as they land, store hits first;
* an optional **content-addressed result store**
  (:class:`~repro.sim.result_store.ResultStore`): every computed grid
  point is persisted under its config fingerprint, so a resubmitted
  grid costs zero simulations and a superset grid computes only the
  delta.

Robustness contract
-------------------
A worker that *crashes* mid-task (kill -9, OOM) is detected by
liveness polling, replaced, and its task retried with bounded
exponential backoff (``max_retries``); results are delivered exactly
once even when a crash races the result message.  A worker that
*raises* is deterministic — the same inputs would raise again — so the
error is surfaced through the submission without retrying.  A corrupt
or truncated store entry is a miss (the store recomputes, never
crashes — see :mod:`repro.sim.result_store`).  :meth:`SweepService.close`
joins every worker and unlinks every shared-memory block the pool
created; nothing is respawned once it has begun.

Service stats (queue depth, in-flight count, retries, restarts, store
hit/miss/eviction counters) surface through :meth:`SweepService.stats`
the same way ``QuoteTableCache`` stats already do, and stream over the
``repro sweep serve`` JSON-lines protocol (:func:`serve_stdio`) for
operators and the CI gate.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import IO, Any, Callable, Iterator, Mapping, Sequence

from repro.accounting.base import AccountingMethod
from repro.accounting.methods import all_methods, method_by_name
from repro.accounting.pricing import (
    OutcomeTable,
    OutcomeTableShm,
    PricingFingerprint,
    QuoteTable,
    QuoteTableCacheStats,
    QuoteTableKey,
    QuoteTableShm,
)
from repro.sim.engine import SimulationResult, pricing_for_sim_machine
from repro.sim.policies import standard_policies
from repro.sim.result_store import ResultStore, ResultStoreStats, task_store_key
from repro.sim.sweep import (
    _QUOTE_TABLES,
    SweepRunner,
    SweepTask,
    _cache_delta,
    resolve_mp_context,
    resolve_workers,
    sweep_grid,
)

#: ``(scenario_name, seed) -> machines`` — the memoized scenario builder
#: (:func:`repro.experiments._simulation.scenario` is the stock one).
ScenarioFn = Callable[[str, int], Any]
#: ``(scenario_name, scale, seed) -> Workload`` — likewise memoized.
WorkloadFn = Callable[[str, int, int], Any]
#: ``method_name -> AccountingMethod`` (all five §4.2 methods).
MethodFn = Callable[[str], AccountingMethod]

#: Dispatcher poll period: how often worker liveness is checked while
#: the result queue is idle.  Latency floor for crash detection only —
#: results themselves wake the dispatcher immediately.
POLL_INTERVAL_S = 0.05


class SweepTaskError(RuntimeError):
    """A grid point failed permanently (deterministic worker exception,
    retry budget exhausted, or the service closed underneath it)."""

    def __init__(self, task: SweepTask, message: str) -> None:
        super().__init__(f"sweep task {task} failed: {message}")
        self.task = task
        self.message = message


@dataclass(frozen=True, slots=True)
class SweepServiceStats:
    """Point-in-time service counters (plus the store's own)."""

    submitted: int
    completed: int
    from_store: int
    computed: int
    failed: int
    retries: int
    worker_restarts: int
    queue_depth: int
    in_flight: int
    workers: int
    #: ``None`` for a pool without a result store.
    store: ResultStoreStats | None

    def as_dict(self) -> dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "from_store": self.from_store,
            "computed": self.computed,
            "failed": self.failed,
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "workers": self.workers,
            "store": None if self.store is None else self.store.as_dict(),
        }


class SweepSubmission:
    """Streaming handle for one submitted grid.

    Results arrive in completion order — store hits first (delivered
    synchronously at submit time), computed points as workers finish.
    :meth:`results` is one-shot: it consumes the stream.
    """

    def __init__(self, tasks: Sequence[SweepTask]) -> None:
        self.tasks = list(tasks)
        self._queue: queue.Queue[
            tuple[SweepTask, SimulationResult | None, str | None]
        ] = queue.Queue()
        self._count_lock = threading.Lock()
        #: Tasks served from the result store without computing.
        self.from_store = 0
        #: Tasks computed by the worker pool for this submission.
        self.computed = 0
        #: Tasks that failed permanently.
        self.failed = 0

    # -- service side --------------------------------------------------
    def _deliver(
        self, task: SweepTask, result: SimulationResult, from_store: bool
    ) -> None:
        with self._count_lock:
            if from_store:
                self.from_store += 1
            else:
                self.computed += 1
        self._queue.put((task, result, None))

    def _fail(self, task: SweepTask, message: str) -> None:
        with self._count_lock:
            self.failed += 1
        self._queue.put((task, None, message))

    # -- client side ---------------------------------------------------
    def results(
        self, timeout: float | None = None
    ) -> Iterator[tuple[SweepTask, SimulationResult]]:
        """Yield ``(task, result)`` pairs as they land.

        Raises :class:`SweepTaskError` for a permanently failed task
        and ``queue.Empty`` if ``timeout`` (per result) expires.
        """
        for _ in range(len(self.tasks)):
            task, result, error = self._queue.get(timeout=timeout)
            if error is not None or result is None:
                raise SweepTaskError(task, error or "no result")
            yield task, result

    def wait(
        self, timeout: float | None = None
    ) -> dict[SweepTask, SimulationResult]:
        """Block until every task resolved; results keyed by task."""
        return dict(self.results(timeout=timeout))


class _Job:
    """One in-flight grid point (shared by all submissions wanting it)."""

    __slots__ = ("job_id", "task", "key", "waiters", "attempts", "resolved")

    def __init__(self, job_id: int, task: SweepTask, key: str) -> None:
        self.job_id = job_id
        self.task = task
        self.key = key
        self.waiters: list[tuple[SweepSubmission, SweepTask]] = []
        self.attempts = 0
        self.resolved = False


class _Worker:
    """A pool member: its process, dedicated inbox, and current job."""

    __slots__ = ("name", "process", "inbox", "job")

    def __init__(self, name: str, process: Any, inbox: Any) -> None:
        self.name = name
        self.process = process
        self.inbox = inbox
        self.job: _Job | None = None


# ---------------------------------------------------------------------------
# Result transport
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
    copies out, or when it discards the message."""
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


def _discard(payload: object) -> None:
    """Unlink the block of a result message nobody will read."""
    if isinstance(payload, _ResultShm):
        try:
            payload.table.unlink()
        except OSError:
            pass


def _ship_quote_tables() -> dict[QuoteTableKey, QuoteTableShm]:
    """Pack every quote table in this process's cache into a
    shared-memory block for a non-fork pool.

    A table whose block cannot be created (shared memory exhausted) is
    skipped: workers rebuild it, bit-identically.  Reads bypass the
    cache counters: shipping is transport, not a lookup.
    """
    shipped: dict[QuoteTableKey, QuoteTableShm] = {}
    try:
        for key, table in list(_QUOTE_TABLES._tables.items()):
            try:
                shipped[key] = table.to_shm()
            except OSError:
                continue
    except BaseException:
        for descriptor in shipped.values():
            descriptor.unlink()
        raise
    return shipped


def _service_worker(
    name: str,
    inbox: Any,
    results: Any,
    scenario_fn: ScenarioFn,
    workload_fn: WorkloadFn,
    method_fn: MethodFn,
    shipped: Mapping[QuoteTableKey, QuoteTableShm],
) -> None:
    """Worker main loop: pull ``(job_id, task)``, push a result message.

    Reuses :meth:`SweepRunner.run_task` so the worker-local quote-table
    cache stays warm across every task this worker ever runs (the point
    of a persistent pool).  Each message carries the task's cache
    counter delta.  Deterministic exceptions are reported as ``error``
    messages — the worker itself never dies on a bad task.
    """
    runner = SweepRunner(scenario_fn, workload_fn, method_fn, workers=1)
    runner._shipped = shipped
    while True:
        item = inbox.get()
        if item is None:
            break
        job_id, task = item
        before = _QUOTE_TABLES.stats()
        try:
            result = runner.run_task(task)
            payload: object
            try:
                payload = _result_to_shm(result)
            except OSError:
                payload = result
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            results.put(("error", job_id, name, message, _cache_delta(before)))
        else:
            results.put(("ok", job_id, name, payload, _cache_delta(before)))


class SweepService:
    """The long-lived sweep service (see the module docstring).

    Parameters
    ----------
    scenario_fn / workload_fn / method_fn:
        Same contract as :class:`~repro.sim.sweep.SweepRunner`; must be
        picklable module-level callables under non-fork contexts.
        ``method_fn`` defaults to
        :func:`repro.accounting.methods.method_by_name` (all five
        methods).
    store:
        The :class:`~repro.sim.result_store.ResultStore` backing
        incremental resubmission, or ``None`` to persist nothing (the
        batch pool of :meth:`SweepRunner.run
        <repro.sim.sweep.SweepRunner.run>`); deduplication and crash
        retry work either way.
    workers:
        Pool size (``None``: ``REPRO_SWEEP_WORKERS`` or the CPU count).
    mp_context:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"`` (``None``:
        ``REPRO_SWEEP_MP_CONTEXT``, else fork where available).  A
        non-fork pool ships the quote tables cached in this process to
        every worker at :meth:`start`.
    max_retries:
        Crash-retry budget per task; attempt ``n`` backs off
        ``retry_backoff_s * 2**(n-1)`` seconds before requeueing.
    """

    def __init__(
        self,
        scenario_fn: ScenarioFn,
        workload_fn: WorkloadFn,
        method_fn: MethodFn | None = None,
        *,
        store: ResultStore | None,
        workers: int | None = None,
        mp_context: str | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.scenario_fn = scenario_fn
        self.workload_fn = workload_fn
        self.method_fn: MethodFn = method_fn or method_by_name
        self.store = store
        self.workers = resolve_workers(workers)
        start_method = resolve_mp_context(mp_context)
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        self._ctx = multiprocessing.get_context(start_method)
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s

        self._lock = threading.Lock()
        self._results_q: Any = self._ctx.Queue()
        self._workers: dict[str, _Worker] = {}
        self._idle: deque[str] = deque()
        self._backlog: deque[_Job] = deque()
        self._jobs: dict[int, _Job] = {}
        self._jobs_by_key: dict[str, _Job] = {}
        self._job_counter = 0
        self._worker_counter = 0
        self._fingerprints: dict[tuple[str, int], PricingFingerprint] = {}
        self._timers: set[threading.Timer] = set()
        self._stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        self._submitted = 0
        self._from_store = 0
        self._computed = 0
        self._failed = 0
        self._retries = 0
        self._restarts = 0
        #: Quote tables shipped to a non-fork pool; unlinked by close().
        self._shipped: dict[QuoteTableKey, QuoteTableShm] = {}
        #: Summed quote-table cache traffic the workers reported, one
        #: counter delta per task message.
        self.worker_cache_stats = QuoteTableCacheStats(
            size=0, capacity=_QUOTE_TABLES.capacity, hits=0, misses=0, evictions=0
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Boot the pool and dispatcher (idempotent; lazy via submit)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("SweepService is closed")
            if self._dispatcher is not None:
                return
            if self._ctx.get_start_method() != "fork":
                self._shipped = _ship_quote_tables()
            for _ in range(self.workers):
                self._spawn_worker_locked()
            dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-sweep-dispatcher",
                daemon=True,
            )
            self._dispatcher = dispatcher
        dispatcher.start()

    def _spawn_worker_locked(self) -> _Worker:
        name = f"w{self._worker_counter}"
        self._worker_counter += 1
        inbox: Any = self._ctx.Queue()
        process = self._ctx.Process(
            target=_service_worker,
            args=(
                name,
                inbox,
                self._results_q,
                self.scenario_fn,
                self.workload_fn,
                self.method_fn,
                self._shipped,
            ),
            name=f"repro-sweep-{name}",
            daemon=True,
        )
        process.start()
        worker = _Worker(name, process, inbox)
        self._workers[name] = worker
        self._idle.append(name)
        return worker

    def close(self, timeout: float = 10.0) -> None:
        """Stop workers and the dispatcher; fail outstanding jobs.

        Idempotent.  Every worker is joined, and the shipped quote
        tables and any undelivered result blocks are unlinked, so
        nothing outlives the service.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        for timer in list(self._timers):
            timer.cancel()
        self._timers.clear()
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            self._resolve(job, error="service closed")
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.inbox.put(None)
            except (OSError, ValueError):
                pass
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        for worker in workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            # Stop the inbox's feeder thread so the queue's semaphores
            # are freed with the service, not at interpreter exit.
            worker.inbox.close()
            worker.inbox.join_thread()
        self._drain_result_queue()
        self._results_q.close()
        shipped, self._shipped = self._shipped, {}
        for descriptor in shipped.values():
            descriptor.unlink()

    def __enter__(self) -> SweepService:
        try:
            self.start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _drain_result_queue(self) -> None:
        """Unlink any undelivered shared-memory payloads at shutdown."""
        while True:
            try:
                message = self._results_q.get_nowait()
            except (queue.Empty, OSError, ValueError):
                return
            _discard(message[3])

    # -- keying --------------------------------------------------------
    def _pricing_fingerprint(
        self, scenario: str, seed: int
    ) -> PricingFingerprint:
        memo_key = (scenario, seed)
        fingerprint = self._fingerprints.get(memo_key)
        if fingerprint is None:
            machines = dict(self.scenario_fn(scenario, seed))
            pricings = {
                name: pricing_for_sim_machine(machine)
                for name, machine in machines.items()
            }
            fingerprint = QuoteTable.fingerprint(pricings)
            self._fingerprints[memo_key] = fingerprint
        return fingerprint

    def store_key(self, task: SweepTask) -> str:
        """The content address of ``task``'s result (see
        :func:`repro.sim.result_store.task_store_key`)."""
        return task_store_key(
            task, self._pricing_fingerprint(task.scenario, task.seed)
        )

    # -- submission ----------------------------------------------------
    def submit(self, tasks: Sequence[SweepTask]) -> SweepSubmission:
        """Queue a grid; returns the streaming handle immediately.

        Store hits are delivered synchronously before this returns;
        misses are queued (deduplicated against identical in-flight
        grid points, so overlapping submissions share one computation).
        """
        self.start()
        submission = SweepSubmission(tasks)
        for task in submission.tasks:
            key = self.store_key(task)
            cached = None if self.store is None else self.store.get(key)
            if cached is not None:
                with self._lock:
                    self._submitted += 1
                    self._from_store += 1
                submission._deliver(task, cached, from_store=True)
                continue
            with self._lock:
                self._submitted += 1
                job = self._jobs_by_key.get(key)
                if job is None:
                    job = _Job(self._job_counter, task, key)
                    self._job_counter += 1
                    self._jobs[job.job_id] = job
                    self._jobs_by_key[key] = job
                    self._backlog.append(job)
                job.waiters.append((submission, task))
        return submission

    def run(
        self, tasks: Sequence[SweepTask]
    ) -> dict[SweepTask, SimulationResult]:
        """Submit and block: the drop-in synchronous entry point."""
        return self.submit(tasks).wait()

    # -- dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self._assign_ready()
            try:
                message = self._results_q.get(timeout=POLL_INTERVAL_S)
            except queue.Empty:
                self._reap_dead_workers()
                continue
            except (OSError, ValueError):  # queue closed under us
                return
            self._handle_message(message)

    def _assign_ready(self) -> None:
        while True:
            with self._lock:
                if not self._backlog or not self._idle:
                    return
                name = self._idle.popleft()
                worker = self._workers.get(name)
                if worker is None:
                    continue
                job = self._backlog.popleft()
                if job.resolved:
                    self._idle.appendleft(name)
                    continue
                worker.job = job
            try:
                worker.inbox.put((job.job_id, job.task))
            except (OSError, ValueError):
                # Worker torn down between pick and put; requeue.
                with self._lock:
                    worker.job = None
                    self._backlog.appendleft(job)

    def _handle_message(
        self, message: tuple[str, int, str, object, QuoteTableCacheStats]
    ) -> None:
        kind, job_id, worker_name, payload, cache = message
        with self._lock:
            total = self.worker_cache_stats
            self.worker_cache_stats = replace(
                total,
                hits=total.hits + cache.hits,
                misses=total.misses + cache.misses,
                evictions=total.evictions + cache.evictions,
                shm_attached=total.shm_attached + cache.shm_attached,
            )
            worker = self._workers.get(worker_name)
            if (
                worker is not None
                and worker.job is not None
                and worker.job.job_id == job_id
            ):
                worker.job = None
                self._idle.append(worker_name)
            job = self._jobs.get(job_id)
        # Hand the freed worker its next task before copying this result
        # out, so the worker does not wait on the copy.
        self._assign_ready()
        if job is None or job.resolved:
            # A crash-retry raced the original result message: the job
            # already resolved, so just free the duplicate's block.
            _discard(payload)
            return
        if kind == "ok":
            if isinstance(payload, _ResultShm):
                result = _result_from_shm(payload)
            else:
                assert isinstance(payload, SimulationResult)
                result = payload
            if self.store is not None:
                try:
                    self.store.put(job.key, result)
                except OSError:
                    pass  # a full/read-only store must not fail the sweep
            self._resolve(job, result=result)
        else:
            # Deterministic worker exception: the same inputs would
            # raise again, so retrying is waste — surface it.
            self._resolve(job, error=str(payload))

    def _reap_dead_workers(self) -> None:
        """Crash detection: replace dead workers, retry their tasks.

        Once :meth:`close` has begun, workers exit on purpose and none
        is replaced.
        """
        orphans: list[_Job] = []
        with self._lock:
            if self._stop.is_set():
                return
            dead = [
                worker
                for worker in self._workers.values()
                if not worker.process.is_alive()
            ]
            for worker in dead:
                del self._workers[worker.name]
                try:
                    self._idle.remove(worker.name)
                except ValueError:
                    pass
                if worker.job is not None:
                    orphans.append(worker.job)
                    worker.job = None
                self._restarts += 1
                self._spawn_worker_locked()
        for job in orphans:
            if job.resolved:
                continue
            job.attempts += 1
            if job.attempts > self.max_retries:
                self._resolve(
                    job,
                    error=(
                        f"worker died {job.attempts} time(s) running this "
                        "task; retry budget exhausted"
                    ),
                )
                continue
            with self._lock:
                self._retries += 1
            delay = self.retry_backoff_s * (2 ** (job.attempts - 1))
            self._schedule_retry(job, delay)

    def _schedule_retry(self, job: _Job, delay: float) -> None:
        timer: threading.Timer

        def fire() -> None:
            self._timers.discard(timer)
            with self._lock:
                if job.resolved or self._stop.is_set():
                    return
                self._backlog.append(job)

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        self._timers.add(timer)
        timer.start()

    def _resolve(
        self,
        job: _Job,
        result: SimulationResult | None = None,
        error: str | None = None,
    ) -> None:
        """Deliver a job's outcome to every waiter, exactly once."""
        with self._lock:
            if job.resolved:
                return
            job.resolved = True
            self._jobs.pop(job.job_id, None)
            if self._jobs_by_key.get(job.key) is job:
                del self._jobs_by_key[job.key]
            waiters, job.waiters = job.waiters, []
            if error is None:
                self._computed += 1
            else:
                self._failed += 1
        for submission, task in waiters:
            if error is None and result is not None:
                submission._deliver(task, result, from_store=False)
            else:
                submission._fail(task, error or "no result")

    # -- introspection -------------------------------------------------
    def stats(self) -> SweepServiceStats:
        """Current counters; ``store`` nests the store's own stats."""
        with self._lock:
            in_flight = sum(
                1 for w in self._workers.values() if w.job is not None
            )
            snapshot = SweepServiceStats(
                submitted=self._submitted,
                completed=self._from_store + self._computed,
                from_store=self._from_store,
                computed=self._computed,
                failed=self._failed,
                retries=self._retries,
                worker_restarts=self._restarts,
                queue_depth=len(self._backlog),
                in_flight=in_flight,
                workers=len(self._workers),
                store=None if self.store is None else self.store.stats(),
            )
        return snapshot


# ---------------------------------------------------------------------------
# JSON-lines protocol (`repro sweep serve`)
# ---------------------------------------------------------------------------
def _result_summary(task: SweepTask, result: SimulationResult) -> dict[str, object]:
    """The scalar identity of one result, full float precision.

    ``json.dumps`` emits shortest-roundtrip reprs, so two runs agree on
    these lines iff the underlying floats are bit-identical — the CI
    gate compares them textually.
    """
    return {
        "scenario": task.scenario,
        "policy": task.policy,
        "method": task.method,
        "scale": task.scale,
        "seed": task.seed,
        "n_jobs": result.n_jobs,
        "makespan_s": result.makespan_s,
        "total_cost": result.total_cost(),
        "total_energy_j": result.total_energy_j(),
        "total_attributed_carbon_g": result.total_attributed_carbon_g(),
        "mean_queue_wait_s": result.mean_queue_wait_s(),
    }


def serve_stdio(
    service: SweepService,
    in_stream: IO[str],
    out_stream: IO[str],
) -> int:
    """The ``repro sweep serve`` control loop: JSON lines in and out.

    Requests (one JSON object per line): ``{"op": "sweep", "scenarios":
    [...], "policies": [...], "methods": [...], "scales": [...],
    "seeds": [...]}`` streams one ``result`` event per grid point
    (store hits first) then a ``sweep-done`` event with the
    submission's from-store/computed split and full service stats;
    ``{"op": "stats"}`` emits a ``stats`` event; ``{"op": "shutdown"}``
    stops the service.  Malformed input produces an ``error`` event,
    never a crash.
    """

    def emit(event: Mapping[str, object]) -> None:
        out_stream.write(json.dumps(event, sort_keys=True) + "\n")
        out_stream.flush()

    emit(
        {
            "event": "ready",
            "workers": service.workers,
            "store": None if service.store is None else str(service.store.root),
        }
    )
    try:
        for line in in_stream:
            text = line.strip()
            if not text:
                continue
            try:
                request = json.loads(text)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                emit({"event": "error", "message": f"bad request: {exc}"})
                continue
            op = request.get("op")
            if op == "shutdown":
                emit({"event": "bye"})
                break
            if op == "stats":
                emit({"event": "stats", **service.stats().as_dict()})
                continue
            if op != "sweep":
                emit({"event": "error", "message": f"unknown op {op!r}"})
                continue
            tasks = sweep_grid(
                scenarios=request.get("scenarios", ["baseline"]),
                policies=request.get("policies")
                or [p.name for p in standard_policies()],
                methods=request.get("methods")
                or [m.name for m in all_methods()],
                scales=request.get("scales", [250]),
                seeds=request.get("seeds", [0]),
            )
            submission = service.submit(tasks)
            try:
                for task, result in submission.results():
                    emit({"event": "result", **_result_summary(task, result)})
            except SweepTaskError as exc:
                emit({"event": "error", "message": str(exc)})
                continue
            emit(
                {
                    "event": "sweep-done",
                    "tasks": len(tasks),
                    "from_store": submission.from_store,
                    "computed": submission.computed,
                    "stats": service.stats().as_dict(),
                }
            )
    finally:
        service.close()
    return 0


__all__ = [
    "POLL_INTERVAL_S",
    "SweepService",
    "SweepServiceStats",
    "SweepSubmission",
    "SweepTaskError",
    "serve_stdio",
]
