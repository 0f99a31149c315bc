"""The parallel sweep engine and the batched engine's exactness.

The acceptance bar for the batched/parallel subsystem is *bit-identical*
results: same outcomes, same order, same floats as the per-record serial
reference — the seed-loop port in ``seed_oracle.py``.
"""

import errno
import multiprocessing
import os
import signal
from collections import Counter

import pytest

from repro.accounting.methods import (
    CarbonBasedAccounting,
    EnergyBasedAccounting,
    method_by_name,
)
from repro.accounting.pricing import OUTCOME_FIELDS
from repro.sim.engine import MultiClusterSimulator
from repro.sim.policies import (
    EFTPolicy,
    FixedMachinePolicy,
    GreedyPolicy,
    MixedPolicy,
    standard_policies,
)
from repro.sim.sweep import (
    _QUOTE_TABLES,
    DEFAULT_KERNEL_CACHE_SIZE,
    _shared_schedules,
    SweepRunner,
    SweepTask,
    clear_quote_tables,
    policy_by_name,
    resolve_workers,
    set_default_workers,
    set_quote_table_capacity,
    sweep_grid,
)
from seed_oracle import seed_engine_run

SCALE = 250
SEED = 5

#: Env var naming a file the sentinel workload builder appends its pid
#: to — the regeneration detector for the spawn-context tests.  Module
#: level so spawn workers (which re-import this module) see it too.
_WORKLOAD_SENTINEL_ENV = "REPRO_TEST_WORKLOAD_CALLS"

#: Env vars of the worker-killing scenario builder: the marker file it
#: creates before killing its own process (so exactly one worker dies)
#: and the pid that must survive (the test process itself).
_KILL_MARKER_ENV = "REPRO_TEST_KILL_MARKER"
_PARENT_PID_ENV = "REPRO_TEST_PARENT_PID"

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)
requires_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm to list"
)


def _sentinel_workload(scenario_name, scale, seed):
    """Module-level (spawn-picklable) workload builder that records the
    calling pid before delegating to the memoized builder."""
    path = os.environ.get(_WORKLOAD_SENTINEL_ENV)
    if path:
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
    from repro.experiments._simulation import workload

    return workload(scenario_name, scale, seed)


def _killing_scenario(scenario_name, seed):
    """Module-level (spawn-picklable) scenario builder that SIGKILLs the
    first pool worker to call it, mid-task.  Every task calls it in
    its worker, under any start method."""
    marker = os.environ.get(_KILL_MARKER_ENV)
    if marker and os.getpid() != int(os.environ[_PARENT_PID_ENV]):
        try:
            open(marker, "x").close()
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    from repro.experiments._simulation import scenario

    return scenario(scenario_name, seed)


@pytest.fixture(autouse=True, params=["platform", "spawn"])
def mp_start_method(request, monkeypatch):
    """Run the whole suite under the platform default (fork on Linux)
    AND with ``REPRO_SWEEP_MP_CONTEXT=spawn``, so every pool test also
    exercises the shipped-quote-table transport the knob enables."""
    if request.param == "spawn":
        monkeypatch.setenv("REPRO_SWEEP_MP_CONTEXT", "spawn")
    else:
        monkeypatch.delenv("REPRO_SWEEP_MP_CONTEXT", raising=False)
    return request.param


@pytest.fixture(scope="module")
def sweep_fns():
    from repro.experiments._simulation import method_for, scenario, workload

    return scenario, workload, method_for


class TestBatchedEngineExactness:
    """The vectorized pricing paths against the per-record seed loop."""

    @pytest.mark.parametrize(
        "method", [EnergyBasedAccounting(), CarbonBasedAccounting()]
    )
    @pytest.mark.parametrize(
        "policy_cls", [GreedyPolicy, MixedPolicy, EFTPolicy]
    )
    def test_bit_identical_outcomes(
        self, sim_machines, small_workload, method, policy_cls
    ):
        reference = seed_engine_run(
            sim_machines, method, policy_cls(), small_workload
        )
        batched = MultiClusterSimulator(
            sim_machines, method, policy_cls()
        ).run(small_workload)
        assert batched.outcomes == reference.outcomes
        assert batched.machines == reference.machines

    def test_fixed_policy_bit_identical(self, sim_machines, small_workload):
        method = EnergyBasedAccounting()
        reference = seed_engine_run(
            sim_machines, method, FixedMachinePolicy("Theta"), small_workload
        )
        batched = MultiClusterSimulator(
            sim_machines, method, FixedMachinePolicy("Theta")
        ).run(small_workload)
        assert batched.outcomes == reference.outcomes


class TestSweepRunner:
    def test_parallel_matches_serial_exactly(self, sweep_fns):
        """Two pool workers vs the serial in-process loop: bit-equal."""
        from repro.experiments._simulation import policy_sweep_serial

        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(
            scenario_fn=scenario,
            workload_fn=workload,
            method_fn=method_for,
            workers=2,
        )
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()
        ]
        parallel = runner.run(tasks)
        serial = policy_sweep_serial("baseline", "EBA", SCALE, SEED)
        assert len(parallel) == len(serial) == 8
        for task in tasks:
            a, b = parallel[task], serial[task.policy]
            assert a.policy == b.policy
            assert a.method == b.method
            assert a.outcomes == b.outcomes

    def test_policy_sweep_uses_runner_and_matches_serial(self, sweep_fns):
        from repro.experiments._simulation import (
            policy_sweep,
            policy_sweep_serial,
        )

        fast = policy_sweep("baseline", "CBA", SCALE, SEED)
        slow = policy_sweep_serial("baseline", "CBA", SCALE, SEED)
        assert set(fast) == set(slow)
        for name in fast:
            assert fast[name].outcomes == slow[name].outcomes

    def test_policy_sweeps_share_schedules_across_methods(self, sweep_fns, monkeypatch):
        """The study driver runs EBA and CBA as one grid: the six
        cost-blind policies are simulated once, 10 event loops instead
        of 16, and each method's results are memoized on their own."""
        from collections import OrderedDict

        from repro.experiments import _simulation

        monkeypatch.setattr(_simulation, "_SWEEPS", OrderedDict())
        runs = Counter()
        run = MultiClusterSimulator.run

        def counted(self, workload):
            runs["loops"] += 1
            return run(self, workload)

        monkeypatch.setattr(MultiClusterSimulator, "run", counted)
        set_default_workers(1)  # serial: every loop runs in this process
        try:
            sweeps = _simulation.policy_sweeps("baseline", ("EBA", "CBA"), SCALE, SEED)
            assert runs["loops"] == 10
            cba = _simulation.policy_sweep("baseline", "CBA", SCALE, SEED)
            assert cba is sweeps["CBA"]
            assert runs["loops"] == 10  # served from the memo
        finally:
            set_default_workers(None)
        for method_name in ("EBA", "CBA"):
            slow = _simulation.policy_sweep_serial("baseline", method_name, SCALE, SEED)
            assert set(sweeps[method_name]) == set(slow)
            for name, result in slow.items():
                assert sweeps[method_name][name].outcomes == result.outcomes

    def test_empty_task_list(self, sweep_fns):
        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(scenario, workload, method_for, workers=2)
        assert runner.run([]) == {}

    def test_run_task_single_cell(self, sweep_fns):
        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        result = runner.run_task(
            SweepTask("baseline", "Greedy", "EBA", SCALE, SEED)
        )
        assert result.policy == "Greedy"
        assert result.n_jobs == len(workload("baseline", SCALE, SEED))

    def test_run_task_desktop_fixed_policy_is_valid(self, sweep_fns):
        """'Desktop' is a real baseline machine, so the fixed-policy
        fallback is legitimate there."""
        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        result = runner.run_task(
            SweepTask("baseline", "Desktop", "EBA", SCALE, SEED)
        )
        assert result.policy == "Desktop"

    def test_run_task_rejects_typoed_policy(self, sweep_fns):
        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        with pytest.raises(KeyError, match="unknown policy 'greedy'"):
            runner.run_task(SweepTask("baseline", "greedy", "EBA", SCALE, SEED))


class TestSharedMemoryReturn:
    """Pickle-free result transport: byte-identical to pickled returns."""

    def test_shm_round_trip_preserves_result(self, sweep_fns):
        from repro.sim.sweep_service import _result_from_shm, _result_to_shm

        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        original = runner.run_task(
            SweepTask("baseline", "Greedy", "EBA", SCALE, SEED)
        )
        clone = _result_from_shm(_result_to_shm(original))
        assert clone.policy == original.policy
        assert clone.method == original.method
        assert clone.machines == original.machines
        assert clone.outcomes == original.outcomes

    def test_shm_creation_failure_falls_back_to_pickling(
        self, sweep_fns, monkeypatch
    ):
        """A worker that cannot create a shared block returns the result
        itself; the parent must handle the mixed shapes."""
        import repro.sim.sweep_service as service_mod

        def broken(result):
            raise OSError("no shared memory on this box")

        # Patched before the pool forks, so workers inherit the failure.
        monkeypatch.setattr(service_mod, "_result_to_shm", broken)
        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(scenario, workload, method_for, workers=2)
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:2]
        ]
        results = runner.run(tasks)
        reference = runner.run_task(tasks[0])
        assert results[tasks[0]].outcomes == reference.outcomes


class TestKernelCache:
    """Cross-run quote-table sharing: bit-identical, built once."""

    def test_cache_on_matches_cache_off_exactly(self, sweep_fns):
        """Tasks priced from the shared quote table against the engine
        pricing its own kernel, with no cache at all."""
        scenario, workload, method_for = sweep_fns
        tasks = [
            SweepTask("baseline", p.name, "CBA", SCALE, SEED)
            for p in standard_policies()
        ]
        clear_quote_tables()
        cached = SweepRunner(scenario, workload, method_for, workers=1).run(tasks)
        for task in tasks:
            uncached = MultiClusterSimulator(
                dict(scenario(task.scenario, task.seed)),
                method_for(task.method),
                policy_by_name(task.policy),
            ).run(workload(task.scenario, task.scale, task.seed))
            assert cached[task].outcomes == uncached.outcomes
        clear_quote_tables()

    def test_parallel_cache_matches_serial(self, sweep_fns):
        """Pool workers price from the warmed tables (inherited under
        fork, attached under spawn) and never rebuild one."""
        scenario, workload, method_for = sweep_fns
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:4]
        ]
        clear_quote_tables()
        runner = SweepRunner(scenario, workload, method_for, workers=2)
        parallel = runner.run(tasks)
        worker = runner.last_worker_cache_stats
        assert worker.hits + worker.misses == len(tasks)
        assert worker.misses == worker.shm_attached
        serial = SweepRunner(scenario, workload, method_for, workers=1).run(tasks)
        for task in tasks:
            assert parallel[task].outcomes == serial[task].outcomes
        clear_quote_tables()

    def test_retired_env_knobs_change_nothing(self, sweep_fns, monkeypatch):
        """``REPRO_SWEEP_SHM`` and ``REPRO_SWEEP_KERNEL_CACHE`` are no
        longer read: with both at 0 a sweep still shares its table."""
        scenario, workload, method_for = sweep_fns
        monkeypatch.setenv("REPRO_SWEEP_SHM", "0")
        monkeypatch.setenv("REPRO_SWEEP_KERNEL_CACHE", "0")
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:2]
        ]
        clear_quote_tables()
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        runner.run(tasks)
        assert len(_QUOTE_TABLES) == 1
        stats = runner.last_cache_stats
        assert (stats.misses, stats.hits) == (1, len(tasks))
        clear_quote_tables()

    def test_capacity_is_a_runtime_setting(self, sweep_fns, monkeypatch):
        """The bound starts at ``DEFAULT_KERNEL_CACHE_SIZE`` whatever the
        retired size knob says, and moves only through
        ``set_quote_table_capacity``; shrinking evicts at once."""
        scenario, workload, method_for = sweep_fns
        monkeypatch.setenv("REPRO_SWEEP_KERNEL_CACHE_SIZE", "1")
        clear_quote_tables()
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        try:
            runner.run(
                [
                    SweepTask("baseline", "Greedy", method, SCALE, SEED)
                    for method in ("EBA", "CBA")
                ]
            )
            stats = runner.cache_stats()
            assert stats.capacity == DEFAULT_KERNEL_CACHE_SIZE
            assert (stats.size, stats.evictions) == (2, 0)
            set_quote_table_capacity(1)
            stats = runner.cache_stats()
            assert (stats.capacity, stats.size, stats.evictions) == (1, 1, 1)
            set_quote_table_capacity(None)
            assert runner.cache_stats().capacity is None
        finally:
            set_quote_table_capacity(DEFAULT_KERNEL_CACHE_SIZE)
            clear_quote_tables()

    def test_warm_builds_one_table_per_distinct_config(self, sweep_fns):
        scenario, workload, method_for = sweep_fns
        clear_quote_tables()
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()
        ] + [
            SweepTask("baseline", p.name, "CBA", SCALE, SEED)
            for p in standard_policies()
        ]
        runner._warm(tasks)
        # 8 policies x 2 methods share exactly 2 tables.
        assert len(_QUOTE_TABLES) == 2
        runner.run(tasks)
        assert len(_QUOTE_TABLES) == 2
        clear_quote_tables()


class TestKernelCacheLRU:
    """The bounded cache under sweeps wider than its capacity."""

    @pytest.fixture()
    def bounded_cache(self):
        """Capacity 2 for the test, restored (and drained) afterwards."""
        clear_quote_tables()
        set_quote_table_capacity(2)
        yield
        set_quote_table_capacity(DEFAULT_KERNEL_CACHE_SIZE)
        clear_quote_tables()

    def _wide_tasks(self):
        """Four distinct (method, seed) quote-table configs, two policies
        each — more distinct tables than the bounded cache can hold."""
        return [
            SweepTask("baseline", p.name, method, SCALE, seed)
            for method in ("EBA", "CBA")
            for seed in (SEED, SEED + 1)
            for p in standard_policies()[:2]
        ]

    def test_sweep_beyond_capacity_is_bounded_and_bit_identical(
        self, sweep_fns, bounded_cache
    ):
        scenario, workload, method_for = sweep_fns
        tasks = self._wide_tasks()
        bounded = SweepRunner(scenario, workload, method_for, workers=1)
        with pytest.warns(RuntimeWarning, match="distinct quote tables"):
            results = bounded.run(tasks)
        stats = bounded.last_cache_stats
        assert len(_QUOTE_TABLES) <= 2
        assert stats.size <= 2 and stats.capacity == 2
        assert stats.evictions > 0
        for task in tasks:
            # The engine pricing its own kernel, no cache at all.
            reference = MultiClusterSimulator(
                dict(scenario(task.scenario, task.seed)),
                method_for(task.method),
                policy_by_name(task.policy),
            ).run(workload(task.scenario, task.scale, task.seed))
            assert results[task].outcomes == reference.outcomes

    def test_stats_surfaced_per_run(self, sweep_fns):
        """Unbounded enough for the working set: the warm phase builds
        each distinct table once (misses), every task then hits."""
        scenario, workload, method_for = sweep_fns
        clear_quote_tables()
        runner = SweepRunner(scenario, workload, method_for, workers=1)
        tasks = [
            SweepTask("baseline", p.name, method, SCALE, SEED)
            for method in ("EBA", "CBA")
            for p in standard_policies()[:3]
        ]
        runner.run(tasks)
        stats = runner.last_cache_stats
        assert stats.misses == 2  # one build per distinct (method,) config
        assert stats.hits == len(tasks)
        assert stats.evictions == 0
        assert runner.cache_stats().size == 2
        clear_quote_tables()


class TestSpawnContext:
    """The ``mp_context=`` knob: spawn pools must attach shipped quote
    tables and reconstruct workloads from them — bit-identical to fork,
    with zero worker-side workload regeneration."""

    @pytest.fixture(autouse=True)
    def mp_start_method(self, monkeypatch):
        """These tests pick their start method themselves, so they run
        once instead of under both module-level parametrizations."""
        monkeypatch.delenv("REPRO_SWEEP_MP_CONTEXT", raising=False)

    def test_mp_context_resolution_and_validation(self, sweep_fns, monkeypatch):
        scenario, workload, method_for = sweep_fns
        assert SweepRunner(scenario, workload, method_for).mp_context is None
        monkeypatch.setenv("REPRO_SWEEP_MP_CONTEXT", "spawn")
        assert SweepRunner(scenario, workload, method_for).mp_context == "spawn"
        # Explicit argument beats the environment.
        assert (
            SweepRunner(scenario, workload, method_for, mp_context="fork").mp_context
            == "fork"
        )
        with pytest.raises(ValueError, match="start method"):
            SweepRunner(scenario, workload, method_for, mp_context="bogus")

    @requires_fork
    def test_spawn_matches_fork_without_regeneration(
        self, monkeypatch, tmp_path
    ):
        """The acceptance bar: spawn results bit-identical to fork, all
        worker-side misses satisfied by shm attaches (no rebuilds), and
        the workload builder never called outside the parent."""
        from repro.experiments._simulation import method_for, scenario

        sentinel = tmp_path / "workload-calls"
        monkeypatch.setenv(_WORKLOAD_SENTINEL_ENV, str(sentinel))
        clear_quote_tables()
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:4]
        ]
        spawn_runner = SweepRunner(
            scenario, _sentinel_workload, method_for, workers=2, mp_context="spawn"
        )
        spawn_results = spawn_runner.run(tasks)
        worker = spawn_runner.last_worker_cache_stats
        assert worker is not None
        assert worker.shm_attached >= 1
        # Every worker-side miss was satisfied by attaching a shipped
        # block — nothing was re-priced or regenerated.
        assert worker.misses == worker.shm_attached
        assert worker.hits == len(tasks) - worker.shm_attached
        spawn_pids = set(sentinel.read_text().split())
        assert spawn_pids == {str(os.getpid())}
        clear_quote_tables()
        fork_runner = SweepRunner(
            scenario, _sentinel_workload, method_for, workers=2, mp_context="fork"
        )
        fork_results = fork_runner.run(tasks)
        # Fork workers inherit the warmed cache: pure hits, no attaches.
        fork_worker = fork_runner.last_worker_cache_stats
        assert fork_worker.shm_attached == 0 and fork_worker.misses == 0
        assert fork_worker.hits == len(tasks)
        for task in tasks:
            assert spawn_results[task].outcomes == fork_results[task].outcomes
        clear_quote_tables()

    def test_spawn_shipping_unlinks_blocks_after_run(self, monkeypatch):
        """The pool owns the shipped blocks: after a run none remain
        linked."""
        from multiprocessing import shared_memory

        from repro.accounting.pricing import QuoteTable
        from repro.experiments._simulation import method_for, scenario, workload

        shipped = []
        to_shm = QuoteTable.to_shm

        def recording(table):
            descriptor = to_shm(table)
            shipped.append(descriptor.shm_name)
            return descriptor

        monkeypatch.setattr(QuoteTable, "to_shm", recording)
        clear_quote_tables()
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:2]
        ]
        SweepRunner(
            scenario, workload, method_for, workers=2, mp_context="spawn"
        ).run(tasks)
        assert len(shipped) == 1  # 2 tasks share one table
        for name in shipped:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        clear_quote_tables()

    @requires_dev_shm
    def test_unshippable_table_is_rebuilt_by_workers(self, monkeypatch):
        """Shared memory runs out while shipping the 2nd of two tables:
        the sweep still completes, the workers rebuild that table with
        the same bits, and no block outlives the run."""
        from repro.accounting.pricing import QuoteTable
        from repro.experiments._simulation import method_for, scenario, workload

        calls = []
        to_shm = QuoteTable.to_shm

        def exhausted(table):
            calls.append(table)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return to_shm(table)

        monkeypatch.setattr(QuoteTable, "to_shm", exhausted)
        clear_quote_tables()
        before = set(os.listdir("/dev/shm"))
        tasks = [
            SweepTask("baseline", policy, method, SCALE, SEED)
            for method in ("EBA", "CBA")
            for policy in ("Greedy", "EFT")
        ]
        results = SweepRunner(
            scenario, workload, method_for, workers=2, mp_context="spawn"
        ).run(tasks)
        assert len(calls) == 2
        assert set(os.listdir("/dev/shm")) == before
        serial = SweepRunner(scenario, workload, method_for, workers=1).run(tasks)
        for task in tasks:
            assert results[task].outcomes == serial[task].outcomes
        clear_quote_tables()


class TestOnePool:
    """Every parallel sweep runs on the sweep service's pool, so a plain
    runner gets its crash retry and leaves nothing behind."""

    @pytest.fixture()
    def closed_pools(self, monkeypatch):
        """Service stats of every pool, recorded as it closes."""
        from repro.sim.sweep_service import SweepService

        closed = []
        close = SweepService.close

        def recording(service, *args, **kwargs):
            close(service, *args, **kwargs)
            closed.append(service.stats())

        monkeypatch.setattr(SweepService, "close", recording)
        return closed

    def _tasks(self):
        return [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:4]
        ]

    def test_pool_closes_without_orphans(self, sweep_fns, closed_pools):
        scenario, workload, method_for = sweep_fns
        SweepRunner(scenario, workload, method_for, workers=2).run(self._tasks())
        assert multiprocessing.active_children() == []
        [stats] = closed_pools
        assert stats.worker_restarts == 0 and stats.workers == 2

    def test_killed_worker_is_retried_once(
        self, sweep_fns, closed_pools, monkeypatch, tmp_path
    ):
        """SIGKILL of one worker mid-task: the task runs again on a
        replacement worker and the results equal serial bit for bit."""
        _, workload, method_for = sweep_fns
        monkeypatch.setenv(_KILL_MARKER_ENV, str(tmp_path / "killed"))
        monkeypatch.setenv(_PARENT_PID_ENV, str(os.getpid()))
        tasks = self._tasks()
        results = SweepRunner(
            _killing_scenario, workload, method_for, workers=2
        ).run(tasks)
        assert (tmp_path / "killed").exists()
        [stats] = closed_pools
        assert (stats.retries, stats.worker_restarts) == (1, 1)
        assert stats.computed == len(tasks) and stats.failed == 0
        assert multiprocessing.active_children() == []
        serial = SweepRunner(
            _killing_scenario, workload, method_for, workers=1
        ).run(tasks)
        for task in tasks:
            assert results[task].outcomes == serial[task].outcomes

    def test_raising_task_is_not_retried(self, sweep_fns, closed_pools):
        """A task that raises would raise again: it is attempted once,
        and the sweep fails with its error."""
        from repro.sim.sweep_service import SweepTaskError

        scenario, workload, method_for = sweep_fns
        tasks = self._tasks()[:1] + [
            SweepTask("baseline", "NoSuchPolicy", "EBA", SCALE, SEED)
        ]
        runner = SweepRunner(scenario, workload, method_for, workers=2)
        with pytest.raises(SweepTaskError, match="NoSuchPolicy"):
            runner.run(tasks)
        [stats] = closed_pools
        assert stats.failed >= 1
        assert (stats.retries, stats.worker_restarts) == (0, 0)
        assert multiprocessing.active_children() == []


#: The five accounting methods of the §4.2 table, in that order.
METHODS = ("Runtime", "Energy", "Peak", "EBA", "CBA")


def _grid(methods=METHODS, scenario="baseline", policies=None):
    names = policies or [p.name for p in standard_policies()]
    return sweep_grid([scenario], names, methods, [SCALE], [SEED])


@pytest.fixture(scope="module")
def cell_alone():
    """A grid cell run alone through the engine pricing its own kernel
    (no sweep, no shared table), memoized across the module."""
    from repro.experiments._simulation import scenario, workload

    memo = {}

    def run(task):
        if task not in memo:
            memo[task] = MultiClusterSimulator(
                dict(scenario(task.scenario, task.seed)),
                method_by_name(task.method),
                policy_by_name(task.policy),
            ).run(workload(task.scenario, task.scale, task.seed))
        return memo[task]

    return run


def _assert_cell_identical(result, alone, task):
    assert (result.policy, result.method) == (task.policy, task.method)
    assert result.machines == alone.machines
    assert result.table.machines == alone.table.machines
    for name, _ in OUTCOME_FIELDS:
        got, want = getattr(result.table, name), getattr(alone.table, name)
        assert got.dtype == want.dtype, (task, name)
        assert got.tobytes() == want.tobytes(), (task, name)


class TestSharedSchedules:
    """Cost-blind policies are simulated once per workload and settled
    under every other method; every cell must still equal its own
    engine run, bit for bit."""

    def _run(self, tasks, workers):
        from repro.experiments._simulation import scenario, workload

        runner = SweepRunner(scenario, workload, method_by_name, workers=workers)
        return runner.run(tasks)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("order", ["forward", "reversed", "repeated"])
    def test_grid_matches_each_cell_run_alone(self, workers, order, cell_alone):
        if order == "reversed":
            tasks = _grid(methods=METHODS[::-1])
        else:
            tasks = _grid()
        if order == "repeated":
            # A repeat of a leader (first method, Energy) after its
            # followers: still the leader, not a follower of itself.
            tasks.append(tasks[1])
        results = self._run(tasks, workers)
        assert list(results) == list(dict.fromkeys(tasks))
        for task in tasks:
            _assert_cell_identical(results[task], cell_alone(task), task)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_tiered_largest_first(self, workers, cell_alone):
        """The tiered fleet's slot caps, under a shared schedule."""
        from repro.sim.scenarios import TIERED_SCENARIO

        tasks = _grid(
            methods=("EBA", "CBA"),
            scenario=TIERED_SCENARIO,
            policies=["LargestFirst"],
        )
        results = self._run(tasks, workers)
        for task in tasks:
            _assert_cell_identical(results[task], cell_alone(task), task)

    def test_split_is_fixed_by_the_task_list(self):
        tasks = _grid(methods=("EBA", "CBA"))
        leader_of = _shared_schedules(tasks + [tasks[1]])
        assert tasks[1] not in leader_of  # a repeated leader stays a leader
        blind = {"Energy", "EFT", "Runtime", "Theta", "IC", "FASTER"}
        assert {t.policy for t in leader_of} == blind
        for follower, leader in leader_of.items():
            assert (follower.method, leader.method) == ("CBA", "EBA")
            assert follower.policy == leader.policy
        reverse = _shared_schedules(_grid(methods=("CBA", "EBA")))
        assert {t.method for t in reverse} == {"EBA"}

    def test_serial_grid_runs_sixteen_event_loops(self, monkeypatch):
        calls = []
        run = MultiClusterSimulator.run

        def counting(self, workload):
            calls.append((self.policy.name, self.method.name))
            return run(self, workload)

        monkeypatch.setattr(MultiClusterSimulator, "run", counting)
        results = self._run(_grid(), workers=1)
        assert len(results) == 40
        assert len(calls) == 16
        # Greedy and Mixed under each method; each cost-blind policy once,
        # under the grid's first method.
        assert Counter(p for p, _ in calls) == {
            "Greedy": 5, "Mixed": 5, "Energy": 1, "EFT": 1,
            "Runtime": 1, "Theta": 1, "IC": 1, "FASTER": 1,
        }
        assert {m for p, m in calls if p not in ("Greedy", "Mixed")} == {"Runtime"}

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_fixed_policy_on_a_missing_machine_fails(self, workers):
        from repro.sim.sweep_service import SweepTaskError

        tasks = [
            SweepTask("baseline", "Nowhere", method, SCALE, SEED)
            for method in ("EBA", "CBA")
        ]
        error = KeyError if workers == 1 else SweepTaskError
        with pytest.raises(error, match="unknown policy 'Nowhere'"):
            self._run(tasks, workers)
        assert multiprocessing.active_children() == []


class TestKnobs:
    def test_policy_by_name_standard(self):
        for policy in standard_policies():
            assert policy_by_name(policy.name).name == policy.name

    def test_policy_by_name_falls_back_to_fixed(self):
        policy = policy_by_name("Desktop")
        assert isinstance(policy, FixedMachinePolicy)
        assert policy.machine == "Desktop"

    def test_sweep_grid_shape_and_order(self):
        tasks = sweep_grid(
            scenarios=["baseline"],
            policies=["Greedy", "EFT"],
            methods=["EBA", "CBA"],
            scales=[100],
            seeds=[0, 1],
        )
        assert len(tasks) == 8
        assert tasks[0] == SweepTask("baseline", "Greedy", "EBA", 100, 0)
        # Policies vary fastest, so one (scenario, method, seed) block
        # stays contiguous for cache warmth.
        assert tasks[1].policy == "EFT"

    def test_resolve_workers_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2
        set_default_workers(5)
        try:
            assert resolve_workers() == 5
        finally:
            set_default_workers(None)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "bogus")
        with pytest.warns(RuntimeWarning, match="REPRO_SWEEP_WORKERS"):
            assert resolve_workers() == max(1, os.cpu_count() or 1)

    def test_set_default_workers_rejects_zero(self):
        with pytest.raises(ValueError):
            set_default_workers(0)

    def test_runner_takes_only_workers_and_mp_context(self, sweep_fns):
        """The transport options are gone from both the runner and the
        pool; passing one is an error, not a silent no-op."""
        from repro.sim.sweep_service import SweepService

        scenario, workload, method_for = sweep_fns
        for retired in ("shared_memory", "kernel_cache"):
            with pytest.raises(TypeError, match=retired):
                SweepRunner(scenario, workload, method_for, **{retired: False})
        with pytest.raises(TypeError, match="shared_memory"):
            SweepService(
                scenario, workload, method_for, store=None, shared_memory=False
            )
