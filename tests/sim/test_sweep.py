"""The parallel sweep engine and the batched engine's exactness.

The acceptance bar for the batched/parallel subsystem is *bit-identical*
results: same outcomes, same order, same floats as the per-record serial
reference — the seed-loop port in ``seed_oracle.py``.
"""

import multiprocessing
import os

import pytest

from repro.accounting.methods import CarbonBasedAccounting, EnergyBasedAccounting
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
    SweepRunner,
    SweepTask,
    _resolve_cache_capacity,
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

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
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
        from repro.sim.sweep import _result_from_shm, _result_to_shm

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

    def test_parallel_shm_matches_pickled(self, sweep_fns):
        scenario, workload, method_for = sweep_fns
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:3]
        ]
        with_shm = SweepRunner(
            scenario, workload, method_for, workers=2, shared_memory=True
        ).run(tasks)
        pickled = SweepRunner(
            scenario, workload, method_for, workers=2, shared_memory=False
        ).run(tasks)
        for task in tasks:
            assert with_shm[task].outcomes == pickled[task].outcomes

    def test_env_knob_disables_shm(self, sweep_fns, monkeypatch):
        scenario, workload, method_for = sweep_fns
        monkeypatch.setenv("REPRO_SWEEP_SHM", "0")
        assert not SweepRunner(scenario, workload, method_for).shared_memory
        monkeypatch.delenv("REPRO_SWEEP_SHM")
        assert SweepRunner(scenario, workload, method_for).shared_memory

    def test_env_knob_fallback_path_matches_serial(self, sweep_fns, monkeypatch):
        """REPRO_SWEEP_SHM=0 through a real pool: the pickled-return
        fallback must produce bit-identical results."""
        from repro.experiments._simulation import policy_sweep_serial

        scenario, workload, method_for = sweep_fns
        monkeypatch.setenv("REPRO_SWEEP_SHM", "0")
        runner = SweepRunner(scenario, workload, method_for, workers=2)
        assert not runner.shared_memory
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:3]
        ]
        results = runner.run(tasks)
        serial = policy_sweep_serial("baseline", "EBA", SCALE, SEED)
        for task in tasks:
            assert results[task].outcomes == serial[task.policy].outcomes

    def test_shm_creation_failure_falls_back_to_pickling(
        self, sweep_fns, monkeypatch
    ):
        """A worker that cannot create a shared block returns the result
        itself; the parent must handle the mixed shapes."""
        import repro.sim.sweep as sweep_mod

        def broken(result):
            raise OSError("no shared memory on this box")

        # Patched before the pool forks, so workers inherit the failure.
        monkeypatch.setattr(sweep_mod, "_result_to_shm", broken)
        scenario, workload, method_for = sweep_fns
        runner = SweepRunner(
            scenario, workload, method_for, workers=2, shared_memory=True
        )
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
        scenario, workload, method_for = sweep_fns
        tasks = [
            SweepTask("baseline", p.name, "CBA", SCALE, SEED)
            for p in standard_policies()
        ]
        clear_quote_tables()
        cached = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=True
        ).run(tasks)
        uncached = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=False
        ).run(tasks)
        for task in tasks:
            assert cached[task].outcomes == uncached[task].outcomes

    def test_parallel_cache_matches_serial(self, sweep_fns):
        scenario, workload, method_for = sweep_fns
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:4]
        ]
        clear_quote_tables()
        parallel = SweepRunner(
            scenario, workload, method_for, workers=2, kernel_cache=True
        ).run(tasks)
        serial = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=False
        ).run(tasks)
        for task in tasks:
            assert parallel[task].outcomes == serial[task].outcomes

    def test_warm_builds_one_table_per_distinct_config(self, sweep_fns):
        scenario, workload, method_for = sweep_fns
        clear_quote_tables()
        runner = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=True
        )
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

    def test_env_knob_disables_kernel_cache(self, sweep_fns, monkeypatch):
        scenario, workload, method_for = sweep_fns
        monkeypatch.setenv("REPRO_SWEEP_KERNEL_CACHE", "0")
        assert not SweepRunner(scenario, workload, method_for).kernel_cache
        monkeypatch.delenv("REPRO_SWEEP_KERNEL_CACHE")
        assert SweepRunner(scenario, workload, method_for).kernel_cache

    def test_kernel_cache_opt_out_bypasses_cache_entirely(self, sweep_fns):
        """kernel_cache=False (the REPRO_SWEEP_KERNEL_CACHE=0 path) must
        generate zero cache traffic, not merely ignore hits."""
        scenario, workload, method_for = sweep_fns
        clear_quote_tables()
        runner = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=False
        )
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:2]
        ]
        runner.run(tasks)
        assert len(_QUOTE_TABLES) == 0
        stats = runner.last_cache_stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)


class TestKernelCacheLRU:
    """The bounded cache under sweeps wider than its capacity."""

    @pytest.fixture()
    def bounded_cache(self):
        """Capacity 2 for the test, restored (and drained) afterwards."""
        clear_quote_tables()
        set_quote_table_capacity(2)
        yield
        set_quote_table_capacity(_resolve_cache_capacity())
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
        bounded = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=True
        )
        with pytest.warns(RuntimeWarning, match="distinct quote tables"):
            results = bounded.run(tasks)
        stats = bounded.last_cache_stats
        assert len(_QUOTE_TABLES) <= 2
        assert stats.size <= 2 and stats.capacity == 2
        assert stats.evictions > 0
        reference = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=False
        ).run(tasks)
        for task in tasks:
            assert results[task].outcomes == reference[task].outcomes

    def test_stats_surfaced_per_run(self, sweep_fns):
        """Unbounded enough for the working set: the warm phase builds
        each distinct table once (misses), every task then hits."""
        scenario, workload, method_for = sweep_fns
        clear_quote_tables()
        runner = SweepRunner(
            scenario, workload, method_for, workers=1, kernel_cache=True
        )
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

    def test_capacity_resolution_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_KERNEL_CACHE_SIZE", raising=False)
        assert _resolve_cache_capacity() == DEFAULT_KERNEL_CACHE_SIZE
        monkeypatch.setenv("REPRO_SWEEP_KERNEL_CACHE_SIZE", "7")
        assert _resolve_cache_capacity() == 7
        monkeypatch.setenv("REPRO_SWEEP_KERNEL_CACHE_SIZE", "0")
        assert _resolve_cache_capacity() is None
        monkeypatch.setenv("REPRO_SWEEP_KERNEL_CACHE_SIZE", "-1")
        assert _resolve_cache_capacity() is None
        monkeypatch.setenv("REPRO_SWEEP_KERNEL_CACHE_SIZE", "bogus")
        with pytest.warns(RuntimeWarning, match="KERNEL_CACHE_SIZE"):
            assert _resolve_cache_capacity() == DEFAULT_KERNEL_CACHE_SIZE


class TestSpawnContext:
    """The ``mp_context=`` knob: spawn pools must attach shipped quote
    tables and reconstruct workloads from them — bit-identical to fork,
    with zero worker-side workload regeneration."""

    def test_mp_context_resolution_and_validation(self, sweep_fns, monkeypatch):
        scenario, workload, method_for = sweep_fns
        monkeypatch.delenv("REPRO_SWEEP_MP_CONTEXT", raising=False)
        assert SweepRunner(scenario, workload, method_for).mp_context is None
        monkeypatch.setenv("REPRO_SWEEP_MP_CONTEXT", "spawn")
        assert SweepRunner(scenario, workload, method_for).mp_context == "spawn"
        # Explicit argument beats the environment.
        assert (
            SweepRunner(
                scenario, workload, method_for, mp_context="spawn"
            ).mp_context
            == "spawn"
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
            scenario,
            _sentinel_workload,
            method_for,
            workers=2,
            mp_context="spawn",
            kernel_cache=True,
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
            scenario,
            _sentinel_workload,
            method_for,
            workers=2,
            mp_context="fork",
            kernel_cache=True,
        )
        fork_results = fork_runner.run(tasks)
        # Fork workers inherit the warmed cache: pure hits, no attaches.
        fork_worker = fork_runner.last_worker_cache_stats
        assert fork_worker.shm_attached == 0 and fork_worker.misses == 0
        assert fork_worker.hits == len(tasks)
        for task in tasks:
            assert spawn_results[task].outcomes == fork_results[task].outcomes
        clear_quote_tables()

    def test_spawn_cache_opt_out_regenerates_per_worker(
        self, monkeypatch, tmp_path
    ):
        """REPRO_SWEEP_KERNEL_CACHE=0 restores the old spawn behaviour —
        workers regenerate workloads themselves — and stays correct."""
        from repro.experiments._simulation import method_for, scenario

        sentinel = tmp_path / "workload-calls"
        monkeypatch.setenv(_WORKLOAD_SENTINEL_ENV, str(sentinel))
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:2]
        ]
        runner = SweepRunner(
            scenario,
            _sentinel_workload,
            method_for,
            workers=2,
            mp_context="spawn",
            kernel_cache=False,
        )
        results = runner.run(tasks)
        worker = runner.last_worker_cache_stats
        assert (worker.hits, worker.misses, worker.shm_attached) == (0, 0, 0)
        pids = set(sentinel.read_text().split())
        assert str(os.getpid()) in pids
        assert len(pids) >= 2  # at least one worker regenerated
        reference = SweepRunner(
            scenario, _sentinel_workload, method_for, workers=1,
            kernel_cache=False,
        ).run(tasks)
        for task in tasks:
            assert results[task].outcomes == reference[task].outcomes

    def test_spawn_shipping_unlinks_blocks_after_run(self, monkeypatch):
        """The parent owns the shipped blocks: after a run none remain
        linked (``_shipped`` drained, descriptors unlinked)."""
        from multiprocessing import shared_memory

        from repro.experiments._simulation import method_for, scenario, workload

        clear_quote_tables()
        tasks = [
            SweepTask("baseline", p.name, "EBA", SCALE, SEED)
            for p in standard_policies()[:2]
        ]
        runner = SweepRunner(
            scenario, workload, method_for, workers=2,
            mp_context="spawn", kernel_cache=True,
        )
        runner._warm(tasks)
        runner._ship_tables(tasks)
        assert len(runner._shipped) == 1  # 2 tasks share one table
        names = [d.shm_name for d in runner._shipped.values()]
        runner._release_shipped()
        assert runner._shipped == {}
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        runner.run(tasks)  # the full path drains the dict too
        assert runner._shipped == {}
        clear_quote_tables()


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
