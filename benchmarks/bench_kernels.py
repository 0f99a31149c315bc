"""Micro-benchmarks of the substrate kernels.

Not a paper artifact — these track the performance of the hot paths the
reproduction depends on (tiled Cholesky, PageRank, the simulated RAPL
integrator, workload generation, the event engine, the migration
simulator, the deferred-settlement pricing kernels, and the flat-memory
streaming trace path), so regressions in the substrates are visible in
CI (``benchmarks/compare.py`` fails on >20% slowdowns, on peak-RSS
growth past its own threshold, and on benchmarks that disappear from
this suite).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.accounting.base import UsageRecord
from repro.accounting.methods import (
    CarbonBasedAccounting,
    EnergyBasedAccounting,
    RuntimeAccounting,
)
from repro.accounting.pricing import SegmentLedger, SettlementQueue
from repro.apps.cholesky import random_spd, tiled_cholesky
from repro.apps.graph import pagerank
from repro.hardware.rapl import SimulatedRAPL
from repro.sim.cluster import ClusterSim
from repro.sim.engine import MultiClusterSimulator, pricing_for_sim_machine
from repro.sim.migration import MigratingSimulator, _MigrationRun
from repro.sim.policies import EFTPolicy, GreedyPolicy, LargestFirstPolicy
from repro.sim.scenarios import (
    baseline_scenario,
    low_carbon_scenario,
    tiered_fleet_scenario,
)
from repro.sim.swf import write_synthetic_swf
from repro.sim.workload import (
    PatelWorkloadGenerator,
    StragglerConfig,
    WorkloadConfig,
    inject_stragglers,
)

_PROBE = Path(__file__).resolve().parents[1] / "tools" / "swf_stream_probe.py"


def test_tiled_cholesky_256(benchmark):
    a = random_spd(256, seed=0)
    lower = benchmark(tiled_cholesky, a, 64)
    assert np.allclose(lower @ lower.T, a, atol=1e-6)


def test_pagerank_2k_nodes(benchmark):
    import networkx as nx

    g = nx.gnp_random_graph(2000, 0.005, seed=0, directed=True)
    ranks = benchmark(pagerank, g)
    assert abs(sum(ranks.values()) - 1.0) < 1e-6


def test_rapl_integration(benchmark):
    def advance_day():
        meter = SimulatedRAPL(package_power=lambda t: 200.0 + 50.0 * np.sin(t / 3600.0))
        for _ in range(24):
            meter.advance(3600.0)
        return meter

    meter = benchmark(advance_day)
    assert meter.now == 24 * 3600.0


def test_workload_generation_2k(benchmark):
    machines = baseline_scenario(days=10, seed=0)

    def gen():
        cfg = WorkloadConfig(n_base_jobs=2000, seed=0)
        return PatelWorkloadGenerator(machines, cfg).generate()

    wl = benchmark(gen)
    assert len(wl) > 3800


def test_engine_throughput_2k_jobs(run_once, benchmark):
    machines = baseline_scenario(days=10, seed=0)
    cfg = WorkloadConfig(n_base_jobs=1000, seed=0)
    wl = PatelWorkloadGenerator(machines, cfg).generate()
    sim = MultiClusterSimulator(machines, EnergyBasedAccounting(), GreedyPolicy())
    result = run_once(benchmark, sim.run, wl)
    assert result.n_jobs == len(wl)


def test_tiered_fleet_throughput(run_once, benchmark):
    """The tiered-fleet hot path: skewed core counts, per-tier slot
    caps (the cap branch runs on every start attempt), straggler-
    inflated runtimes, and the largest-first policy's per-arrival view
    sort.  Guards the concurrency-cap bookkeeping added to the cluster
    event core."""
    machines = tiered_fleet_scenario(days=10, seed=0)
    cfg = WorkloadConfig(n_base_jobs=1000, seed=0)
    wl = inject_stragglers(
        PatelWorkloadGenerator(machines, cfg).generate(),
        StragglerConfig(frac=0.1, sigma=1.0, seed=0),
    )
    sim = MultiClusterSimulator(
        machines, EnergyBasedAccounting(), LargestFirstPolicy()
    )
    result = run_once(benchmark, sim.run, wl)
    assert result.n_jobs == len(wl)


def test_event_loop_throughput(run_once, benchmark):
    """The event core under deep saturation: a small user pool and long
    runtimes keep every queue past the backfill window for most of the
    run, so the cost is calendar pops, the indexed ready-queue, and the
    wait-estimate bookkeeping — pricing (Runtime accounting) is a single
    multiply and the EFT policy consumes the wait estimates."""
    machines = baseline_scenario(days=10, seed=0)
    cfg = WorkloadConfig(
        n_base_jobs=1500, n_users=30, seed=0, runtime_median_s=6 * 3600.0
    )
    wl = PatelWorkloadGenerator(machines, cfg).generate()
    sim = MultiClusterSimulator(machines, RuntimeAccounting(), EFTPolicy())
    result = run_once(benchmark, sim.run, wl)
    assert result.n_jobs == len(wl)
    # Saturation sanity: the run must actually be queue-bound.
    assert result.mean_queue_wait_s() > 100 * 3600.0


def test_fixed_machine_backlog(run_once, benchmark):
    """The slowest ``policy_sweep`` cell: every job sent to Theta under
    EBA, so one machine's queue holds thousands of jobs for most of the
    run and each scan faces a backlog far past the backfill window —
    the case an O(queue) scan turns quadratic."""
    from repro.experiments._simulation import scenario, workload
    from repro.sim.policies import FixedMachinePolicy

    machines = dict(scenario("baseline", 0))
    wl = workload("baseline", 6000, 0)  # ~12k jobs after repetition
    sim = MultiClusterSimulator(
        machines, EnergyBasedAccounting(), FixedMachinePolicy("Theta")
    )
    result = run_once(benchmark, sim.run, wl)
    assert result.n_jobs == len(wl)
    # Queue-bound: jobs wait far longer than the machine takes to run them.
    assert result.mean_queue_wait_s() > 100 * 3600.0


def test_migration_throughput_1k_jobs(run_once, benchmark):
    """End-to-end batched migration under CBA (quote table + batched
    probes + deferred segment settlement)."""
    machines = low_carbon_scenario(days=20, seed=0)
    cfg = WorkloadConfig(
        n_base_jobs=500, n_users=80, seed=0, runtime_median_s=4 * 3600.0
    )
    wl = PatelWorkloadGenerator(machines, cfg).generate()
    sim = MigratingSimulator(
        machines, CarbonBasedAccounting(), GreedyPolicy(), min_saving=0.15
    )
    result = run_once(benchmark, sim.run, wl)
    assert result.n_jobs == len(wl)


def _staged_migration_tick(n_running: int):
    """A migration run frozen mid-run with ``n_running`` narrow jobs
    running across the wide machines: each job went through the loop's
    arrival and start call points, so the run holds exactly its
    in-flight state.

    ``min_saving=0.95`` keeps every re-evaluation decision a no-move, so
    the staged state is reusable across benchmark rounds.
    """
    machines = low_carbon_scenario(days=20, seed=0)
    wide = [m for m in machines if machines[m].total_cores >= 500]
    names = tuple(machines)
    sim = MigratingSimulator(
        machines, CarbonBasedAccounting(), GreedyPolicy(), min_saving=0.95
    )
    run = _MigrationRun(sim)
    clusters = [ClusterSim(machines[name]) for name in names]
    for i in range(n_running):
        home = wide[i % len(wide)]
        at = names.index(home)
        runtime = tuple(
            3600.0 * (1 + (i % 7)) * (1.2 if m != home else 1.0) for m in names
        )
        energy = (1e6 * (1 + (i % 5)),) * len(names)
        cluster = clusters[at]
        cluster.enqueue((i, i, 1, runtime[at]))
        run.arrive(i, 1, tuple(clusters), runtime, energy, at)
        started = cluster.startable(0.0)  # mutates: pops + starts the job
        if not started:
            raise RuntimeError(f"staged job {i} failed to start")
        run.start(at, cluster, i, 0.0)
    return run, clusters


def test_migration_reeval_tick_small(benchmark):
    """A re-evaluation tick over 24 running jobs: the running-dict walk,
    scalar ``probe_kernel`` quotes, and the per-candidate decision
    loop."""
    run, clusters = _staged_migration_tick(24)
    moved = benchmark(run._reevaluate, clusters, 1800.0)
    assert moved is False  # min_saving=0.95: probes run, nothing moves
    assert sum(len(c.running) for c in clusters) == 24


def test_sweep_short_runs_kernel_cache(run_once, benchmark):
    """A serial 8-policy sweep of short engine runs with the shared
    quote-table cache: the workload is priced once for the whole sweep
    instead of once per policy run (reference: per-task
    ``PricingKernel`` construction)."""
    from repro.experiments._simulation import method_for, scenario, workload
    from repro.sim.policies import standard_policies
    from repro.sim.sweep import SweepRunner, SweepTask, clear_quote_tables

    scale = 1500
    runner = SweepRunner(
        scenario_fn=scenario,
        workload_fn=workload,
        method_fn=method_for,
        workers=1,
    )
    tasks = [
        SweepTask("baseline", p.name, "EBA", scale, 0)
        for p in standard_policies()
    ]
    workload("baseline", scale, 0)  # memoize generation outside the clock

    def sweep():
        clear_quote_tables()  # each round pays exactly one table build
        return runner.run(tasks)

    results = run_once(benchmark, sweep)
    assert len(results) == len(tasks)
    assert all(r.n_jobs > 0 for r in results.values())


def test_policy_grid_two_methods(run_once, benchmark):
    """A serial 8-policy x (EBA, CBA) sweep: the six cost-blind
    policies are simulated once and their schedules settled under the
    second method, so 10 of the 16 cells run an event loop."""
    from repro.experiments._simulation import method_for, scenario, workload
    from repro.sim.policies import standard_policies
    from repro.sim.sweep import SweepRunner, SweepTask, clear_quote_tables

    scale = 1500
    runner = SweepRunner(
        scenario_fn=scenario,
        workload_fn=workload,
        method_fn=method_for,
        workers=1,
    )
    tasks = [
        SweepTask("baseline", p.name, method, scale, 0)
        for method in ("EBA", "CBA")
        for p in standard_policies()
    ]
    workload("baseline", scale, 0)  # memoize generation outside the clock

    def sweep():
        clear_quote_tables()  # each round pays exactly two table builds
        return runner.run(tasks)

    results = run_once(benchmark, sweep)
    assert len(results) == len(tasks)
    assert all(r.n_jobs > 0 for r in results.values())


def test_result_store_round_trip_8_policies(run_once, benchmark, tmp_path):
    """Persisting and reloading a full 8-policy sweep through the
    content-addressed result store (``sim/result_store.py``): the
    put+get cycle the sweep service pays per computed grid point.  An
    identical resubmit's cost is exactly the ``get`` half of this."""
    from repro.accounting.pricing import QuoteTable
    from repro.experiments._simulation import method_for, scenario, workload
    from repro.sim.policies import standard_policies
    from repro.sim.result_store import ResultStore, task_store_key
    from repro.sim.sweep import SweepRunner, SweepTask

    scale = 1500
    runner = SweepRunner(
        scenario_fn=scenario,
        workload_fn=workload,
        method_fn=method_for,
        workers=1,
    )
    tasks = [
        SweepTask("baseline", p.name, "EBA", scale, 0)
        for p in standard_policies()
    ]
    results = runner.run(tasks)
    machines = dict(scenario("baseline", 0))
    fingerprint = QuoteTable.fingerprint(
        {n: pricing_for_sim_machine(m) for n, m in machines.items()}
    )
    keys = {task: task_store_key(task, fingerprint) for task in tasks}
    store = ResultStore(tmp_path)

    def round_trip():
        for task in tasks:
            store.put(keys[task], results[task])
        return [store.get(keys[task]) for task in tasks]

    reloaded = run_once(benchmark, round_trip)
    assert all(r is not None and r.n_jobs > 0 for r in reloaded)
    assert store.stats().corrupt == 0


def _segment_ledger(n: int) -> SegmentLedger:
    machines = low_carbon_scenario(days=20, seed=0)
    pricings = {m: pricing_for_sim_machine(s) for m, s in machines.items()}
    names = list(pricings)
    rng = np.random.default_rng(7)
    ledger = SegmentLedger(CarbonBasedAccounting(), pricings)
    for i in range(n):
        ledger.add(
            machine=names[i % len(names)],
            start_s=float(rng.uniform(0, 20 * 24 * 3600)),
            duration_s=float(rng.uniform(60, 6 * 3600)),
            energy_j=float(rng.uniform(1e4, 1e8)),
            cores=int(rng.integers(1, 64)),
        )
    return ledger


def test_migration_segment_settle_10k(benchmark):
    """The migration settle kernel: pricing 10k accrued segments in one
    vectorized pass per machine (reference: a ``charge()`` + two trace
    lookups per segment)."""
    ledger = _segment_ledger(10_000)
    cost, operational, attributed = benchmark(ledger.settle)
    assert len(cost) == 10_000
    assert np.all(cost > 0) and np.all(attributed >= operational)


def test_faas_settlement_5k_records(benchmark):
    """The FaaS deferred-settlement kernel: pricing 5k queued
    monitor-attributed records with one ``charge_many`` per machine
    (reference: a CBA ``charge()`` per invocation at debit time).
    Queue building is setup; the benchmark times ``settle``."""
    machines = low_carbon_scenario(days=20, seed=0)
    pricings = {m: pricing_for_sim_machine(s) for m, s in machines.items()}
    names = list(pricings)
    method = CarbonBasedAccounting()
    rng = np.random.default_rng(11)
    records = [
        UsageRecord(
            machine=names[i % len(names)],
            duration_s=float(rng.uniform(0.1, 3600)),
            energy_j=float(rng.uniform(1.0, 1e6)),
            cores=int(rng.integers(1, 32)),
            start_time_s=float(rng.uniform(0, 20 * 24 * 3600)),
        )
        for i in range(5_000)
    ]

    def build():
        queue = SettlementQueue(method, pricings)
        for record in records:
            queue.add(record)
        return (queue,), {}

    charges = benchmark.pedantic(
        lambda queue: queue.settle(), setup=build, rounds=10
    )
    assert len(charges) == 5_000
    assert all(c > 0 for c in charges)


def test_swf_stream_1m_jobs(run_once, benchmark, tmp_path):
    """The flat-memory streaming trace path end-to-end at million-job
    scale: chunked SWF ingestion (64k-job chunks), sharded quote tables
    retired as their jobs settle, and settled outcome blocks spilled to
    disk.  The replay runs in a subprocess
    (``tools/swf_stream_probe.py``) so its ``VmHWM`` covers only the
    streaming run, and the probe's peak RSS lands in
    ``extra_info["peak_rss_mb"]`` where ``benchmarks/compare.py`` gates
    it alongside the wall time.  Trace synthesis is setup, not timed."""
    trace = tmp_path / "stream-1m.swf"
    write_synthetic_swf(trace, 1_000_000)
    spill = tmp_path / "spill"
    spill.mkdir()

    def replay():
        proc = subprocess.run(
            [
                sys.executable,
                str(_PROBE),
                str(trace),
                "--chunk-jobs",
                "65536",
                "--spill-dir",
                str(spill),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(proc.stdout)

    report = run_once(benchmark, replay)
    benchmark.extra_info["peak_rss_mb"] = report["peak_rss_mb"]
    assert report["n_jobs"] == 1_000_000
    # Every shard must retire: a leaked shard would pin its chunk's
    # quote columns for the rest of the run.
    assert report["shard_stats"]["built"] == report["shard_stats"]["retired"]
    assert report["shard_stats"]["peak_live"] <= 4
    # Flat-memory contract: peak RSS is O(chunk), not O(trace) — the
    # replay measures ~360 MB with 64k-job chunks; 1 GB is the hard
    # ceiling that would catch an accidental whole-trace materialization
    # (the in-memory path needs several GB at this scale).
    assert report["peak_rss_mb"] < 1024.0
