"""The benchmark's workloads: inputs from a seed, one timed run through
the public entry points, and the checks on that run's outputs.

Each workload has three steps.  ``prepare`` builds the inputs and is
set-up time.  ``run`` is the timed region, and it starts cold: every
memoized scenario, workload and quote table was dropped by
:func:`cold_start` before it.  ``inspect`` digests and checks the
outputs after the clock stops.

One *operation* is one simulation run, or one grid cell of the policy
sweep.  An operation fails when it raises, when a structural check fails
(each job settles exactly once, no NaN cost, causal times, every shard
retired), or when its digest differs from the one pinned for the seed.
A run that raises fails every one of its operations (:func:`raised`).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.accounting.methods import CarbonBasedAccounting, method_by_name
from repro.accounting.pricing import OUTCOME_FIELDS, OutcomeTable
from repro.experiments import _simulation
from repro.sim.engine import MultiClusterSimulator
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import GreedyPolicy, standard_policies
from repro.sim.scenarios import low_carbon_scenario
from repro.sim.sweep import SweepRunner, SweepTask, clear_quote_tables
from repro.sim.swf import open_swf_stream, write_synthetic_swf
from repro.sim.workload import PatelWorkloadGenerator, WorkloadConfig

#: The seed whose digests are pinned and that gain claims are tuned on.
DEFAULT_SEED = 0
#: A second pinned seed, kept out of tuning so claims can be re-checked.
HELD_OUT_SEED = 9
#: Job-stream seed of every workload; ``--seed`` varies the scenario's
#: grid carbon traces instead.  The Patel generator's draws differ in
#: cost by up to 2x between seeds (queue saturation under per-user
#: serialization): 1.3-2.3 s for the 8-policy EBA grid and 1.5-3.1 s for
#: the migration run over seeds 1-10, against a few percent when only
#: the traces change.  Drawing the job stream from ``--seed`` would make
#: seed choice, not the code, decide the measured time.  The SWF trace,
#: its GMM/KNN feature models and its feature draws are held fixed the
#: same way.
JOB_STREAM_SEED = 0

PINNED = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Inspection:
    """What the checks found in one run."""

    jobs: int
    #: Operation name -> digest of its outcome columns.
    digests: dict[str, str]
    #: Operation name -> failed structural checks (empty when sound).
    problems: dict[str, list[str]]
    #: Layer counters read off public result attributes.
    counts: dict[str, int] = field(default_factory=dict)


def table_digest(tables: Iterable[OutcomeTable]) -> str:
    """SHA-256 of the outcome columns in row (end) order.

    Each column is hashed across all blocks, so the digest does not
    depend on where a streamed result splits its blocks.
    """
    hashers = {name: hashlib.sha256() for name, _ in OUTCOME_FIELDS}
    machines: list[str] = []
    for table in tables:
        machines = machines or list(table.machines)
        for name, hasher in hashers.items():
            hasher.update(np.ascontiguousarray(getattr(table, name)).tobytes())
    top = hashlib.sha256(json.dumps(machines).encode())
    for name, hasher in hashers.items():
        top.update(name.encode())
        top.update(hasher.digest())
    return top.hexdigest()


def structural_problems(
    tables: Iterable[OutcomeTable], expected_ids: np.ndarray
) -> list[str]:
    """Checks that hold at any seed; ``expected_ids`` must be sorted."""
    parts = list(tables)
    if parts:
        ids = np.concatenate([t.job_id for t in parts])
        cost = np.concatenate([t.cost for t in parts])
        submit = np.concatenate([t.submit_s for t in parts])
        start = np.concatenate([t.start_s for t in parts])
        end = np.concatenate([t.end_s for t in parts])
    else:
        ids = cost = submit = start = end = np.empty(0)
    problems = []
    if not np.array_equal(np.sort(ids), expected_ids):
        problems.append("settled jobs differ from submitted jobs")
    if np.isnan(cost).any():
        problems.append("NaN cost")
    if (start < submit).any() or (end < start).any():
        problems.append("a job starts before submit or ends before start")
    return problems


def raised(operations: Iterable[str], exc: BaseException) -> Inspection:
    """The inspection of a run that raised: every operation failed."""
    return Inspection(
        jobs=0, digests={}, problems={op: [f"raised {exc!r}"] for op in operations}
    )


def pinned_digests(workload: str, seed: int) -> dict[str, str]:
    """Digests pinned for ``seed``, or none when the seed has no pins."""
    return json.loads(PINNED.read_text()).get(workload, {}).get(str(seed), {})


def sweep_workload(scenario: str, scale: int, seed: int) -> Any:
    """``workload_fn`` of the sweep: the fixed job stream on any scenario seed."""
    return _simulation.workload(scenario, scale, JOB_STREAM_SEED)


def cold_start() -> None:
    """Drop every memoized scenario, workload, sweep and quote table."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and hasattr(obj, "cache_info"):
                clear()
    clear_quote_tables()


class SwfStream:
    """A synthetic SWF trace streamed through the engine in chunks.

    ``run`` is ``simulate_swf_trace`` on ``baseline`` with EBA and EFT,
    composed from the same public pieces so that the scenario takes
    ``--seed`` while the trace and its feature draws take
    :data:`JOB_STREAM_SEED`.
    """

    name = "swf_stream"

    def __init__(
        self, seed: int, workdir: Path, n_jobs: int = 100_000, chunk_jobs: int = 16_384
    ) -> None:
        self.seed = seed
        self.n_jobs = n_jobs
        self.chunk_jobs = chunk_jobs
        self.trace = workdir / "trace.swf"
        self.spill = workdir / "spill"

    def operations(self) -> list[str]:
        return ["replay"]

    def prepare(self) -> None:
        write_synthetic_swf(self.trace, self.n_jobs, seed=JOB_STREAM_SEED)

    def run(self) -> Any:
        machines = dict(_simulation.scenario("baseline", self.seed))
        policy = next(p for p in standard_policies() if p.name == "EFT")
        sim = MultiClusterSimulator(
            machines, method_by_name("EBA"), policy, spill_dir=str(self.spill)
        )
        stream = open_swf_stream(
            self.trace, machines, seed=JOB_STREAM_SEED, chunk_jobs=self.chunk_jobs
        )
        return sim.run(stream)

    def inspect(self, result: Any) -> Inspection:
        try:
            problems = structural_problems(
                result.iter_tables(), np.arange(1, self.n_jobs + 1)
            )
            digest = table_digest(result.iter_tables())
            shards = result.shard_stats
            jobs = result.n_jobs
        finally:
            result.store.close()
        if shards["built"] != shards["retired"]:
            problems.append(
                f"shards built {shards['built']} != retired {shards['retired']}"
            )
        return Inspection(
            jobs=jobs,
            digests={"replay": digest},
            problems={"replay": problems},
            counts={
                "pricing.shards_built": shards["built"],
                "pricing.shards_peak_live": shards["peak_live"],
            },
        )


class PolicySweep:
    """The §5 grid of policies x methods through a two-worker ``SweepRunner``."""

    name = "policy_sweep"
    #: Pool size: the machine the benchmark targets has 2 cores.
    workers = 2

    def __init__(
        self,
        seed: int,
        workdir: Path,
        scale: int = 6_000,
        methods: tuple[str, ...] = ("Runtime", "Energy", "Peak", "EBA", "CBA"),
        policies: tuple[str, ...] | None = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.methods = methods
        self.policies = policies or tuple(p.name for p in standard_policies())
        self.tasks: list[SweepTask] = []

    def operations(self) -> list[str]:
        return [f"{m}/{p}" for m in self.methods for p in self.policies]

    def prepare(self) -> None:
        self.tasks = [
            SweepTask("baseline", policy, method, self.scale, self.seed)
            for method in self.methods
            for policy in self.policies
        ]

    def run(self) -> Any:
        runner = SweepRunner(
            scenario_fn=_simulation.scenario,
            workload_fn=sweep_workload,
            method_fn=method_by_name,
            workers=self.workers,
        )
        return runner, runner.run(self.tasks)

    def inspect(self, out: Any) -> Inspection:
        runner, results = out
        jobs = sweep_workload("baseline", self.scale, self.seed).jobs
        expected = np.sort(np.array([job.job_id for job in jobs], dtype=np.int64))
        digests, problems = {}, {}
        for cell, task in zip(self.operations(), self.tasks):
            result = results.get(task)
            if result is None:
                problems[cell] = ["no result"]
                continue
            digests[cell] = table_digest([result.table])
            problems[cell] = structural_problems([result.table], expected)
        parent = runner.last_cache_stats
        workers = runner.last_worker_cache_stats
        return Inspection(
            jobs=sum(r.n_jobs for r in results.values()),
            digests=digests,
            problems=problems,
            counts={
                "sweep.cache_hits": parent.hits + (workers.hits if workers else 0),
                "sweep.cache_misses": (
                    parent.misses + (workers.misses if workers else 0)
                ),
            },
        )


class MigrationCBA:
    """CBA + Greedy with migration re-evaluation on the low-carbon grids."""

    name = "migration_cba"

    def __init__(self, seed: int, workdir: Path, base_jobs: int = 6_000) -> None:
        self.seed = seed
        self.base_jobs = base_jobs
        self.machines: dict[str, Any] = {}

    def operations(self) -> list[str]:
        return ["replay"]

    def prepare(self) -> None:
        self.machines = low_carbon_scenario(days=40, seed=self.seed)

    def run(self) -> Any:
        config = WorkloadConfig(
            n_base_jobs=self.base_jobs,
            n_users=80,
            seed=JOB_STREAM_SEED,
            runtime_median_s=4 * 3600.0,
        )
        workload = PatelWorkloadGenerator(self.machines, config).generate()
        sim = MigratingSimulator(
            self.machines, CarbonBasedAccounting(), GreedyPolicy(), min_saving=0.15
        )
        return workload, sim, sim.run(workload)

    def inspect(self, out: Any) -> Inspection:
        workload, sim, result = out
        ids = [job.job_id for job in workload.jobs]
        expected = np.sort(np.array(ids, dtype=np.int64))
        return Inspection(
            jobs=result.n_jobs,
            digests={"replay": table_digest([result.table])},
            problems={"replay": structural_problems([result.table], expected)},
            counts={
                "migration.multi_tick_batches": sim.multi_tick_batches,
                "migration.multi_tick_ticks": sim.multi_tick_ticks,
            },
        )


WORKLOADS = {w.name: w for w in (SwfStream, PolicySweep, MigrationCBA)}
