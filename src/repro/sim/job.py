"""The simulated job model.

A job carries its cross-platform execution profile: per-machine runtime
and energy as extrapolated by the GMM + KNN pipeline (§5.2).  ``work``
is the paper's machine-neutral progress metric — "the average number of
core hours required to run a job across all machines", which weights
larger and longer jobs more without favouring any one machine.

Jobs come in two shapes.  :class:`JobBlock` is a chunk of jobs as
columns: what ingestion produces, what the quote table prices, and what
the engine's event loop runs from — by row, so no per-job object is
built between the quote shard and settlement.  :class:`Job` is one
record with per-machine dicts: what workload generators and callers
hand in as a job list, what the migration simulator keeps per job, and
what the reference oracles in the test suite carry.
:meth:`JobBlock.from_jobs` and :meth:`JobBlock.jobs` are the only
conversions between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Iterator, Sequence, TypeVar, cast

import numpy as np
import numpy.typing as npt

from repro.units import SECONDS_PER_HOUR

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
RankArray = npt.NDArray[np.int32]
BoolArray = npt.NDArray[np.bool_]

#: Sentinel in :attr:`JobBlock.elig_rank` for (job, machine) pairs the
#: job cannot use; the eligibility walks skip it.
ELIG_RANK_INELIGIBLE = int(np.iinfo(np.int32).max)

T = TypeVar("T")

#: Restricts a column, a list over every row, to one group of rows
#: (see :meth:`JobBlock.per_row`).
Take = Callable[[list[Any]], list[Any]]


@dataclass(slots=True)
class Job:
    """One schedulable job.

    Attributes
    ----------
    job_id:
        Dense integer id.
    user:
        Integer user id (drives the one-running-job-per-cluster rule).
    cores:
        Cores requested (the same on every machine).
    submit_s:
        Submission time (seconds from simulation start).
    runtime_s:
        Machine name -> predicted runtime.  Machines the job cannot use
        (e.g. Desktop for >16-core jobs) are simply absent.
    energy_j:
        Machine name -> predicted energy (idle share + dynamic), joules.
    """

    job_id: int
    user: int
    cores: int
    submit_s: float
    runtime_s: dict[str, float]
    energy_j: dict[str, float]
    #: Lazily cached work metric (the engine reads it once per outcome).
    _work_core_hours: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if not self.runtime_s:
            raise ValueError(f"job {self.job_id} can run nowhere")
        if self.runtime_s.keys() != self.energy_j.keys():
            raise ValueError("runtime and energy machine sets differ")

    @property
    def eligible_machines(self) -> list[str]:
        return list(self.runtime_s)

    @property
    def work_core_hours(self) -> float:
        """Machine-averaged core-hours (the paper's work metric)."""
        if self._work_core_hours is None:
            self._work_core_hours = _work(self.cores, self.runtime_s.values())
        return self._work_core_hours


def _work(cores: int, runtimes: Collection[float]) -> float:
    """The work metric of one job from its runtimes in eligibility order.

    Plain ``sum`` is bit-identical to ``np.mean`` for these short
    sequential reductions and an order of magnitude cheaper.
    """
    return cores * (sum(runtimes) / len(runtimes)) / SECONDS_PER_HOUR


@dataclass(eq=False, slots=True)
class JobBlock:
    """A chunk of jobs as columns (struct of arrays).

    Row ``i`` is one job.  Per-machine columns are stored machine-major,
    ``runtime[mi]`` being machine ``machine_names[mi]``'s contiguous
    column, with NaN where the job cannot run.  ``elig_rank[i, mi]`` is
    that machine's position in the job's own eligibility walk (the
    iteration order of :attr:`Job.runtime_s`), or
    :data:`ELIG_RANK_INELIGIBLE`; it is what keeps a job's machine order
    through a round trip, and what the eligibility walks are derived
    from.  ``work`` is each job's :attr:`Job.work_core_hours`.
    """

    machine_names: tuple[str, ...]
    job_id: IntArray
    user: IntArray
    cores: IntArray
    submit: FloatArray
    work: FloatArray
    #: ``(n_machines, n_jobs)`` seconds, NaN where ineligible.
    runtime: FloatArray
    #: ``(n_machines, n_jobs)`` joules, NaN where ineligible.
    energy: FloatArray
    #: ``(n_jobs, n_machines)`` int32.
    elig_rank: RankArray
    _floats: tuple[list[list[float]], list[list[float]]] | None = field(
        default=None, init=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.job_id)

    def __iter__(self) -> Iterator[Job]:
        """The jobs, assembled by :meth:`jobs`."""
        return iter(self.jobs())

    @classmethod
    def from_columns(
        cls,
        machine_names: Sequence[str],
        job_id: IntArray,
        user: IntArray,
        cores: IntArray,
        submit: FloatArray,
        runtime: FloatArray,
        energy: FloatArray,
        eligible: BoolArray,
    ) -> JobBlock:
        """A block from vectorized producers' columns.

        ``runtime``, ``energy`` and ``eligible`` are ``(n_machines,
        n_jobs)``.  Every job walks its eligible machines in machine
        order; rows no machine can run are dropped.
        """
        keep = eligible.any(axis=0)
        if not keep.all():
            job_id, user, cores, submit = (
                job_id[keep],
                user[keep],
                cores[keep],
                submit[keep],
            )
            runtime, energy, eligible = (
                runtime[:, keep],
                energy[:, keep],
                eligible[:, keep],
            )
        rank = np.where(
            eligible, np.cumsum(eligible, axis=0) - 1, ELIG_RANK_INELIGIBLE
        )
        elig_rank = np.ascontiguousarray(rank.T, dtype=np.int32)
        runtime = np.where(eligible, runtime, np.nan)
        energy = np.where(eligible, energy, np.nan)
        runtime_l = runtime.tolist()
        cores_l = cores.tolist()

        def work(walk: tuple[int, ...], take: Take) -> list[float]:
            runtimes = zip(*[take(runtime_l[mi]) for mi in walk])
            return list(map(_work, take(cores_l), runtimes))

        block = cls(
            machine_names=tuple(machine_names),
            job_id=job_id,
            user=user,
            cores=cores,
            submit=submit,
            work=np.array(_per_row(elig_rank, work), dtype=np.float64),
            runtime=runtime,
            energy=energy,
            elig_rank=elig_rank,
        )
        block._floats = (runtime_l, energy.tolist())
        return block

    @classmethod
    def from_jobs(cls, jobs: Sequence[Job], machine_names: Sequence[str]) -> JobBlock:
        """Columnize ``jobs`` over ``machine_names``.

        Machines a job lists outside ``machine_names`` are left out of
        its columns, but still count in its ranks and its work, exactly
        as the job itself reports them.
        """
        names = tuple(machine_names)
        index = {name: mi for mi, name in enumerate(names)}
        n = len(jobs)
        nan = float("nan")
        ids = [0] * n
        users = [0] * n
        cores = [0] * n
        submits = [0.0] * n
        works = [0.0] * n
        # Accumulate into Python lists (scalar ndarray stores are an
        # order of magnitude slower), then convert once per column.
        runtime = [[nan] * n for _ in names]
        energy = [[nan] * n for _ in names]
        rank = [[ELIG_RANK_INELIGIBLE] * n for _ in names]
        for i, job in enumerate(jobs):
            ids[i] = job.job_id
            users[i] = job.user
            cores[i] = job.cores
            submits[i] = job.submit_s
            works[i] = job.work_core_hours
            energies = job.energy_j
            for r, (name, rt) in enumerate(job.runtime_s.items()):
                mi = index.get(name)
                if mi is not None:
                    runtime[mi][i] = rt
                    energy[mi][i] = energies[name]
                    rank[mi][i] = r
        m = len(names)
        block = cls(
            machine_names=names,
            job_id=np.array(ids, dtype=np.int64),
            user=np.array(users, dtype=np.int64),
            cores=np.array(cores, dtype=np.int64),
            submit=np.array(submits, dtype=np.float64),
            work=np.array(works, dtype=np.float64),
            runtime=np.array(runtime, dtype=np.float64).reshape(m, n),
            energy=np.array(energy, dtype=np.float64).reshape(m, n),
            elig_rank=np.ascontiguousarray(
                np.array(rank, dtype=np.int32).reshape(m, n).T
            ),
        )
        block._floats = (runtime, energy)
        return block

    def floats(self) -> tuple[list[list[float]], list[list[float]]]:
        """``runtime`` and ``energy`` as per-machine lists of floats.

        Converted once per block, so the jobs and every quote table
        built from one block share the same float objects.
        """
        if self._floats is None:
            self._floats = (self.runtime.tolist(), self.energy.tolist())
        return self._floats

    def jobs(self) -> list[Job]:
        """One :class:`Job` per row, each walking its machines by rank."""
        names = self.machine_names
        runtime, energy = self.floats()
        ids = self.job_id.tolist()
        users = self.user.tolist()
        cores = self.cores.tolist()
        submits = self.submit.tolist()

        def assemble(walk: tuple[int, ...], take: Take) -> list[Job]:
            if not walk:
                raise ValueError(f"job {take(ids)[0]} can run nowhere")
            keys = [names[mi] for mi in walk]
            return [
                Job(
                    job_id,
                    user,
                    n_cores,
                    submit,
                    dict(zip(keys, rt)),
                    dict(zip(keys, en)),
                )
                for job_id, user, n_cores, submit, rt, en in zip(
                    take(ids),
                    take(users),
                    take(cores),
                    take(submits),
                    zip(*[take(runtime[mi]) for mi in walk]),
                    zip(*[take(energy[mi]) for mi in walk]),
                )
            ]

        return self.per_row(assemble)

    def per_row(self, build: Callable[[tuple[int, ...], Take], list[T]]) -> list[T]:
        """One Python object per row, assembled column by column.

        Rows are grouped by eligibility walk (the machine indices a row
        visits, in rank order).  ``build(walk, take)`` returns the
        objects of one group in row order, reading each column — a list
        over every row — through ``take``; the groups are then merged
        back into row order.  Most blocks are one group, read whole.
        """
        return _per_row(self.elig_rank, build)


def _per_row(
    elig_rank: RankArray, build: Callable[[tuple[int, ...], Take], list[T]]
) -> list[T]:
    """:meth:`JobBlock.per_row` over a bare ``elig_rank`` array."""
    n = len(elig_rank)
    if n == 0:
        return []
    if (elig_rank == elig_rank[0]).all():
        return build(_walk(elig_rank[0]), _whole)
    walks, group = np.unique(elig_rank, axis=0, return_inverse=True)
    group = group.reshape(-1)
    out: list[T | None] = [None] * n
    for g, ranks in enumerate(walks):
        rows = np.flatnonzero(group == g).tolist()
        for row, item in zip(rows, build(_walk(ranks), _rows_of(rows))):
            out[row] = item
    return cast("list[T]", out)


def _walk(ranks: RankArray) -> tuple[int, ...]:
    """Machine indices a row visits, in its eligibility order."""
    by_rank = sorted(
        (rank, mi)
        for mi, rank in enumerate(ranks.tolist())
        if rank != ELIG_RANK_INELIGIBLE
    )
    return tuple(mi for _, mi in by_rank)


def _whole(column: list[Any]) -> list[Any]:
    return column


def _rows_of(rows: list[int]) -> Take:
    def take(column: list[Any]) -> list[Any]:
        return list(map(column.__getitem__, rows))

    return take


@dataclass(slots=True)
class JobOutcome:
    """What happened to one job in a simulation run."""

    job_id: int
    user: int
    machine: str
    cores: int
    submit_s: float
    start_s: float
    end_s: float
    energy_j: float
    cost: float
    work_core_hours: float
    operational_carbon_g: float = 0.0
    attributed_carbon_g: float = 0.0

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.submit_s

    @property
    def runtime_s(self) -> float:
        return self.end_s - self.start_s
