"""Standard Workload Format (SWF) import/export.

The Parallel Workloads Archive's SWF is the lingua franca of batch-trace
research; real site logs (including the clusters behind the Patel
dataset) circulate in it.  This module lets the simulator consume real
traces and publish its synthetic ones:

* :func:`write_swf` serializes a :class:`~repro.sim.workload.Workload`
  (one record per job, IC runtime as the reference runtime, energy
  carried in a comment-extension column convention documented below).
* :func:`read_swf` parses SWF into jobs, extrapolating per-machine
  runtime/energy with the same KNN pipeline the generator uses — so a
  real trace drops into every experiment unchanged.
* :func:`open_swf_stream` is the flat-memory frontend: the same
  parse/extrapolate pipeline delivered as fixed-size job chunks through
  a :class:`~repro.sim.workload.StreamingWorkload`, so a multi-year
  archive trace never has to fit in RAM.

SWF fields used (1-based, per the archive spec): 1 job id, 2 submit
time, 4 run time, 5 allocated processors, 12 user id.  Energy (joules,
on the reference machine) rides in field 14, which the archive defines
as the executable (application) number; the header records this
convention.  (Requested memory is field 10, and is not used.)  Like
every SWF field, a negative field 14 (the archive writes -1) means
"missing": the reference machine's energy is then modelled the way every
other machine's is.  A record whose submit time, run time or energy is
not a finite number is malformed.

Chunked ingestion and the invariance contract
---------------------------------------------
:func:`iter_swf_job_chunks` stream-parses records into columnar blocks
(one NumPy array per SWF field per chunk) and extrapolates each block
with the vectorized KNN into a :class:`~repro.sim.job.JobBlock` — it
never materializes the whole trace, nor a per-record object.  The jobs
it produces are **chunk-size invariant**: counter features are drawn
through a :class:`_BlockFeatureSampler` that consumes the generator in
fixed :data:`FEATURE_BLOCK`-sized draws regardless of how ingestion is
chunked, and the KNN/extrapolation math is element-wise per record.
Record *i* therefore gets the same floats whether the trace is read in
one piece or a thousand — the property test in
``tests/sim/test_swf.py`` asserts exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np
import numpy.typing as npt

from repro.ml.gmm import GaussianMixture
from repro.ml.knn import KNNRegressor
from repro.sim.job import Job, JobBlock
from repro.sim.scenarios import SimMachine
from repro.sim.workload import (
    StreamingWorkload,
    Workload,
    WorkloadConfig,
    build_cross_platform_knn,
    fit_counter_gmm,
)

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: Reference machine whose runtime/energy the SWF carries.
REFERENCE_MACHINE = "IC"

#: Jobs per ingestion chunk on the streaming path.  Peak memory of a
#: streaming run is proportional to this, not to the trace length.
DEFAULT_CHUNK_JOBS = 65_536

#: Counter features are drawn from the GMM in fixed blocks of this many
#: rows so the random stream consumed for record ``i`` depends only on
#: ``(seed, i)`` — never on the ingestion chunk size.  (The GMM's
#: ``sample(n)`` consumes rng state as a function of ``n``; drawing
#: per-chunk would make features depend on chunk boundaries.)
FEATURE_BLOCK = 4096

HEADER_TEMPLATE = """\
; SWF export from the repro package (Core Hours and Carbon Credits)
; Convention: field 4 = runtime on {reference} (s); field 14 = energy on
; {reference} (J). Fields not listed in the module docstring are -1.
; MaxJobs: {n_jobs}
; MaxProcs: {max_procs}
"""


def write_swf(workload: Workload, path: str | Path) -> Path:
    """Serialize a workload to SWF; returns the path written.

    Records are streamed through the file handle one line at a time —
    the writer holds O(1) memory regardless of workload size.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(
            HEADER_TEMPLATE.format(
                reference=REFERENCE_MACHINE,
                n_jobs=len(workload),
                max_procs=max((j.cores for j in workload.jobs), default=0),
            )
        )
        for job in workload.jobs:
            # A job the reference cannot run falls back to its first
            # machine.  Nothing in the record marks the substitution:
            # status (field 11) is -1 like every other field left unset.
            machine = (
                REFERENCE_MACHINE
                if REFERENCE_MACHINE in job.runtime_s
                else job.eligible_machines[0]
            )
            fields = [-1] * 18
            fields[0] = job.job_id
            fields[1] = int(round(job.submit_s))
            fields[3] = int(round(job.runtime_s[machine]))
            fields[4] = job.cores
            fields[11] = job.user
            fields[13] = int(round(job.energy_j[machine]))
            fh.write(" ".join(str(f) for f in fields) + "\n")
    return path


def write_synthetic_swf(
    path: str | Path,
    n_jobs: int,
    n_users: int = 997,
    seed: int = 0,
    interarrival_s: float = 1.0,
    flush_every: int = 65_536,
) -> Path:
    """Write a large submit-sorted synthetic SWF trace at O(1) memory.

    The generator is deterministic arithmetic (no RNG): for a given
    ``(n_jobs, n_users, seed)`` the trace is reproducible byte-for-byte,
    and writing streams through the file handle in ``flush_every``-line
    batches.  Runtimes span 60–660 s and core counts stay small so a
    simulated fleet drains the arrival stream — the 1M-job streaming
    benchmark relies on the backlog staying bounded.
    """
    if n_jobs < 1:
        raise ValueError("need at least one job")
    path = Path(path)
    cores_menu = (1, 2, 4, 8)
    with path.open("w") as fh:
        fh.write(
            HEADER_TEMPLATE.format(
                reference=REFERENCE_MACHINE,
                n_jobs=n_jobs,
                max_procs=max(cores_menu),
            )
        )
        lines: list[str] = []
        for i in range(n_jobs):
            submit = int(i * interarrival_s)
            runtime = 60 + (i * 37 + seed) % 600
            cores = cores_menu[(i * 13 + seed) % len(cores_menu)]
            user = i % n_users
            energy = runtime * cores * 25
            lines.append(
                f"{i + 1} {submit} -1 {runtime} {cores} -1 -1 -1 -1 -1 -1 "
                f"{user} -1 {energy} -1 -1 -1 -1\n"
            )
            if len(lines) >= flush_every:
                fh.writelines(lines)
                lines.clear()
        fh.writelines(lines)
    return path


@dataclass
class RecordBlock:
    """One chunk of parsed SWF records as NumPy columns."""

    job_id: IntArray
    submit: FloatArray
    runtime: FloatArray
    cores: IntArray
    user: IntArray
    energy: FloatArray

    def __len__(self) -> int:
        return len(self.job_id)


def _iter_record_blocks(
    lines: Iterable[str], chunk_records: int
) -> Iterator[RecordBlock]:
    """Parse SWF lines into blocks of ``chunk_records`` usable records.

    Accepts any iterable of lines (an open file handle streams with O(1)
    memory); comment and blank lines are skipped, cancelled/failed
    records (non-positive runtime or cores) are dropped per SWF
    practice.  Short, non-numeric and non-finite records raise a
    ``ValueError`` naming their 1-based line number.
    """
    jid: list[int] = []
    submit_l: list[float] = []
    runtime_l: list[float] = []
    cores_l: list[int] = []
    user_l: list[int] = []
    energy_l: list[float] = []
    columns = (jid, submit_l, runtime_l, cores_l, user_l, energy_l)

    def pack() -> RecordBlock:
        block = RecordBlock(
            job_id=np.array(jid, dtype=np.int64),
            submit=np.array(submit_l, dtype=np.float64),
            runtime=np.array(runtime_l, dtype=np.float64),
            cores=np.array(cores_l, dtype=np.int64),
            user=np.array(user_l, dtype=np.int64),
            energy=np.array(energy_l, dtype=np.float64),
        )
        for column in columns:
            column.clear()
        return block

    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith(";"):
            continue
        if len(parts) < 14:
            raise ValueError(
                f"malformed SWF record on line {lineno}: {raw.strip()[:60]!r}"
            )
        try:
            job_id = int(parts[0])
            submit = float(parts[1])
            runtime = float(parts[3])
            cores = int(parts[4])
            user = int(parts[11])
            energy = float(parts[13])
        except ValueError:
            raise ValueError(
                f"malformed SWF record on line {lineno}: non-numeric field "
                f"in {raw.strip()[:60]!r}"
            ) from None
        if not (
            math.isfinite(submit) and math.isfinite(runtime) and math.isfinite(energy)
        ):
            raise ValueError(
                f"malformed SWF record on line {lineno}: non-finite field "
                f"in {raw.strip()[:60]!r}"
            )
        if runtime <= 0 or cores <= 0:
            continue  # cancelled/failed records, per SWF practice
        jid.append(job_id)
        submit_l.append(submit)
        runtime_l.append(runtime)
        cores_l.append(cores)
        user_l.append(user)
        energy_l.append(energy)
        if len(jid) >= chunk_records:
            yield pack()
    if jid:
        yield pack()


class _BlockFeatureSampler:
    """Chunk-size-invariant counter-feature stream.

    Draws from the GMM in fixed :data:`FEATURE_BLOCK`-sized batches off
    one sequential generator and hands out rows on demand, so the
    features assigned to record ``i`` are a pure function of
    ``(seed, i)`` no matter how ingestion slices the trace into chunks.
    """

    def __init__(self, gmm: GaussianMixture, seed: int) -> None:
        self._gmm = gmm
        self._rng = np.random.default_rng(seed)
        self._buf: FloatArray | None = None
        self._pos = 0

    def take(self, n: int) -> FloatArray:
        parts: list[FloatArray] = []
        while n > 0:
            if self._buf is None or self._pos >= len(self._buf):
                self._buf = self._gmm.sample(FEATURE_BLOCK, rng=self._rng)
                self._pos = 0
            grab = min(n, len(self._buf) - self._pos)
            parts.append(self._buf[self._pos : self._pos + grab])
            self._pos += grab
            n -= grab
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)


def _extrapolate(
    block: RecordBlock,
    feats: FloatArray,
    machines: Mapping[str, SimMachine],
    knn: Mapping[str, KNNRegressor],
    ref: str,
) -> JobBlock:
    """Extrapolate one record block across ``machines``.

    One KNN call per machine predicts each record's runtime scale and
    dynamic power there; the formulas are then whole-column NumPy
    expressions in the same IEEE operation order as the per-record
    arithmetic they stand for.  A machine's runtime is
    ``runtime * (scale / max(ref_scale, 1e-9))`` (the reference keeps
    the trace's), and its energy models power at a nominal 75%
    utilization, ``cores * (idle + 0.75 * dyn_w) * runtime`` — the
    trace's energy column covers only the reference.  Every float
    depends on its own record alone, so the output is independent of
    block boundaries.
    """
    names = list(machines)
    preds = [knn[name].predict(feats) for name in names]
    ref_scale = np.maximum(preds[names.index(ref)][:, 0], 1e-9)
    runtime = np.empty((len(names), len(block)))
    energy = np.empty_like(runtime)
    for mi, (name, machine) in enumerate(machines.items()):
        scale, dyn_w = preds[mi][:, 0], preds[mi][:, 1]
        rt = block.runtime if name == ref else block.runtime * (scale / ref_scale)
        runtime[mi] = rt
        energy[mi] = block.cores * (machine.idle_watts_per_core + 0.75 * dyn_w) * rt
        if name == ref:
            # A negative field 14 is "missing": keep the modelled energy.
            energy[mi] = np.where(block.energy >= 0, block.energy, energy[mi])
    eligible = np.array(
        [block.cores <= machine.max_job_cores for machine in machines.values()]
    ).reshape(len(names), len(block))
    return JobBlock.from_columns(
        names,
        job_id=block.job_id,
        user=block.user,
        cores=block.cores,
        submit=block.submit,
        runtime=runtime,
        energy=energy,
        eligible=eligible,
    )


def iter_swf_job_chunks(
    path: str | Path,
    machines: dict[str, SimMachine],
    seed: int = 0,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
    require_sorted: bool = False,
) -> Iterator[JobBlock]:
    """Stream an SWF trace as blocks of extrapolated jobs.

    Parses at most ``chunk_jobs`` records at a time, extrapolates each
    block with the §5.2 GMM + cross-platform KNN, and yields the
    resulting :class:`~repro.sim.job.JobBlock`.  Records whose core
    count exceeds every machine are dropped (no eligible machine).
    Raises ``ValueError`` on an empty trace, and — with
    ``require_sorted`` (the streaming engine's contract) — on submit
    times that go backwards across the trace.
    """
    if chunk_jobs < 1:
        raise ValueError("chunk_jobs must be >= 1")
    path = Path(path)
    gmm = fit_counter_gmm(seed=seed)
    knn = build_cross_platform_knn(machines, seed=seed)
    sampler = _BlockFeatureSampler(gmm, seed)
    ref = REFERENCE_MACHINE if REFERENCE_MACHINE in machines else next(iter(machines))

    n_records = 0
    last_submit = -np.inf
    with path.open("r") as fh:
        for block in _iter_record_blocks(fh, chunk_jobs):
            n_records += len(block)
            if require_sorted:
                first = float(block.submit[0])
                if first < last_submit or np.any(np.diff(block.submit) < 0):
                    raise ValueError(
                        "streaming SWF ingestion requires a submit-sorted "
                        f"trace; {path} goes backwards in time"
                    )
                last_submit = float(block.submit[-1])
            jobs = _extrapolate(block, sampler.take(len(block)), machines, knn, ref)
            if len(jobs):
                yield jobs
    if n_records == 0:
        raise ValueError(f"no usable records in {path}")


def read_swf(
    path: str | Path,
    machines: dict[str, SimMachine],
    seed: int = 0,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
) -> Workload:
    """Parse an SWF trace and extrapolate it across ``machines``.

    Counter features per job are drawn from the §5.2 GMM (the trace
    itself carries no counters), then the same cross-platform KNN as the
    generator predicts per-machine runtime scale and dynamic power.
    Records without a positive runtime or core count are skipped.

    Built on :func:`iter_swf_job_chunks`, so the jobs are identical to
    a streaming read of the same trace; the only extra work here is the
    final stable sort, which tolerates unsorted archives (a no-op on
    sorted ones).
    """
    jobs: list[Job] = []
    for block in iter_swf_job_chunks(
        path, machines, seed=seed, chunk_jobs=chunk_jobs
    ):
        jobs.extend(block.jobs())
    jobs.sort(key=lambda j: j.submit_s)
    return Workload(
        jobs=jobs,
        config=WorkloadConfig(n_base_jobs=max(1, len(jobs)), repeat=1, seed=seed),
        machines=list(machines),
    )


def open_swf_stream(
    path: str | Path,
    machines: dict[str, SimMachine],
    seed: int = 0,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
) -> StreamingWorkload:
    """Open an SWF trace as a flat-memory :class:`StreamingWorkload`.

    The returned workload re-reads the file on every iteration (streams
    are re-iterable, so one workload can back multiple runs).  The
    engine's event loop requires arrivals in submit order across
    chunks, so the chunk iterator enforces it — archive traces are
    sorted by convention; unsorted ones must go through :func:`read_swf`.
    """
    path = Path(path)

    def chunk_factory() -> Iterator[JobBlock]:
        return iter_swf_job_chunks(
            path,
            machines,
            seed=seed,
            chunk_jobs=chunk_jobs,
            require_sorted=True,
        )

    return StreamingWorkload(
        chunk_factory=chunk_factory,
        machines=list(machines),
        source=str(path),
    )
