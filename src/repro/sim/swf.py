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
on the reference machine) rides in field 14 ("requested memory"), which
the archive leaves site-defined; the header records this convention.

Chunked ingestion and the invariance contract
---------------------------------------------
:func:`iter_swf_job_chunks` stream-parses records into columnar blocks
(one NumPy array per SWF field per chunk) and extrapolates each block
with the vectorized KNN — it never materializes the whole trace.  The
jobs it produces are **chunk-size invariant**: counter features are
drawn through a :class:`_BlockFeatureSampler` that consumes the
generator in fixed :data:`FEATURE_BLOCK`-sized draws regardless of how
ingestion is chunked, and the KNN/extrapolation math is element-wise per
record.  Record *i* therefore gets the same floats whether the trace is
read in one piece or a thousand — the property test in
``tests/sim/test_swf.py`` asserts exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.sim.job import Job
from repro.sim.scenarios import SimMachine
from repro.sim.workload import (
    StreamingWorkload,
    Workload,
    WorkloadConfig,
    build_cross_platform_knn,
    fit_counter_gmm,
)

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
            runtime = job.runtime_s.get(REFERENCE_MACHINE)
            energy = job.energy_j.get(REFERENCE_MACHINE)
            if runtime is None:
                # Fall back to the first machine's numbers, flagged by -1 in
                # the status field (10) so importers can filter.
                machine = job.eligible_machines[0]
                runtime = job.runtime_s[machine]
                energy = job.energy_j[machine]
            fields = [-1] * 18
            fields[0] = job.job_id
            fields[1] = int(round(job.submit_s))
            fields[3] = int(round(runtime))
            fields[4] = job.cores
            fields[11] = job.user
            fields[13] = int(round(energy))
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


def _parse_records(
    lines: Iterable[str],
) -> Iterator[tuple[int, float, float, int, int, float]]:
    """Lazily parse SWF lines into usable records.

    Accepts any iterable of lines (an open file handle streams with O(1)
    memory); comment and blank lines are skipped, cancelled/failed
    records (non-positive runtime or cores) are dropped per SWF
    practice, and short records raise.
    """
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if len(parts) < 14:
            raise ValueError(f"malformed SWF record: {line[:60]!r}")
        job_id = int(parts[0])
        submit = float(parts[1])
        runtime = float(parts[3])
        cores = int(parts[4])
        user = int(parts[11])
        energy = float(parts[13])
        if runtime <= 0 or cores <= 0:
            continue  # cancelled/failed records, per SWF practice
        yield job_id, submit, runtime, cores, user, energy


@dataclass
class RecordBlock:
    """One chunk of parsed SWF records as NumPy columns."""

    job_id: np.ndarray
    submit: np.ndarray
    runtime: np.ndarray
    cores: np.ndarray
    user: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return len(self.job_id)


def _iter_record_blocks(
    lines: Iterable[str], chunk_records: int
) -> Iterator[RecordBlock]:
    """Group the lazy record stream into columnar blocks."""
    jid: list[int] = []
    submit: list[float] = []
    runtime: list[float] = []
    cores: list[int] = []
    user: list[int] = []
    energy: list[float] = []
    columns = (jid, submit, runtime, cores, user, energy)

    def pack() -> RecordBlock:
        block = RecordBlock(
            job_id=np.array(jid, dtype=np.int64),
            submit=np.array(submit, dtype=float),
            runtime=np.array(runtime, dtype=float),
            cores=np.array(cores, dtype=np.int64),
            user=np.array(user, dtype=np.int64),
            energy=np.array(energy, dtype=float),
        )
        for col in columns:
            col.clear()
        return block

    for record in _parse_records(lines):
        for col, value in zip(columns, record):
            col.append(value)
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

    def __init__(self, gmm, seed: int) -> None:
        self._gmm = gmm
        self._rng = np.random.default_rng(seed)
        self._buf: np.ndarray | None = None
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        parts: list[np.ndarray] = []
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


def _jobs_from_block(
    block: RecordBlock,
    feats: np.ndarray,
    machines: dict[str, SimMachine],
    knn: dict,
    ref: str,
) -> list[Job]:
    """Extrapolate one record block across ``machines``.

    Vectorized KNN per machine over the block, then the same per-record
    assembly as the legacy whole-trace path; every float is element-wise
    per record, so the output is independent of block boundaries.
    """
    preds = {name: knn[name].predict(feats) for name in machines}
    jobs: list[Job] = []
    jid = block.job_id
    submit = block.submit
    runtime = block.runtime
    cores = block.cores
    user = block.user
    energy = block.energy
    items = list(machines.items())
    for i in range(len(block)):
        job_cores = int(cores[i])
        job_runtime = float(runtime[i])
        runtimes: dict[str, float] = {}
        energies: dict[str, float] = {}
        ref_scale = float(preds[ref][i][0]) if ref in preds else 1.0
        for name, machine in items:
            if job_cores > machine.max_job_cores:
                continue
            scale, dyn_w = preds[name][i]
            rel = float(scale) / max(ref_scale, 1e-9)
            runtimes[name] = job_runtime * rel
            if name == ref:
                runtimes[name] = job_runtime
                energies[name] = float(energy[i])
            else:
                # Model power on the target at a nominal 75% utilization;
                # the trace's energy column only covers the reference.
                power = job_cores * (
                    machine.idle_watts_per_core + 0.75 * float(dyn_w)
                )
                energies[name] = power * runtimes[name]
        if not runtimes:
            continue
        jobs.append(
            Job(
                job_id=int(jid[i]),
                user=int(user[i]),
                cores=job_cores,
                submit_s=float(submit[i]),
                runtime_s=runtimes,
                energy_j=energies,
            )
        )
    return jobs


def iter_swf_job_chunks(
    path: str | Path,
    machines: dict[str, SimMachine],
    seed: int = 0,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
    require_sorted: bool = False,
) -> Iterator[list[Job]]:
    """Stream an SWF trace as chunks of extrapolated jobs.

    Parses at most ``chunk_jobs`` records at a time, extrapolates each
    block with the §5.2 GMM + cross-platform KNN, and yields the
    resulting jobs.  Records whose core count exceeds every machine are
    dropped (no eligible machine).  Raises ``ValueError`` on an empty
    trace, and — with ``require_sorted`` (the streaming engine's
    contract) — on submit times that go backwards across the trace.
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
            feats = sampler.take(len(block))
            jobs = _jobs_from_block(block, feats, machines, knn, ref)
            if jobs:
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
    for chunk in iter_swf_job_chunks(
        path, machines, seed=seed, chunk_jobs=chunk_jobs
    ):
        jobs.extend(chunk)
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

    def chunk_factory() -> Iterator[list[Job]]:
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


def roundtrip_consistent(
    workload: Workload,
    machines: dict[str, SimMachine],
    tmp: str | Path,
    seed: int = 0,
) -> bool:
    """Write + read back; check the reference columns survive exactly."""
    path = write_swf(workload, Path(tmp))
    back = read_swf(path, machines, seed=seed)
    originals = {
        j.job_id: j for j in workload.jobs if REFERENCE_MACHINE in j.runtime_s
    }
    for job in back.jobs:
        orig = originals.get(job.job_id)
        if orig is None:
            continue
        if (
            abs(
                job.runtime_s[REFERENCE_MACHINE]
                - round(orig.runtime_s[REFERENCE_MACHINE])
            )
            > 1.0
        ):
            return False
        if (
            abs(
                job.energy_j[REFERENCE_MACHINE]
                - round(orig.energy_j[REFERENCE_MACHINE])
            )
            > 1.0
        ):
            return False
    return True
