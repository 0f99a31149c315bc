"""Golden digests of SWF extrapolation.

:func:`~repro.sim.swf.read_swf` turns each trace record into per-machine
runtime and energy floats through the §5.2 GMM + cross-platform KNN.
This module pins those floats exactly, so a rewrite of the extrapolation
(loop or vectorized) must reproduce every double bit for bit, along with
job ids, dropped records and each job's machine (key) order.

The trace mixes core counts so that some jobs exceed the 16-core
``Desktop`` (partial eligibility), one exceeds every machine (dropped),
and one is cancelled (skipped).  Print fresh values with::

    PYTHONPATH=src python tests/sim/test_swf_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.sim.scenarios import baseline_scenario
from repro.sim.swf import read_swf

CORES_MENU = (1, 2, 8, 16, 24, 32, 64, 256, 4096)
N_RECORDS = 48

GOLDEN: dict[int, str] = {
    0: "79387785ae30d3d4f540393730348ff83af37d28a794f48cb6363e6c6a264a4a",
    4: "b193555482fb7039ac8c0dd5ab46027bdb4a7d1aef361ed5c6d1b3611757aa42",
}


def write_mixed_trace(path: Path) -> Path:
    """A small submit-sorted trace with mixed eligibility."""
    lines = ["; mixed-eligibility trace\n"]
    for i in range(1, N_RECORDS + 1):
        runtime = 0 if i == 13 else 30 + (i * 53) % 900
        cores = CORES_MENU[(i * 5) % len(CORES_MENU)]
        energy = runtime * cores * 20 + i
        lines.append(
            f"{i} {7 * i} -1 {runtime} {cores} -1 -1 -1 -1 -1 -1 "
            f"{i % 7} -1 {energy} -1 -1 -1 -1\n"
        )
    path.write_text("".join(lines))
    return path


def extrapolation_digest(path: Path, machines, seed: int) -> str:
    """SHA-256 over every job's ids, key order and exact floats."""
    rows = [
        [
            job.job_id,
            job.user,
            job.cores,
            job.submit_s.hex(),
            list(job.runtime_s),
            [value.hex() for value in job.runtime_s.values()],
            list(job.energy_j),
            [value.hex() for value in job.energy_j.values()],
        ]
        for job in read_swf(path, machines, seed=seed).jobs
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_extrapolated_floats_are_pinned(seed, sim_machines, tmp_path):
    path = write_mixed_trace(tmp_path / "mixed.swf")
    assert extrapolation_digest(path, sim_machines, seed) == GOLDEN[seed]


def test_trace_covers_partial_eligibility(sim_machines, tmp_path):
    """Guard the fixture: the digest really spans the interesting rows."""
    jobs = read_swf(write_mixed_trace(tmp_path / "mixed.swf"), sim_machines).jobs
    ids = {job.job_id for job in jobs}
    assert 13 not in ids  # cancelled
    assert len(ids) < N_RECORDS - 1  # some record fits no machine
    partial = [job for job in jobs if "Desktop" not in job.runtime_s]
    assert partial and len(partial) < len(jobs)
    assert all(len(job.runtime_s) == len(sim_machines) - 1 for job in partial)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    machines = baseline_scenario(days=20, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        trace = write_mixed_trace(Path(tmp) / "mixed.swf")
        for seed in sorted(GOLDEN):
            print(f"    {seed}: {extrapolation_digest(trace, machines, seed)!r},")
