"""The hot loops' work counts, pinned exactly.

Runs each benchmark workload (``perfbench.workloads``) at a small size
with the benchmark's tracer (``perfbench.tracing.Instrumentation``)
installed and compares its per-event counters against the snapshot in
``work_counts.json``: calendar pops, ``startable`` scans and the jobs
they start, wait estimates, policy selections, migration probes,
settled rows and migration segments.  The simulators promise
bit-identical outputs across refactors; these counts make the same
promise for the work done on the way, so a refactor that schedules the
same jobs with more (or fewer) calls shows here.

Both benchmark modules are imported read-only.  A count change that is
deliberate (a change to what the simulator does, not how) is re-pinned
by rewriting the snapshot from :func:`traced_counts`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MigrationCBA,
    PolicySweep,
    SwfStream,
    cold_start,
)

SNAPSHOT = Path(__file__).resolve().parent / "work_counts.json"

#: The counters pinned per workload.
COUNTERS = (
    "events.pops",
    "cluster.startable_calls",
    "cluster.jobs_started",
    "cluster.wait_estimates",
    "policies.select_calls",
    "methods.probe_calls",
    "pricing.settle_rows",
    "migration.segments",
)


def _policy_sweep(seed: int, path: Path) -> Any:
    workload = PolicySweep(seed, path, scale=200)
    workload.workers = 1  # serial: every count lands in this process
    return workload


#: Workload name -> factory at the pinned size.
WORKLOADS: dict[str, Callable[[int, Path], Any]] = {
    "swf_stream": lambda seed, path: SwfStream(
        seed, path, n_jobs=3_000, chunk_jobs=1_024
    ),
    "policy_sweep": _policy_sweep,
    "migration_cba": lambda seed, path: MigrationCBA(seed, path, base_jobs=200),
}


def traced_counts(name: str, workdir: Path, seed: int = 0) -> dict[str, int]:
    """The pinned counters of one cold, traced run of workload ``name``."""
    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    cold_start()
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer).install()
    try:
        out = workload.run()
    finally:
        instrumentation.restore()
    inspection = workload.inspect(out)
    assert not any(inspection.problems.values()), inspection.problems
    return {key: int(tracer.counts.get(key, 0)) for key in COUNTERS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_match_snapshot(name, tmp_path):
    expected = json.loads(SNAPSHOT.read_text())[name]
    assert traced_counts(name, tmp_path) == expected
