"""Fast checks of the benchmark itself at tiny sizes: the self-time
arithmetic, the digest and structural checks, and that tracing neither
perturbs outputs nor loses the spans of pool workers."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import tracing
from perfbench.run import layer_values, timed_run
from perfbench.workloads import (
    MigrationCBA,
    PolicySweep,
    SwfStream,
    structural_problems,
    table_digest,
)
from repro.accounting.pricing import OUTCOME_FIELDS, OutcomeTable, QuoteTable


def test_self_times_add_up_to_root_time():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("other")  # t=0
    tracer.enter("a")  # 1
    tracer.enter("b")  # 2
    tracer.exit()  # 3: b = 1
    tracer.exit()  # 4: a = 3 - 1
    tracer.enter("c")  # 5
    tracer.exit()  # 9: c = 4
    tracer.exit()  # 10: other = 10 - 3 - 4
    snap = tracer.snapshot()
    assert snap["self_s"] == {"b": 1.0, "a": 2.0, "c": 4.0, "other": 3.0}
    assert snap["total_s"]["a"] == 3.0
    assert snap["root_s"] == 10.0
    assert tracing.additive(snap)
    snap["self_s"]["a"] += 0.5
    assert not tracing.additive(snap)


def test_merge_sums_worker_records():
    records = [
        {"self_s": {"x": 1.0}, "total_s": {"x": 1.0}, "counts": {"n": 2},
         "root_s": 1.0},
        {"self_s": {"x": 0.5, "y": 2.0}, "total_s": {"x": 2.5}, "counts": {"n": 3},
         "root_s": 2.5},
    ]
    merged = tracing.merge(records)
    assert merged["self_s"] == {"x": 1.5, "y": 2.0}
    assert merged["counts"] == {"n": 5}


def _table(n: int, offset: int = 0) -> OutcomeTable:
    ids = np.arange(offset, offset + n)
    columns = {name: ids.astype(dtype) for name, dtype in OUTCOME_FIELDS}
    columns["machine_code"] = np.zeros(n, dtype=np.int32)
    return OutcomeTable(["M"], **columns)


def test_digest_ignores_block_boundaries_and_sees_one_ulp():
    whole = _table(6)
    halves = [_table(2), _table(4, offset=2)]
    assert table_digest([whole]) == table_digest(halves)
    whole.cost[3] = np.nextafter(whole.cost[3], np.inf)
    assert table_digest([whole]) != table_digest(halves)


def test_structural_checks():
    expected = np.arange(6)
    assert structural_problems([_table(6)], expected) == []
    settled_twice = [_table(6), _table(1, offset=5)]
    assert structural_problems(settled_twice, expected)
    nan = _table(6)
    nan.cost[0] = np.nan
    assert structural_problems([nan], expected) == ["NaN cost"]


@pytest.fixture
def tracer(tmp_path):
    flush_dir = tmp_path / "trace"
    flush_dir.mkdir()
    return tracing.Tracer(flush_dir)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, path: SwfStream(seed, path, n_jobs=3_000, chunk_jobs=1_024),
        lambda seed, path: PolicySweep(
            seed, path, scale=100, methods=("EBA", "CBA"), policies=("Greedy", "IC")
        ),
        lambda seed, path: MigrationCBA(seed, path, base_jobs=150),
    ],
    ids=["swf_stream", "policy_sweep", "migration_cba"],
)
def test_tracing_does_not_perturb_outputs(make, tracer, tmp_path):
    workload = make(3, tmp_path)
    workload.prepare()
    build = vars(QuoteTable)["build"]
    plain = timed_run(workload, tracer, traced=False)
    first = timed_run(workload, tracer, traced=True)
    second = timed_run(workload, tracer, traced=True)
    assert vars(QuoteTable)["build"] is build  # instrumentation restored
    for run in (plain, first, second):
        assert not run.failed_ops
    assert first.inspection.digests == plain.inspection.digests
    assert second.inspection.digests == plain.inspection.digests
    assert first.trace["additive"] and second.trace["additive"]
    workers = getattr(workload, "workers", 1)
    a, b = layer_values(first, workers), layer_values(second, workers)
    counters = [name for name, value in a.items() if isinstance(value, int)]
    assert {k: a[k] for k in counters} == {k: b[k] for k in counters}
    assert a["events.pops"] > 0 and a["pricing.quote_builds"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_a_raising_run_fails_every_operation(traced, tracer, tmp_path):
    workload = PolicySweep(3, tmp_path, methods=("EBA", "CBA"), policies=("Greedy",))
    workload.run = lambda: 1 / 0
    build = vars(QuoteTable)["build"]
    run = timed_run(workload, tracer, traced)
    assert vars(QuoteTable)["build"] is build
    assert run.attempted == 2
    assert run.failed_ops == {"EBA/Greedy", "CBA/Greedy"}


def test_worker_spans_reach_the_parent(tracer, tmp_path):
    workload = PolicySweep(
        3, tmp_path, scale=100, methods=("EBA",), policies=("Greedy", "EFT")
    )
    workload.prepare()
    run = timed_run(workload, tracer, traced=True)
    values = layer_values(run, workload.workers)
    # The simulations run only in the two pool workers.
    assert values["sweep.task_s"] > 0 and values["engine.loop_s"] > 0
    assert values["policies.select_calls"] == run.inspection.jobs
    assert values["sweep.cache_hits"] == 2
    assert not list(tracer.flush_dir.iterdir())
