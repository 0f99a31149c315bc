"""The long-lived sweep service: incremental resubmission, crash
retry, and the JSON-lines protocol.

The acceptance bar mirrors the sweep runner's: results served from the
store are *bit-identical* to the cold computed run (all five accounting
methods), an identical resubmit computes zero grid points, and a
strict-superset grid computes only the delta — all proven through the
surfaced hit/miss counters.
"""

import io
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.sim.engine import MultiClusterSimulator
from repro.sim.result_store import ResultStore
from repro.sim.sweep import SweepTask, sweep_grid
from repro.sim.sweep_service import (
    SweepService,
    SweepTaskError,
    serve_stdio,
)

SCALE = 100
SEED = 2

METHOD_NAMES = ["Runtime", "Energy", "Peak", "EBA", "CBA"]
BASE_POLICIES = ["Greedy", "EFT"]
SUPERSET_POLICIES = ["Greedy", "EFT", "Theta"]

#: Env var naming a file the blocking workload builder spins on — lets
#: tests hold a worker mid-task deterministically.  Module level so
#: non-fork workers (which re-import this module) could see it too.
_BLOCK_FILE_ENV = "REPRO_TEST_SWEEP_BLOCK"

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)


def _blocking_workload(scenario_name, scale, seed):
    """Module-level (picklable) workload builder that stalls while the
    block file exists, then delegates to the memoized builder."""
    path = os.environ.get(_BLOCK_FILE_ENV)
    while path and os.path.exists(path):
        time.sleep(0.01)
    from repro.experiments._simulation import workload

    return workload(scenario_name, scale, seed)


def _service(store_root, workload_fn=None, **kwargs):
    from repro.accounting.methods import method_by_name
    from repro.experiments._simulation import scenario, workload

    kwargs.setdefault("workers", 2)
    return SweepService(
        scenario,
        workload_fn or workload,
        method_by_name,
        store=ResultStore(store_root),
        **kwargs,
    )


def _grid(policies):
    return sweep_grid(
        scenarios=["baseline"],
        policies=policies,
        methods=METHOD_NAMES,
        scales=[SCALE],
        seeds=[SEED],
    )


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached in time")


class TestIncrementalStore:
    def test_resubmit_and_superset_all_five_methods(self, tmp_path):
        """The tentpole contract end to end, across a service restart:
        cold run computes everything; the identical resubmit is served
        entirely from the store, bit-identical; the superset computes
        only the delta.  All five methods."""
        from repro.accounting.methods import method_by_name
        from repro.experiments._simulation import scenario, workload
        from repro.sim.policies import standard_policies

        base = _grid(BASE_POLICIES)
        with _service(tmp_path) as service:
            first = service.submit(base)
            cold = first.wait()
            assert (first.from_store, first.computed) == (0, len(base))
            stats = service.stats()
            assert stats.computed == len(base) and stats.from_store == 0
            assert stats.store.misses == len(base)
            assert stats.store.entries == len(base)

        # A *new* service on the same store: nothing is recomputed.
        with _service(tmp_path) as service:
            second = service.submit(base)
            warm = second.wait()
            assert (second.from_store, second.computed) == (len(base), 0)
            assert service.stats().store.hits == len(base)
            for task in base:
                assert warm[task].outcomes == cold[task].outcomes
                assert warm[task].total_cost() == cold[task].total_cost()
                assert (
                    warm[task].total_energy_j() == cold[task].total_energy_j()
                )
                assert (
                    warm[task].total_attributed_carbon_g()
                    == cold[task].total_attributed_carbon_g()
                )

            superset = _grid(SUPERSET_POLICIES)
            delta = len(superset) - len(base)
            third = service.submit(superset)
            full = third.wait()
            assert (third.from_store, third.computed) == (len(base), delta)
            stats = service.stats()
            assert stats.computed == delta
            assert stats.failed == 0 and stats.worker_restarts == 0

        # And the cold run itself matches the in-process serial
        # reference, method by method.
        machines = dict(scenario("baseline", SEED))
        wl = workload("baseline", SCALE, SEED)
        policies = {p.name: p for p in standard_policies()}
        for task in base:
            reference = MultiClusterSimulator(
                machines, method_by_name(task.method), policies[task.policy]
            ).run(wl)
            assert cold[task].outcomes == reference.outcomes

    def test_overlapping_submissions_share_one_computation(
        self, tmp_path, monkeypatch
    ):
        block = tmp_path / "block"
        block.touch()
        monkeypatch.setenv(_BLOCK_FILE_ENV, str(block))
        task = SweepTask("baseline", "Greedy", "EBA", SCALE, SEED)
        with _service(
            tmp_path / "store", workload_fn=_blocking_workload, workers=1
        ) as service:
            first = service.submit([task])
            second = service.submit([task])
            assert len(service._jobs_by_key) == 1  # deduplicated
            block.unlink()
            a = first.wait(timeout=60)
            b = second.wait(timeout=60)
            assert a[task].outcomes == b[task].outcomes
            stats = service.stats()
            assert stats.submitted == 2 and stats.computed == 1


class TestFailureHandling:
    @requires_fork
    def test_killed_worker_retries_and_result_lands(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL mid-task: the worker is replaced, the task retried,
        and the result is delivered exactly once — never lost, never
        duplicated."""
        block = tmp_path / "block"
        block.touch()
        monkeypatch.setenv(_BLOCK_FILE_ENV, str(block))
        task = SweepTask("baseline", "Greedy", "EBA", SCALE, SEED)
        with _service(
            tmp_path / "store",
            workload_fn=_blocking_workload,
            workers=1,
            mp_context="fork",
        ) as service:
            submission = service.submit([task])
            _wait_for(lambda: service.stats().in_flight == 1)
            busy = next(
                w for w in service._workers.values() if w.job is not None
            )
            os.kill(busy.process.pid, signal.SIGKILL)
            _wait_for(lambda: service.stats().worker_restarts == 1)
            block.unlink()  # let the retry proceed
            delivered = list(submission.results(timeout=60))
            assert len(delivered) == 1  # exactly once
            stats = service.stats()
            assert stats.retries == 1
            assert stats.worker_restarts == 1
            assert stats.computed == 1 and stats.failed == 0
            assert stats.store.entries == 1  # the retry's result landed

    def test_deterministic_error_surfaces_without_retry(self, tmp_path):
        bogus = SweepTask("baseline", "NoSuchPolicy", "EBA", SCALE, SEED)
        with _service(tmp_path, workers=1) as service:
            submission = service.submit([bogus])
            with pytest.raises(SweepTaskError, match="NoSuchPolicy"):
                submission.wait(timeout=60)
            stats = service.stats()
            assert stats.failed == 1
            assert stats.retries == 0  # raising is not crashing
            assert stats.worker_restarts == 0

    def test_close_fails_outstanding_jobs(self, tmp_path, monkeypatch):
        block = tmp_path / "block"
        block.touch()
        monkeypatch.setenv(_BLOCK_FILE_ENV, str(block))
        task = SweepTask("baseline", "Greedy", "EBA", SCALE, SEED)
        service = _service(
            tmp_path / "store", workload_fn=_blocking_workload, workers=1
        )
        try:
            submission = service.submit([task])
            service.close(timeout=0.5)
            with pytest.raises(SweepTaskError, match="service closed"):
                submission.wait(timeout=10)
        finally:
            block.unlink()
            service.close()

    def test_close_leaves_no_orphan_workers(self, tmp_path):
        """Workers exiting on close() are not mistaken for crashes and
        respawned."""
        with _service(tmp_path) as service:
            service.run(_grid(BASE_POLICIES)[:2])
        assert multiprocessing.active_children() == []
        assert service.stats().worker_restarts == 0

    def test_negative_retry_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            _service(tmp_path, max_retries=-1)


class TestStoreless:
    def test_storeless_pool_dedups_and_persists_nothing(
        self, tmp_path, monkeypatch
    ):
        """``store=None``: overlapping submissions still share one
        computation, and a resubmit computes again because nothing was
        kept."""
        from repro.accounting.methods import method_by_name
        from repro.experiments._simulation import scenario

        block = tmp_path / "block"
        block.touch()
        monkeypatch.setenv(_BLOCK_FILE_ENV, str(block))
        task = SweepTask("baseline", "Greedy", "EBA", SCALE, SEED)
        with SweepService(
            scenario, _blocking_workload, method_by_name, store=None, workers=1
        ) as service:
            first = service.submit([task])
            second = service.submit([task])
            assert len(service._jobs_by_key) == 1
            block.unlink()
            a = first.wait(timeout=60)
            b = second.wait(timeout=60)
            assert a[task].outcomes == b[task].outcomes
            again = service.run([task])
            assert again[task].outcomes == a[task].outcomes
            stats = service.stats()
            assert (stats.submitted, stats.computed, stats.from_store) == (3, 2, 0)
            assert stats.store is None
            assert service.stats().as_dict()["store"] is None
        assert multiprocessing.active_children() == []
        assert not any(tmp_path.iterdir())


class TestIntrospection:
    def test_stats_shape(self, tmp_path):
        service = _service(tmp_path)
        stats = service.stats().as_dict()
        assert set(stats) == {
            "submitted",
            "completed",
            "from_store",
            "computed",
            "failed",
            "retries",
            "worker_restarts",
            "queue_depth",
            "in_flight",
            "workers",
            "store",
        }
        assert set(stats["store"]) == {
            "entries",
            "bytes",
            "max_bytes",
            "hits",
            "misses",
            "evictions",
            "corrupt",
        }
        service.close()

    def test_store_key_matches_store_module(self, tmp_path):
        from repro.sim.result_store import task_store_key

        service = _service(tmp_path)
        try:
            task = SweepTask("baseline", "Greedy", "EBA", SCALE, SEED)
            expected = task_store_key(
                task, service._pricing_fingerprint("baseline", SEED)
            )
            assert service.store_key(task) == expected
        finally:
            service.close()

    def test_tiered_knobs_change_store_key(self, tmp_path):
        """Regression: straggler/tier knobs are part of the scenario
        name, so tuning them can never alias a stale store entry."""
        from repro.sim.scenarios import tiered_scenario_name

        service = _service(tmp_path)
        try:

            def key(name):
                return service.store_key(
                    SweepTask(name, "LargestFirst", "EBA", SCALE, SEED)
                )

            keys = {
                key(tiered_scenario_name()),
                key(tiered_scenario_name(0.3, 1.0)),
                key(tiered_scenario_name(0.08, 0.5)),
            }
            assert len(keys) == 3
        finally:
            service.close()


class TestServeStdio:
    def _serve(self, tmp_path, lines):
        service = _service(tmp_path)
        out = io.StringIO()
        code = serve_stdio(service, io.StringIO("".join(lines)), out)
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        return code, events

    def test_protocol_round_trip(self, tmp_path):
        request = {
            "op": "sweep",
            "policies": ["Greedy"],
            "methods": ["EBA"],
            "scales": [SCALE],
            "seeds": [SEED],
        }
        code, events = self._serve(
            tmp_path,
            [
                "not json\n",
                '{"op": "frobnicate"}\n',
                '{"op": "stats"}\n',
                json.dumps(request) + "\n",
                '{"op": "shutdown"}\n',
            ],
        )
        assert code == 0
        kinds = [e["event"] for e in events]
        assert kinds == [
            "ready",
            "error",  # malformed line never crashes the server
            "error",  # unknown op
            "stats",
            "result",
            "sweep-done",
            "bye",
        ]
        result = next(e for e in events if e["event"] == "result")
        assert result["policy"] == "Greedy"
        assert result["method"] == "EBA"
        assert isinstance(result["total_cost"], float)
        done = next(e for e in events if e["event"] == "sweep-done")
        assert (done["from_store"], done["computed"]) == (0, 1)

    def test_resubmit_over_protocol_served_from_store(self, tmp_path):
        request = (
            json.dumps(
                {
                    "op": "sweep",
                    "policies": ["Greedy"],
                    "methods": ["EBA"],
                    "scales": [SCALE],
                    "seeds": [SEED],
                }
            )
            + "\n"
        )
        code, first = self._serve(tmp_path, [request, '{"op": "shutdown"}\n'])
        assert code == 0
        code, second = self._serve(tmp_path, [request, '{"op": "shutdown"}\n'])
        assert code == 0
        done = next(e for e in second if e["event"] == "sweep-done")
        assert (done["from_store"], done["computed"]) == (1, 0)
        # Full-precision JSON floats: textual equality == bit identity.
        line1 = next(e for e in first if e["event"] == "result")
        line2 = next(e for e in second if e["event"] == "result")
        assert json.dumps(line1, sort_keys=True) == json.dumps(
            line2, sort_keys=True
        )
