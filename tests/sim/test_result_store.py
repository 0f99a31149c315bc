"""The content-addressed result store and the OutcomeTable shm transport.

Recovery contract under test: *anything* undecodable on disk —
truncated, corrupt, wrong format — is a miss that deletes the entry and
recomputes; the store never raises for bad bytes.
"""

import errno
import io
import os

import numpy as np
import pytest

from repro.accounting.methods import all_methods, method_by_name
from repro.accounting.pricing import (
    OUTCOME_FIELDS,
    OutcomeTable,
    QuoteTable,
    fingerprint_digest,
)
from repro.sim import result_store
from repro.sim.engine import MultiClusterSimulator, pricing_for_sim_machine
from repro.sim.result_store import (
    STORE_FORMAT,
    ResultStore,
    task_store_key,
)
from repro.sim.sweep import SweepTask

SCALE = 120
SEED = 3

METHOD_NAMES = [m.name for m in all_methods()]


@pytest.fixture(scope="module")
def machines():
    from repro.experiments._simulation import scenario

    return dict(scenario("baseline", SEED))


@pytest.fixture(scope="module")
def sample_results(machines):
    """One Greedy run per accounting method (all five)."""
    from repro.experiments._simulation import workload
    from repro.sim.policies import GreedyPolicy

    wl = workload("baseline", SCALE, SEED)
    return {
        name: MultiClusterSimulator(
            machines, method_by_name(name), GreedyPolicy()
        ).run(wl)
        for name in METHOD_NAMES
    }


@pytest.fixture(scope="module")
def pricing_fp(machines):
    return QuoteTable.fingerprint(
        {
            name: pricing_for_sim_machine(machine)
            for name, machine in machines.items()
        }
    )


def task_for(method: str) -> SweepTask:
    return SweepTask("baseline", "Greedy", method, SCALE, SEED)


def assert_results_equal(got, expected):
    assert got.policy == expected.policy
    assert got.method == expected.method
    assert got.machines == expected.machines
    assert got.outcomes == expected.outcomes
    assert got.total_cost() == expected.total_cost()
    assert got.total_energy_j() == expected.total_energy_j()
    assert (
        got.total_attributed_carbon_g()
        == expected.total_attributed_carbon_g()
    )


class TestKeying:
    def test_key_is_stable(self, pricing_fp):
        task = task_for("EBA")
        assert task_store_key(task, pricing_fp) == task_store_key(
            task, pricing_fp
        )

    def test_key_folds_every_grid_coordinate(self, pricing_fp):
        base = task_for("EBA")
        variants = [
            SweepTask("low-carbon", "Greedy", "EBA", SCALE, SEED),
            SweepTask("baseline", "EFT", "EBA", SCALE, SEED),
            SweepTask("baseline", "Greedy", "CBA", SCALE, SEED),
            SweepTask("baseline", "Greedy", "EBA", SCALE + 1, SEED),
            SweepTask("baseline", "Greedy", "EBA", SCALE, SEED + 1),
        ]
        keys = {task_store_key(t, pricing_fp) for t in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_key_folds_pricing_fingerprint(self, pricing_fp):
        task = task_for("EBA")
        other_fp = fingerprint_digest("not-the-same-catalogue")
        assert task_store_key(task, pricing_fp) != task_store_key(
            task, other_fp
        )

    def test_tiered_straggler_knobs_fold_into_key(self, pricing_fp):
        """Straggler knobs ride in the scenario name, so every knob
        setting is its own store entry — a tuned run can never be
        served a stale default-knob result."""
        from repro.sim.scenarios import tiered_scenario_name

        names = [
            tiered_scenario_name(),  # "tiered", the defaults
            tiered_scenario_name(0.2, 1.0),
            tiered_scenario_name(0.08, 2.5),
            tiered_scenario_name(0.2, 2.5),
        ]
        keys = {
            task_store_key(
                SweepTask(name, "LargestFirst", "EBA", SCALE, SEED),
                pricing_fp,
            )
            for name in names
        }
        assert len(keys) == len(names)


class TestRoundTrip:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_all_five_methods_bit_identical(
        self, tmp_path, sample_results, pricing_fp, method
    ):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for(method), pricing_fp)
        store.put(key, sample_results[method])
        got = store.get(key)
        assert got is not None
        assert_results_equal(got, sample_results[method])

    def test_put_is_idempotent(self, tmp_path, sample_results, pricing_fp):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for("EBA"), pricing_fp)
        store.put(key, sample_results["EBA"])
        store.put(key, sample_results["EBA"])
        assert store.stats().entries == 1
        assert_results_equal(store.get(key), sample_results["EBA"])

    def test_tiered_straggler_run_round_trips(self, tmp_path):
        """A tiered run (slot caps, straggler-inflated runtimes) stores
        and loads bit-identically, keyed by its own pricing catalogue."""
        from repro.experiments._simulation import scenario, workload
        from repro.sim.policies import LargestFirstPolicy

        tiered = dict(scenario("tiered", SEED))
        wl = workload("tiered", SCALE, SEED)
        result = MultiClusterSimulator(
            tiered, method_by_name("CBA"), LargestFirstPolicy()
        ).run(wl)
        fp = QuoteTable.fingerprint(
            {n: pricing_for_sim_machine(m) for n, m in tiered.items()}
        )
        key = task_store_key(
            SweepTask("tiered", "LargestFirst", "CBA", SCALE, SEED), fp
        )
        store = ResultStore(tmp_path)
        store.put(key, result)
        got = store.get(key)
        assert got is not None
        assert_results_equal(got, result)

    def test_unknown_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(fingerprint_digest("nothing here")) is None
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 0)


class TestRecovery:
    """Truncated / corrupt / partially-written entries recompute, never
    crash."""

    def _stored(self, tmp_path, sample_results, pricing_fp):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for("EBA"), pricing_fp)
        store.put(key, sample_results["EBA"])
        return store, key, store._path(key)

    def test_truncated_entry(self, tmp_path, sample_results, pricing_fp):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get(key) is None
        assert not path.exists()  # dropped, so the recompute can re-put
        stats = store.stats()
        assert stats.corrupt == 1 and stats.misses == 1
        store.put(key, sample_results["EBA"])
        assert_results_equal(store.get(key), sample_results["EBA"])

    def test_corrupt_entry(self, tmp_path, sample_results, pricing_fp):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        path.write_bytes(b"\x00" * 512)
        assert store.get(key) is None
        assert store.stats().corrupt == 1

    def test_stale_format_version(self, tmp_path, sample_results, pricing_fp):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        with np.load(io.BytesIO(path.read_bytes())) as data:
            columns = {name: data[name] for name in data.files}
        columns["__meta__"] = np.frombuffer(
            b'{"format": "repro-result-store-v0"}', dtype=np.uint8
        )
        buffer = io.BytesIO()
        np.savez(buffer, **columns)
        path.write_bytes(buffer.getvalue())
        assert store.get(key) is None
        assert store.stats().corrupt == 1

    def test_partially_written_tmp_invisible(
        self, tmp_path, sample_results, pricing_fp
    ):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        # A crash mid-put leaves a .tmp in the root; it is never listed
        # as an entry and never consulted by get.
        (tmp_path / "put-crashed.tmp").write_bytes(b"half a payload")
        assert store.stats().entries == 1
        assert_results_equal(store.get(key), sample_results["EBA"])


class TestEviction:
    def test_lru_eviction_respects_budget(
        self, tmp_path, sample_results, pricing_fp
    ):
        entry_size = len(
            ResultStore(tmp_path / "probe")._encode(sample_results["EBA"])
        )
        store = ResultStore(tmp_path / "store", max_bytes=2 * entry_size + 64)
        keys = [
            task_store_key(task_for(method), pricing_fp)
            for method in ("Runtime", "Energy", "Peak")
        ]
        store.put(keys[0], sample_results["Runtime"])
        store.put(keys[1], sample_results["Energy"])
        # Pin the ordering below filesystem mtime granularity.
        os.utime(store._path(keys[0]), (100, 100))
        os.utime(store._path(keys[1]), (200, 200))
        store.put(keys[2], sample_results["Peak"])
        stats = store.stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        assert stats.bytes <= store.max_bytes
        # Oldest-touched went first.
        assert store.get(keys[0]) is None
        assert store.get(keys[2]) is not None

    def test_hit_bumps_recency(self, tmp_path, sample_results, pricing_fp):
        entry_size = len(
            ResultStore(tmp_path / "probe")._encode(sample_results["EBA"])
        )
        store = ResultStore(tmp_path / "store", max_bytes=2 * entry_size + 64)
        keys = {
            method: task_store_key(task_for(method), pricing_fp)
            for method in ("Runtime", "Energy", "Peak")
        }
        store.put(keys["Runtime"], sample_results["Runtime"])
        store.put(keys["Energy"], sample_results["Energy"])
        # Age both well into the past (filesystem mtime granularity can
        # otherwise make same-tick writes indistinguishable), with
        # Runtime the older of the two.
        os.utime(store._path(keys["Runtime"]), (100, 100))
        os.utime(store._path(keys["Energy"]), (200, 200))
        assert store.get(keys["Runtime"]) is not None  # bump Runtime
        assert store._path(keys["Runtime"]).stat().st_mtime > 200
        store.put(keys["Peak"], sample_results["Peak"])
        assert store.get(keys["Runtime"]) is not None  # survived
        assert store.get(keys["Energy"]) is None  # evicted instead

    def test_budget_below_one_entry_keeps_newest(
        self, tmp_path, sample_results, pricing_fp
    ):
        store = ResultStore(tmp_path, max_bytes=1)
        first = task_store_key(task_for("Runtime"), pricing_fp)
        second = task_store_key(task_for("Energy"), pricing_fp)
        store.put(first, sample_results["Runtime"])
        store.put(second, sample_results["Energy"])
        # Degrades to most-recent-only caching, never to empty.
        assert store.stats().entries == 1
        assert store.get(second) is not None

    def test_clear_removes_entries(self, tmp_path, sample_results, pricing_fp):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for("EBA"), pricing_fp)
        store.put(key, sample_results["EBA"])
        store.clear()
        assert store.stats().entries == 0
        assert store.get(key) is None

    def test_stats_as_dict_shape(self, tmp_path):
        stats = ResultStore(tmp_path).stats()
        assert set(stats.as_dict()) == {
            "entries",
            "bytes",
            "max_bytes",
            "hits",
            "misses",
            "evictions",
            "corrupt",
        }


class _FullDiskFile:
    """A store tempfile on a full disk: the first write lands a few
    bytes, then fails with ``ENOSPC``."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def write(self, data) -> int:
        self._fh.write(bytes(data[:64]))
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


class _FullDiskOS:
    """``os`` as :mod:`repro.sim.result_store` sees it on a full disk:
    every payload write fails; everything else is the real module."""

    def __init__(self) -> None:
        self.writes = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def fdopen(self, fd, *args, **kwargs):
        self.writes += 1
        return _FullDiskFile(os.fdopen(fd, *args, **kwargs))


def _files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class TestFullDisk:
    """``ENOSPC`` under ``ResultStore.put``: the error surfaces, the
    partial tempfile goes, and nothing half-written is ever served."""

    def test_put_raises_and_leaves_no_tempfile(
        self, tmp_path, sample_results, pricing_fp, monkeypatch
    ):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for("CBA"), pricing_fp)
        before = _files(tmp_path)
        monkeypatch.setattr(result_store, "os", _FullDiskOS())
        with pytest.raises(OSError) as raised:
            store.put(key, sample_results["CBA"])
        assert raised.value.errno == errno.ENOSPC
        assert _files(tmp_path) == before
        assert not list(tmp_path.glob("put-*.tmp"))
        assert store.get(key) is None
        assert store.stats().misses == 1
        # Once there is room again the same put commits normally.
        monkeypatch.undo()
        store.put(key, sample_results["CBA"])
        assert_results_equal(store.get(key), sample_results["CBA"])

    def test_service_on_full_store_matches_storeless_run(self, tmp_path, monkeypatch):
        from repro.experiments._simulation import scenario, workload
        from repro.sim.sweep_service import SweepService

        tasks = [
            SweepTask("baseline", policy, method, SCALE, SEED)
            for policy in ("Greedy", "EFT")
            for method in ("EBA", "CBA")
        ]

        def run(store):
            service = SweepService(
                scenario, workload, method_by_name, store=store, workers=2
            )
            with service:
                return service.run(tasks)

        reference = run(None)
        full_disk = _FullDiskOS()
        monkeypatch.setattr(result_store, "os", full_disk)
        store = ResultStore(tmp_path)
        got = run(store)
        assert full_disk.writes == len(tasks)  # every put was tried
        assert not list(tmp_path.rglob("put-*.tmp"))
        assert _files(tmp_path) == []
        assert store.stats().entries == 0
        for task in tasks:
            assert_results_equal(got[task], reference[task])
            for name, _ in OUTCOME_FIELDS:
                assert np.array_equal(
                    getattr(got[task].table, name),
                    getattr(reference[task].table, name),
                )


class TestOutcomeTableShm:
    """The PR-7 leftover: outcome tables ship as shm blocks, both whole
    and streamed block-at-a-time."""

    def _table(self, sample_results):
        return sample_results["EBA"].table

    def test_round_trip(self, sample_results):
        table = self._table(sample_results)
        descriptor = table.to_shm()
        try:
            attached = OutcomeTable.attach(descriptor)
        finally:
            descriptor.unlink()
        assert attached.machines == table.machines
        assert len(attached) == len(table)
        for name, _ in OUTCOME_FIELDS:
            np.testing.assert_array_equal(
                getattr(attached, name), getattr(table, name)
            )

    def test_stream_to_shm_from_blocks(self, sample_results):
        table = self._table(sample_results)
        split = len(table) // 2
        blocks = [
            OutcomeTable(
                list(table.machines),
                **{
                    name: getattr(table, name)[sl]
                    for name, _ in OUTCOME_FIELDS
                },
            )
            for sl in (slice(None, split), slice(split, None))
        ]
        descriptor = OutcomeTable.stream_to_shm(
            iter(blocks), len(table), list(table.machines)
        )
        try:
            attached = OutcomeTable.attach(descriptor)
        finally:
            descriptor.unlink()
        for name, _ in OUTCOME_FIELDS:
            np.testing.assert_array_equal(
                getattr(attached, name), getattr(table, name)
            )

    def test_empty_table_round_trip(self, sample_results):
        table = self._table(sample_results)
        empty = OutcomeTable(
            list(table.machines),
            **{
                name: getattr(table, name)[:0]
                for name, _ in OUTCOME_FIELDS
            },
        )
        descriptor = empty.to_shm()
        try:
            attached = OutcomeTable.attach(descriptor)
        finally:
            descriptor.unlink()
        assert len(attached) == 0

    def test_unlink_is_idempotent(self, sample_results):
        descriptor = self._table(sample_results).to_shm()
        descriptor.unlink()
        descriptor.unlink()  # second call: clean no-op

    def test_row_count_mismatch_raises_without_leak(self, sample_results):
        table = self._table(sample_results)
        with pytest.raises(ValueError, match="row count"):
            OutcomeTable.stream_to_shm(
                iter([table]), len(table) + 1, list(table.machines)
            )
        with pytest.raises(ValueError, match="row count"):
            OutcomeTable.stream_to_shm(
                iter([table]), len(table) - 1, list(table.machines)
            )

    def test_store_format_in_module_all(self):
        assert isinstance(STORE_FORMAT, str) and STORE_FORMAT
