"""The columnar pricing core: quote tables, outcome tables, and the
deferred-settlement ledgers must be bit-identical to their per-record
reference paths."""

import pickle

import numpy as np
import pytest

from repro.accounting.base import MachinePricing, UsageRecord
from repro.accounting.methods import CarbonBasedAccounting, all_methods
from repro.accounting.pricing import (
    OUTCOME_FIELDS,
    OutcomeTable,
    PricingKernel,
    QuoteTable,
    QuoteTableCache,
    QuoteTableKey,
    SegmentLedger,
    SettlementQueue,
)
from repro.carbon.intensity import CarbonIntensityTrace
from repro.sim.job import ELIG_RANK_INELIGIBLE, Job, JobBlock, JobOutcome
from repro.units import operational_carbon_g


def make_pricings(rng, n_machines=3):
    pricings = {}
    for mi in range(n_machines):
        name = f"M{mi}"
        trace = CarbonIntensityTrace(
            f"r{mi}", rng.uniform(20.0, 900.0, size=48)
        )
        pricings[name] = MachinePricing(
            name=name,
            total_cores=int(rng.integers(8, 256)),
            tdp_watts=float(rng.uniform(100, 900)),
            peak_rating=float(rng.uniform(1.0, 4.0)),
            embodied_carbon_g=float(rng.uniform(1e5, 5e6)),
            age_years=int(rng.integers(0, 6)),
            intensity=trace,
        )
    return pricings


def block(jobs, pricings):
    """The columns of ``jobs`` over the catalogue's machines."""
    return JobBlock.from_jobs(jobs, list(pricings))


def make_jobs(rng, pricings, n=60):
    names = list(pricings)
    jobs = []
    for i in range(n):
        eligible = [m for m in names if rng.random() < 0.8] or [names[0]]
        jobs.append(
            Job(
                job_id=i,
                user=int(rng.integers(0, 10)),
                cores=int(rng.integers(1, 64)),
                submit_s=float(rng.uniform(0, 3e5)),
                runtime_s={m: float(rng.uniform(60, 3e4)) for m in eligible},
                energy_j={m: float(rng.uniform(1e3, 1e8)) for m in eligible},
            )
        )
    return jobs


def quotes_of(table):
    """A quote table's (or kernel's) per-row quotes and eligibility walks."""
    return table.quotes, table.walks, table.walk_names


class TestPricingKernelQuotes:
    @pytest.mark.parametrize("method_index", range(5))
    def test_quotes_match_scalar_charges(self, method_index):
        """Every quoted (job, machine) cost equals a scalar charge()."""
        rng = np.random.default_rng(21 + method_index)
        method = all_methods()[method_index]
        pricings = make_pricings(rng)
        jobs = make_jobs(rng, pricings)
        kernel = PricingKernel(block(jobs, pricings), pricings, method)
        for job in jobs:
            walk, runtimes, energies, costs = kernel.quotes[kernel.row_of[job.job_id]]
            names = kernel.walk_names[walk]
            assert list(names) == job.eligible_machines
            assert names == tuple(kernel.machine_names[mi] for mi in kernel.walks[walk])
            for name, runtime, energy, cost in zip(names, runtimes, energies, costs):
                record = UsageRecord(
                    machine=name,
                    duration_s=runtime,
                    energy_j=energy,
                    cores=job.cores,
                    start_time_s=job.submit_s,
                )
                assert cost == method.charge(record, pricings[name])

    def test_price_outcomes_matches_scalar(self):
        """A schedule settles to the scalar charges.  Only its job ids,
        machines, starts and ends are read: every other column it
        carries is zero, and the settled rows take theirs from the
        quote rows."""
        rng = np.random.default_rng(3)
        method = CarbonBasedAccounting()
        carbon = CarbonBasedAccounting()
        pricings = make_pricings(rng)
        names = list(pricings)
        jobs = make_jobs(rng, pricings)
        kernel = PricingKernel(block(jobs, pricings), pricings, method)
        finished = []
        for i in rng.permutation(len(jobs)).tolist():
            job = jobs[i]
            machine = job.eligible_machines[0]
            start = job.submit_s + float(rng.uniform(0, 1e4))
            finished.append((job, machine, start, start + job.runtime_s[machine]))
        n = len(finished)
        zeros = np.zeros(n)
        schedule = OutcomeTable(
            names,
            job_id=[job.job_id for job, *_ in finished],
            user=zeros,
            machine_code=[names.index(machine) for _, machine, *_ in finished],
            cores=zeros,
            submit_s=zeros,
            start_s=[start for *_, start, _ in finished],
            end_s=[end for *_, end in finished],
            energy_j=zeros,
            cost=zeros,
            work_core_hours=zeros,
            operational_carbon_g=zeros,
            attributed_carbon_g=zeros,
        )
        table = kernel.price_outcomes(schedule)
        assert len(table) == n
        for row, (job, machine, start, end) in zip(table.rows(), finished):
            record = UsageRecord(
                machine=machine,
                duration_s=job.runtime_s[machine],
                energy_j=job.energy_j[machine],
                cores=job.cores,
                start_time_s=start,
            )
            pricing = pricings[machine]
            assert row.job_id == job.job_id
            assert row.user == job.user
            assert row.machine == machine
            assert row.cores == job.cores
            assert row.submit_s == job.submit_s
            assert (row.start_s, row.end_s) == (start, end)
            assert row.energy_j == job.energy_j[machine]
            assert row.cost == method.charge(record, pricing)
            operational = operational_carbon_g(
                job.energy_j[machine], pricing.intensity.at(start)
            )
            assert row.operational_carbon_g == operational
            assert row.attributed_carbon_g == operational + carbon.embodied_charge(
                record, pricing
            )


class TestScheduleSettlement:
    """``price_outcomes`` re-settles a finished engine schedule."""

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_engine_result_round_trips_bit_for_bit(
        self, sim_machines, small_workload, method
    ):
        from repro.sim.engine import MultiClusterSimulator, pricing_for_sim_machine
        from repro.sim.policies import EFTPolicy

        result = MultiClusterSimulator(sim_machines, method, EFTPolicy()).run(
            small_workload
        )
        pricings = {
            name: pricing_for_sim_machine(m) for name, m in sim_machines.items()
        }
        kernel = PricingKernel(small_workload.block(list(pricings)), pricings, method)
        settled = kernel.price_outcomes(result.table)
        assert settled.machines == result.table.machines
        for name, _ in OUTCOME_FIELDS:
            expected = getattr(result.table, name)
            got = getattr(settled, name)
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == expected.tobytes(), name

    def test_schedule_over_other_machines_is_rejected(self):
        rng = np.random.default_rng(5)
        pricings = make_pricings(rng)
        jobs = make_jobs(rng, pricings, n=4)
        kernel = PricingKernel(block(jobs, pricings), pricings, all_methods()[0])
        for machines in (list(pricings)[::-1], list(pricings)[:-1]):
            schedule = OutcomeTable.empty(machines)
            with pytest.raises(ValueError, match="cannot be settled"):
                kernel.price_outcomes(schedule)


class TestQuoteTableSharing:
    """The workload-determined tables split out of the kernel: prebuilt
    adoption must be exact, incompatible adoption must fail loudly."""

    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(17)
        pricings = make_pricings(rng)
        jobs = make_jobs(rng, pricings)
        return jobs, pricings

    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_prebuilt_table_is_bit_identical(self, setup, method):
        jobs, pricings = setup
        fresh = PricingKernel(block(jobs, pricings), pricings, method)
        table = QuoteTable.build(block(jobs, pricings), pricings, method)
        adopted = PricingKernel(block(jobs, pricings), pricings, method, table=table)
        assert adopted.table is table
        assert quotes_of(adopted) == quotes_of(fresh)
        for name in pricings:
            assert np.array_equal(
                adopted.runtime[name], fresh.runtime[name], equal_nan=True
            )
            assert np.array_equal(
                adopted.energy[name], fresh.energy[name], equal_nan=True
            )

    def test_wrong_method_rejected(self, setup):
        jobs, pricings = setup
        methods = all_methods()
        table = QuoteTable.build(block(jobs, pricings), pricings, methods[0])
        with pytest.raises(ValueError, match="quote table does not match"):
            PricingKernel(block(jobs, pricings), pricings, methods[1], table=table)

    def test_wrong_workload_rejected(self, setup):
        jobs, pricings = setup
        method = all_methods()[0]
        table = QuoteTable.build(block(jobs, pricings), pricings, method)
        with pytest.raises(ValueError, match="quote table does not match"):
            PricingKernel(block(jobs[:-1], pricings), pricings, method, table=table)

    def test_same_names_different_pricing_values_rejected(self, setup):
        """Scenarios share machine names; a table built against another
        scenario's traces/rates must not be adoptable."""
        jobs, pricings = setup
        method = all_methods()[0]
        other = make_pricings(np.random.default_rng(99))  # same M0..M2 names
        assert list(other) == list(pricings)
        table = QuoteTable.build(block(jobs, other), other, method)
        with pytest.raises(ValueError, match="quote table does not match"):
            PricingKernel(block(jobs, pricings), pricings, method, table=table)

    def test_wrong_machine_set_rejected(self, setup):
        jobs, pricings = setup
        method = all_methods()[0]
        table = QuoteTable.build(block(jobs, pricings), pricings, method)
        fewer = dict(list(pricings.items())[:-1])
        with pytest.raises(ValueError, match="quote table does not match"):
            PricingKernel(block(jobs, fewer), fewer, method, table=table)

    def test_cache_get_or_build_builds_once(self, setup):
        jobs, pricings = setup
        method = all_methods()[0]
        cache = QuoteTableCache()
        key = QuoteTableKey(
            workload=("wl", 60, 0),
            method=method.name,
            machines=tuple(pricings),
        )
        builds = []

        def builder():
            builds.append(1)
            return QuoteTable.build(block(jobs, pricings), pricings, method)

        first = cache.get_or_build(key, builder)
        second = cache.get_or_build(key, builder)
        assert first is second
        assert len(builds) == 1
        assert key in cache and len(cache) == 1
        assert cache.get(key) is first
        cache.clear()
        assert len(cache) == 0 and cache.get(key) is None

    def test_keys_are_hashable_and_value_equal(self):
        a = QuoteTableKey(("wl", 1, 2), "CBA", ("M0", "M1"))
        b = QuoteTableKey(("wl", 1, 2), "CBA", ("M0", "M1"))
        c = QuoteTableKey(("wl", 1, 3), "CBA", ("M0", "M1"))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_elig_rank_replays_eligibility_order(self, setup):
        """The table's block ranks each machine by its position in the
        job's own eligibility walk — what the per-row walks are derived
        from."""
        jobs, pricings = setup
        table = QuoteTable.build(block(jobs, pricings), pricings, all_methods()[0])
        assert table.block.elig_rank.shape == (len(jobs), len(pricings))
        name_idx = {name: mi for mi, name in enumerate(pricings)}
        for job in jobs:
            row = table.block.elig_rank[table.row_of[job.job_id]]
            for rank, name in enumerate(job.eligible_machines):
                assert row[name_idx[name]] == rank
            for name in set(pricings) - set(job.eligible_machines):
                assert row[name_idx[name]] == ELIG_RANK_INELIGIBLE


class TestQuoteTableCacheLRU:
    """The capacity bound: LRU eviction, counters, re-warm exactness."""

    @staticmethod
    def keys(n):
        return [
            QuoteTableKey(("wl", i, 0), "EBA", ("M0",)) for i in range(n)
        ]

    def test_capacity_bound_honored(self):
        cache = QuoteTableCache(capacity=2)
        k = self.keys(3)
        for key in k:
            cache.store(key, QuoteTable())
        assert len(cache) == 2
        assert k[0] not in cache and k[1] in cache and k[2] in cache
        assert cache.stats().evictions == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = QuoteTableCache(capacity=2)
        k = self.keys(3)
        a, b = QuoteTable(), QuoteTable()
        cache.store(k[0], a)
        cache.store(k[1], b)
        assert cache.get(k[0]) is a  # refresh: k[1] is now the LRU
        cache.store(k[2], QuoteTable())
        assert k[0] in cache and k[1] not in cache

    def test_counters_and_stats(self):
        cache = QuoteTableCache(capacity=2)
        k = self.keys(3)
        built = []

        def builder():
            table = QuoteTable()
            built.append(table)
            return table

        assert cache.get(k[0]) is None  # miss
        cache.get_or_build(k[0], builder)  # miss + build
        cache.get_or_build(k[0], builder)  # hit
        cache.get_or_build(k[1], builder)  # miss + build
        cache.get_or_build(k[2], builder)  # miss + build -> evicts k[0]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 4, 1)
        assert stats.size == 2 and stats.capacity == 2
        assert len(built) == 3
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)
        assert stats.size == 0

    def test_resize_evicts_down_to_new_bound(self):
        cache = QuoteTableCache()
        k = self.keys(4)
        for key in k:
            cache.store(key, QuoteTable())
        assert len(cache) == 4 and cache.stats().capacity is None
        cache.resize(2)
        assert len(cache) == 2
        assert k[0] not in cache and k[1] not in cache
        assert k[2] in cache and k[3] in cache
        assert cache.stats().evictions == 2

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_invalid_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            QuoteTableCache(capacity=capacity)
        with pytest.raises(ValueError, match="capacity"):
            QuoteTableCache().resize(capacity)

    def test_rewarm_after_eviction_is_bit_identical(self):
        """An evicted table rebuilds exactly: a quote table is a pure
        function of its key, so eviction can only ever cost time."""
        rng = np.random.default_rng(31)
        pricings = make_pricings(rng)
        jobs = make_jobs(rng, pricings)
        method = all_methods()[0]
        key = QuoteTableKey(("wl", 60, 0), method.name, tuple(pricings))
        other = QuoteTableKey(("other", 1, 0), method.name, tuple(pricings))
        cache = QuoteTableCache(capacity=1)
        builder = lambda: QuoteTable.build(  # noqa: E731
            block(jobs, pricings), pricings, method
        )
        first = cache.get_or_build(key, builder)
        cache.store(other, QuoteTable())  # evicts `key`
        assert key not in cache
        rebuilt = cache.get_or_build(key, builder)
        assert rebuilt is not first
        assert quotes_of(rebuilt) == quotes_of(first)
        assert np.array_equal(rebuilt.block.elig_rank, first.block.elig_rank)
        for name in pricings:
            assert np.array_equal(
                rebuilt.runtime[name], first.runtime[name], equal_nan=True
            )
            assert np.array_equal(
                rebuilt.energy[name], first.energy[name], equal_nan=True
            )


class TestQuoteTableShm:
    """The ``to_shm``/``attach`` transport behind spawn-context sweeps:
    attached tables must be value-identical to the packed original, and
    the cache must release attached mappings when it drops them."""

    @pytest.fixture()
    def built(self):
        rng = np.random.default_rng(41)
        pricings = make_pricings(rng)
        jobs = make_jobs(rng, pricings)
        table = QuoteTable.build(block(jobs, pricings), pricings, all_methods()[0])
        return jobs, pricings, table

    def test_round_trip_is_value_identical(self, built):
        jobs, pricings, table = built
        descriptor = table.to_shm()
        try:
            clone = QuoteTable.attach(descriptor)
            try:
                assert clone.from_shm and not table.from_shm
                assert clone.method_name == table.method_name
                assert clone.machine_names == table.machine_names
                assert clone.pricing_fingerprint == table.pricing_fingerprint
                assert clone.row_of == table.row_of
                assert quotes_of(clone) == quotes_of(table)
                assert np.array_equal(clone.block.elig_rank, table.block.elig_rank)
                assert np.array_equal(clone.job_id, table.job_id)
                for name in pricings:
                    for col in ("runtime", "energy", "cost"):
                        assert np.array_equal(
                            getattr(clone, col)[name],
                            getattr(table, col)[name],
                            equal_nan=True,
                        )
            finally:
                clone.release()
        finally:
            descriptor.unlink()

    def test_descriptor_pickles_and_views_are_read_only(self, built):
        _, pricings, table = built
        descriptor = pickle.loads(pickle.dumps(table.to_shm()))
        try:
            clone = QuoteTable.attach(descriptor)
            try:
                name = next(iter(pricings))
                with pytest.raises(ValueError):
                    clone.runtime[name][0] = 1.0
                with pytest.raises(ValueError):
                    clone.block.elig_rank[0, 0] = 0
            finally:
                clone.release()
        finally:
            descriptor.unlink()

    def test_attached_table_is_adoptable_by_a_kernel(self, built):
        """The whole point of the transport: a kernel over an attached
        table quotes exactly what a freshly priced kernel quotes."""
        jobs, pricings, table = built
        method = all_methods()[0]
        descriptor = table.to_shm()
        try:
            clone = QuoteTable.attach(descriptor)
            try:
                adopted = PricingKernel(
                    block(jobs, pricings), pricings, method, table=clone
                )
                fresh = PricingKernel(block(jobs, pricings), pricings, method)
                assert quotes_of(adopted) == quotes_of(fresh)
                for name in pricings:
                    assert np.array_equal(
                        adopted.runtime[name],
                        fresh.runtime[name],
                        equal_nan=True,
                    )
            finally:
                clone.release()
        finally:
            descriptor.unlink()

    def test_cache_eviction_releases_attached_mapping(self, built):
        _, pricings, table = built
        descriptor = table.to_shm()
        try:
            clone = QuoteTable.attach(descriptor)
            cache = QuoteTableCache(capacity=1)
            key = QuoteTableKey(("wl", 60, 0), table.method_name, tuple(pricings))
            cache.store(key, clone)
            cache.shm_attached += 1
            assert cache.stats().shm_attached == 1
            cache.store(
                QuoteTableKey(("other", 1, 0), "EBA", ("M0",)), QuoteTable()
            )  # evicts the attached table
            assert key not in cache
            assert not clone.from_shm  # mapping handed back, not leaked
            assert quotes_of(clone) == ([], [], [])
            cache.clear()
            assert cache.stats().shm_attached == 0
        finally:
            descriptor.unlink()

    def test_release_is_a_no_op_for_owned_tables(self, built):
        _, _, table = built
        quotes_before = table.quotes
        table.release()
        assert table.quotes is quotes_before

    def test_unlink_is_idempotent(self, built):
        _, _, table = built
        descriptor = table.to_shm()
        descriptor.unlink()
        descriptor.unlink()  # the block is gone; second call is a no-op


class TestOutcomeTable:
    def make_rows(self, rng, n=25):
        machines = ["A", "B", "C"]
        return machines, [
            JobOutcome(
                job_id=i,
                user=int(rng.integers(0, 5)),
                machine=machines[int(rng.integers(0, 3))],
                cores=int(rng.integers(1, 64)),
                submit_s=float(rng.uniform(0, 1e5)),
                start_s=float(rng.uniform(1e5, 2e5)),
                end_s=float(rng.uniform(2e5, 3e5)),
                energy_j=float(rng.uniform(1, 1e8)),
                cost=float(rng.uniform(0, 1e4)),
                work_core_hours=float(rng.uniform(0, 1e3)),
                operational_carbon_g=float(rng.uniform(0, 1e3)),
                attributed_carbon_g=float(rng.uniform(0, 2e3)),
            )
            for i in range(n)
        ]

    def test_from_rows_round_trip(self):
        machines, rows = self.make_rows(np.random.default_rng(1))
        table = OutcomeTable.from_rows(rows, machines)
        assert len(table) == len(rows)
        assert table.rows() == rows

    def test_lazy_rows_materialize_once(self):
        machines, rows = self.make_rows(np.random.default_rng(2))
        table = OutcomeTable.from_rows(rows, machines)
        table._rows_cache = None  # drop the construction cache
        first = table.rows()
        assert first == rows
        assert table.rows() is first

    def test_machines_seeded_plus_extras(self):
        machines, rows = self.make_rows(np.random.default_rng(3))
        table = OutcomeTable.from_rows(rows, ["Z", *machines])
        assert table.machines[0] == "Z"
        assert set(table.machines) == {"Z", "A", "B", "C"}

    def test_pickle_drops_row_cache_and_preserves_columns(self):
        machines, rows = self.make_rows(np.random.default_rng(4))
        table = OutcomeTable.from_rows(rows, machines)
        clone = pickle.loads(pickle.dumps(table))
        assert clone._rows_cache is None
        assert clone.rows() == rows
        assert np.array_equal(clone.cost, table.cost)

    def test_empty(self):
        table = OutcomeTable.empty(["A"])
        assert len(table) == 0
        assert table.rows() == []

    def test_rejects_ragged_columns(self):
        machines, rows = self.make_rows(np.random.default_rng(5))
        table = OutcomeTable.from_rows(rows, machines)
        state = table.__getstate__()
        state["cost"] = state["cost"][:-1]
        with pytest.raises(ValueError):
            OutcomeTable(
                machines, **{k: v for k, v in state.items() if k != "machines"}
            )


class TestSegmentLedger:
    @pytest.mark.parametrize("method_index", range(5))
    def test_settle_bit_identical_to_per_segment_charges(self, method_index):
        rng = np.random.default_rng(31 + method_index)
        method = all_methods()[method_index]
        carbon = CarbonBasedAccounting()
        pricings = make_pricings(rng)
        names = list(pricings)
        ledger = SegmentLedger(method, pricings)
        records = []
        for i in range(300):
            name = names[int(rng.integers(0, len(names)))]
            record = UsageRecord(
                machine=name,
                duration_s=float(rng.uniform(1, 6e4)),
                energy_j=float(rng.uniform(1, 1e8)),
                cores=int(rng.integers(1, 64)),
                start_time_s=float(rng.uniform(0, 3e5)),
            )
            records.append(record)
            ledger.add(
                name,
                record.start_time_s,
                record.duration_s,
                record.energy_j,
                record.cores,
            )
        cost, operational, attributed = ledger.settle()
        for i, record in enumerate(records):
            pricing = pricings[record.machine]
            assert cost[i] == method.charge(record, pricing)
            expected_op = operational_carbon_g(
                record.energy_j, pricing.intensity.at(record.start_time_s)
            )
            assert operational[i] == expected_op
            assert attributed[i] == expected_op + carbon.embodied_charge(
                record, pricing
            )


class TestSettlementQueue:
    def make_records(self, rng, pricings, n=200):
        names = list(pricings)
        return [
            UsageRecord(
                machine=names[int(rng.integers(0, len(names)))],
                duration_s=float(rng.uniform(0.1, 6e4)),
                energy_j=float(rng.uniform(0.1, 1e8)),
                cores=int(rng.integers(1, 64)),
                provisioned_cores=(
                    int(rng.integers(1, 64)) if rng.random() < 0.3 else None
                ),
                start_time_s=float(rng.uniform(0, 3e5)),
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize("method_index", range(5))
    def test_settle_bit_identical_to_immediate_charges(self, method_index):
        rng = np.random.default_rng(41 + method_index)
        method = all_methods()[method_index]
        pricings = make_pricings(rng)
        records = self.make_records(rng, pricings)
        queue = SettlementQueue(method, pricings)
        for record in records:
            queue.add(record)
        charges = queue.settle()
        assert charges == [
            method.charge(r, pricings[r.machine]) for r in records
        ]
        assert len(queue) == 0 and queue.pending_bound == 0.0

    @pytest.mark.parametrize("method_index", range(5))
    def test_pending_bound_is_sound(self, method_index):
        """The queue's bound must never undercount the true pending debt
        — that is what keeps deferred admission control exact."""
        rng = np.random.default_rng(51 + method_index)
        method = all_methods()[method_index]
        pricings = make_pricings(rng)
        records = self.make_records(rng, pricings)
        queue = SettlementQueue(method, pricings)
        actual = 0.0
        for record in records:
            queue.add(record)
            actual += method.charge(record, pricings[record.machine])
            assert queue.pending_bound >= actual - 1e-9 * abs(actual)

    def test_charge_upper_bound_dominates_charge(self):
        rng = np.random.default_rng(61)
        pricings = make_pricings(rng)
        for method in all_methods():
            for record in self.make_records(rng, pricings, n=50):
                pricing = pricings[record.machine]
                assert method.charge_upper_bound(record, pricing) >= method.charge(
                    record, pricing
                )

    def test_rejects_unknown_machine(self):
        rng = np.random.default_rng(71)
        pricings = make_pricings(rng)
        queue = SettlementQueue(all_methods()[0], pricings)
        with pytest.raises(KeyError):
            queue.add(UsageRecord(machine="nope", duration_s=1.0, energy_j=1.0))

    def test_empty_settle(self):
        rng = np.random.default_rng(72)
        queue = SettlementQueue(all_methods()[0], make_pricings(rng))
        assert queue.settle() == []
