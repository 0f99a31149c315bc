"""The flat-memory streaming trace path (chunked ingestion, sharded
quote tables, spill-to-disk outcome blocks).

The load-bearing contract: a streamed run is **bit-identical** to the
in-memory reference for every accounting method — same outcome columns,
same aggregates, same budget cutoffs — while holding only O(chunk)
state.  The fixtures force small chunks and spill blocks so every run
here crosses many chunk/shard/spill boundaries.
"""

import numpy as np
import pytest

from repro.accounting.methods import all_methods
from repro.accounting.pricing import OUTCOME_FIELDS, QuoteTable
from repro.accounting.spill import OutcomeSpillStore
from repro.reporting import fleet_report
from repro.sim.engine import MultiClusterSimulator
from repro.sim.events import ARRIVAL, EventCalendar
from repro.sim.job import Job, JobBlock
from repro.sim.policies import EFTPolicy
from repro.sim.swf import open_swf_stream, read_swf, write_swf
from repro.sim.workload import PatelWorkloadGenerator, WorkloadConfig

SEED = 2
CHUNK_JOBS = 97  # prime, small: every run crosses many chunk boundaries
SPILL_BLOCK_JOBS = 64

METHOD_NAMES = [m.name for m in all_methods()]


@pytest.fixture(scope="module")
def trace_path(sim_machines, tmp_path_factory):
    cfg = WorkloadConfig(n_base_jobs=200, n_users=40, seed=5)
    workload = PatelWorkloadGenerator(sim_machines, cfg).generate()
    return write_swf(workload, tmp_path_factory.mktemp("swf") / "mid.swf")


@pytest.fixture(scope="module")
def result_pairs(trace_path, sim_machines, tmp_path_factory):
    """(in-memory reference, streamed) per accounting method."""
    spill_root = tmp_path_factory.mktemp("spill")
    pairs = {}
    for method in all_methods():
        reference = MultiClusterSimulator(
            sim_machines, method, EFTPolicy()
        ).run(read_swf(trace_path, sim_machines, seed=SEED))
        spill_dir = spill_root / method.name
        spill_dir.mkdir()
        streamed = MultiClusterSimulator(
            sim_machines,
            method,
            EFTPolicy(),
            spill_dir=str(spill_dir),
            spill_block_jobs=SPILL_BLOCK_JOBS,
        ).run(
            open_swf_stream(
                trace_path, sim_machines, seed=SEED, chunk_jobs=CHUNK_JOBS
            )
        )
        pairs[method.name] = (reference, streamed)
    return pairs


class TestBitIdentity:
    @pytest.mark.parametrize("method_name", METHOD_NAMES)
    def test_outcome_columns_identical(self, result_pairs, method_name):
        reference, streamed = result_pairs[method_name]
        ref_table = reference.table
        stream_table = streamed.table  # materializes the spilled blocks
        assert stream_table.machines == ref_table.machines
        for field, _ in OUTCOME_FIELDS:
            assert np.array_equal(
                getattr(stream_table, field), getattr(ref_table, field)
            ), field

    @pytest.mark.parametrize("method_name", METHOD_NAMES)
    def test_aggregates_identical(self, result_pairs, method_name):
        reference, streamed = result_pairs[method_name]
        assert streamed.n_jobs == reference.n_jobs
        assert streamed.makespan_s == reference.makespan_s
        assert streamed.total_cost() == reference.total_cost()
        assert streamed.total_energy_j() == reference.total_energy_j()
        assert (
            streamed.total_work_core_hours() == reference.total_work_core_hours()
        )
        assert (
            streamed.total_operational_carbon_g()
            == reference.total_operational_carbon_g()
        )
        assert (
            streamed.total_attributed_carbon_g()
            == reference.total_attributed_carbon_g()
        )
        assert streamed.mean_queue_wait_s() == reference.mean_queue_wait_s()
        assert streamed.user_balances() == reference.user_balances()
        assert (
            streamed.machine_distribution() == reference.machine_distribution()
        )

    @pytest.mark.parametrize("method_name", METHOD_NAMES)
    def test_budget_reductions_identical(self, result_pairs, method_name):
        """Fig. 5/6-style reductions stream the spilled blocks in
        completion order — cutoffs must land on the same row."""
        reference, streamed = result_pairs[method_name]
        total = reference.total_cost()
        for fraction in (0.0, 0.1, 0.5, 0.9, 1.0, 1.5):
            budget = fraction * total
            assert streamed.jobs_with_budget(budget) == reference.jobs_with_budget(
                budget
            ), fraction
            assert streamed.work_with_budget(budget) == reference.work_with_budget(
                budget
            ), fraction
        horizons = [
            fraction * reference.makespan_s
            for fraction in (0.0, 0.25, 0.75, 1.0)
        ]
        assert streamed.jobs_finished_by(horizons) == reference.jobs_finished_by(
            horizons
        )

    def test_budget_query_stops_reading_at_the_cutoff_block(
        self, result_pairs, trace_path, sim_machines, tmp_path
    ):
        """A budget that runs out inside the first block never opens a
        later segment."""
        reference, _ = result_pairs[METHOD_NAMES[0]]
        streamed = MultiClusterSimulator(
            sim_machines,
            all_methods()[0],
            EFTPolicy(),
            spill_dir=str(tmp_path),
            spill_block_jobs=SPILL_BLOCK_JOBS,
        ).run(
            open_swf_stream(
                trace_path, sim_machines, seed=SEED, chunk_jobs=CHUNK_JOBS
            )
        )
        first = next(streamed.iter_tables())
        budget = 0.5 * float(first.cost.sum())
        segments = sorted(tmp_path.glob("block-*.npz"))
        assert len(segments) > 2
        for segment in segments[1:]:
            segment.unlink()
        jobs = streamed.jobs_with_budget(budget)
        assert 0 < jobs < len(first)
        assert jobs == reference.jobs_with_budget(budget)
        assert streamed.work_with_budget(budget) == reference.work_with_budget(budget)

    @pytest.mark.parametrize("method_name", METHOD_NAMES)
    def test_fleet_report_identical(self, result_pairs, method_name):
        reference, streamed = result_pairs[method_name]
        assert fleet_report(streamed) == fleet_report(reference)

    def test_runs_actually_streamed(self, result_pairs):
        """Guard the fixture: the identity above must have been earned
        across real chunk/shard/spill boundaries, not one big block."""
        for method_name in METHOD_NAMES:
            _, streamed = result_pairs[method_name]
            stats = streamed.shard_stats
            assert stats["built"] > 1
            assert stats["built"] == stats["retired"]
            assert stats["peak_live"] <= stats["built"]
            assert streamed.store.n_blocks > 1
            assert streamed.store.spilled_bytes > 0


class TestSpillStore:
    def _table(self, machines, n, seed=0):
        rng = np.random.default_rng(seed)
        quotes = {
            field: rng.uniform(1.0, 2.0, size=n).astype(dtype)
            for field, dtype in OUTCOME_FIELDS
        }
        from repro.accounting.pricing import OutcomeTable

        return OutcomeTable(machines, **quotes)

    def test_disk_roundtrip(self, tmp_path):
        machines = ["A", "B"]
        with OutcomeSpillStore(machines, directory=tmp_path) as store:
            first = self._table(machines, 5, seed=1)
            second = self._table(machines, 3, seed=2)
            store.append(first)
            store.append(second)
            assert store.n_blocks == 2
            assert len(store) == 8
            assert store.spilled_bytes > 0
            blocks = list(store.blocks())
            for field, _ in OUTCOME_FIELDS:
                assert np.array_equal(
                    getattr(blocks[0], field), getattr(first, field)
                )
            merged = store.materialize()
            for field, _ in OUTCOME_FIELDS:
                assert np.array_equal(
                    getattr(merged, field),
                    np.concatenate(
                        [getattr(first, field), getattr(second, field)]
                    ),
                )

    def test_machine_mismatch_rejected(self, tmp_path):
        store = OutcomeSpillStore(["A", "B"], directory=tmp_path)
        with pytest.raises(ValueError, match="machine"):
            store.append(self._table(["A", "C"], 2))

    def test_empty_blocks_dropped(self, tmp_path):
        store = OutcomeSpillStore(["A"], directory=tmp_path)
        store.append(self._table(["A"], 0))
        assert store.n_blocks == 0
        assert len(store.materialize()) == 0

    def test_close_removes_segments(self, tmp_path):
        store = OutcomeSpillStore(["A"], directory=tmp_path)
        store.append(self._table(["A"], 4))
        assert any(tmp_path.iterdir())
        store.close()
        assert not any(tmp_path.iterdir())

    def test_in_memory_mode(self):
        store = OutcomeSpillStore(["A"])  # no directory: list-backed
        store.append(self._table(["A"], 4))
        assert store.spilled_bytes == 0
        assert len(store.materialize()) == 4

    @pytest.mark.parametrize("defect", ["row_count", "partial_file", "truncated"])
    def test_failing_write_and_truncated_segment(
        self, tmp_path, monkeypatch, defect
    ):
        """A full disk mid-append leaves neither a miscounted store nor a
        stray partial segment; a truncated segment reads back as an error
        that names its file."""
        import errno
        import re

        import repro.accounting.spill as spill

        store = OutcomeSpillStore(["A"], directory=tmp_path)
        store.append(self._table(["A"], 5))
        if defect == "truncated":
            segment = next(tmp_path.glob("block-*.npz"))
            segment.write_bytes(segment.read_bytes()[:40])
            with pytest.raises(ValueError, match=re.escape(str(segment))):
                list(store.blocks())
            store.close()
            return

        def disk_full(path, **columns):
            with open(path, "wb") as fh:
                fh.write(b"PK\x03\x04partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(spill.np, "savez", disk_full)
        with pytest.raises(OSError):
            store.append(self._table(["A"], 5, seed=1))
        if defect == "row_count":
            assert len(store) == 5
            assert store.n_blocks == 1
        else:
            store.close()
            assert not any(tmp_path.iterdir())

    def test_append_after_failed_write_resumes(self, tmp_path, monkeypatch):
        """Once the disk has room again the store carries on: the next
        segment takes the failed one's place and every row reads back."""
        import errno

        import repro.accounting.spill as spill

        first = self._table(["A"], 5, seed=1)
        second = self._table(["A"], 3, seed=2)
        with OutcomeSpillStore(["A"], directory=tmp_path) as store:
            store.append(first)
            with monkeypatch.context() as patch:

                def disk_full(path, **columns):
                    raise OSError(errno.ENOSPC, "No space left on device")

                patch.setattr(spill.np, "savez", disk_full)
                with pytest.raises(OSError):
                    store.append(self._table(["A"], 4, seed=3))
            store.append(second)
            assert (len(store), store.n_blocks) == (8, 2)
            merged = store.materialize()
            for field, _ in OUTCOME_FIELDS:
                assert np.array_equal(
                    getattr(merged, field),
                    np.concatenate(
                        [getattr(first, field), getattr(second, field)]
                    ),
                )
        assert not any(tmp_path.iterdir())


class TestSpillCleanupOnError:
    def test_mid_flight_failure_unlinks_spilled_blocks(
        self, trace_path, sim_machines, tmp_path
    ):
        """A run that dies mid-stream must not strand ``block-*.npz``
        segments: nobody holds the store on the error path, so the
        engine unlinks them before propagating."""
        from repro.sim.workload import StreamingWorkload

        saw_blocks = []

        def poisoned():
            # Small chunks so many refills happen; raise on the first
            # refill *after* at least one block has been spilled, which
            # is exactly the window where segments would otherwise leak.
            inner = open_swf_stream(
                trace_path, sim_machines, seed=SEED, chunk_jobs=13
            ).chunks()
            for chunk in inner:
                if any(tmp_path.glob("block-*.npz")):
                    saw_blocks.append(True)
                    raise RuntimeError("poisoned stream")
                yield chunk

        stream = StreamingWorkload(
            chunk_factory=poisoned,
            machines=list(sim_machines),
            source=str(trace_path),
        )
        sim = MultiClusterSimulator(
            sim_machines,
            all_methods()[0],
            EFTPolicy(),
            spill_dir=str(tmp_path),
            spill_block_jobs=8,
        )
        with pytest.raises(RuntimeError, match="poisoned"):
            sim.run(stream)
        # Guard the fixture: the failure really did happen after spill.
        assert saw_blocks
        assert not list(tmp_path.glob("block-*.npz"))


class TestCalendarRefill:
    """Refills take the next chunk's submit column; arrivals pop as rows
    of the chunk they came in."""

    def test_refill_continues_the_arrival_stream(self):
        calendar = EventCalendar([0.0])
        calendar.pop()
        assert not calendar.arrivals_pending
        calendar.refill([7.0, 5.0])
        assert calendar.pop() == (5.0, ARRIVAL, 1)
        assert calendar.pop() == (7.0, ARRIVAL, 0)

    def test_refill_with_arrivals_pending_rejected(self):
        calendar = EventCalendar([0.0, 1.0])
        calendar.pop()
        with pytest.raises(RuntimeError, match="pending"):
            calendar.refill([2.0])

    def test_refill_going_backwards_rejected(self):
        calendar = EventCalendar([10.0])
        calendar.pop()
        with pytest.raises(ValueError, match="submit order"):
            calendar.refill([5.0])


class TestEngineGuards:
    def test_streaming_rejects_prebuilt_quote_table(
        self, trace_path, sim_machines
    ):
        method = all_methods()[0]
        workload = read_swf(trace_path, sim_machines, seed=SEED)
        pricings = MultiClusterSimulator(
            sim_machines, method, EFTPolicy()
        ).pricings
        prebuilt = QuoteTable.build(
            JobBlock.from_jobs(workload.jobs, list(pricings)), pricings, method
        )
        sim = MultiClusterSimulator(
            sim_machines, method, EFTPolicy(), quote_table=prebuilt
        )
        stream = open_swf_stream(trace_path, sim_machines, seed=SEED)
        with pytest.raises(ValueError, match="quote table"):
            sim.run(stream)

    def test_spill_block_jobs_validated(self, sim_machines):
        method = all_methods()[0]
        with pytest.raises(ValueError, match="spill_block_jobs"):
            MultiClusterSimulator(
                sim_machines, method, EFTPolicy(), spill_block_jobs=0
            )


class TestTraceDriver:
    def test_streaming_matches_in_memory(self, trace_path, tmp_path):
        from repro.experiments._simulation import simulate_swf_trace

        streamed = simulate_swf_trace(
            str(trace_path),
            method_name="EBA",
            policy_name="EFT",
            streaming=True,
            chunk_jobs=CHUNK_JOBS,
            spill_dir=str(tmp_path),
            seed=SEED,
        )
        reference = simulate_swf_trace(
            str(trace_path),
            method_name="EBA",
            policy_name="EFT",
            streaming=False,
            seed=SEED,
        )
        assert streamed.total_cost() == reference.total_cost()
        assert streamed.n_jobs == reference.n_jobs

    def test_unknown_policy_rejected(self, trace_path):
        from repro.experiments._simulation import simulate_swf_trace

        with pytest.raises(KeyError, match="policy"):
            simulate_swf_trace(str(trace_path), policy_name="Nope")

    def test_cli_trace_smoke(self, trace_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "trace",
                str(trace_path),
                "--method",
                "Runtime",
                "--chunk-jobs",
                str(CHUNK_JOBS),
                "--seed",
                str(SEED),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs" in out and "total cost" in out
