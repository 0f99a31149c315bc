"""JobBlock: the columnar job chunk between ingestion and the quote table."""

import numpy as np
import pytest

from repro.accounting.methods import all_methods
from repro.accounting.pricing import QuoteTable
from repro.sim.engine import pricing_for_sim_machine
from repro.sim.job import ELIG_RANK_INELIGIBLE, Job, JobBlock


@pytest.fixture(scope="module")
def pricings(sim_machines):
    return {name: pricing_for_sim_machine(m) for name, m in sim_machines.items()}


def job(job_id, runtimes, cores=4, submit=0.0):
    return Job(
        job_id=job_id,
        user=job_id % 3,
        cores=cores,
        submit_s=submit,
        runtime_s=dict(runtimes),
        energy_j={name: 7.5 * rt for name, rt in runtimes},
    )


@pytest.fixture()
def shuffled(sim_machines):
    """Jobs whose machine order differs from the fleet's, mixed with
    machine-order and partially eligible jobs."""
    names = list(sim_machines)
    return [
        job(10, [(name, 100.0 + i) for i, name in enumerate(names)]),
        job(11, [(name, 200.0 + i) for i, name in enumerate(reversed(names))]),
        job(12, [(names[2], 31.25), (names[0], 1 / 3)], cores=64, submit=5.0),
        job(13, [(names[1], 300.0), (names[3], 0.1)], submit=6.0),
        job(14, [(name, 100.5 + i) for i, name in enumerate(names)], submit=7.0),
    ]


class TestRoundTrip:
    def test_jobs_survive_with_machine_order(self, shuffled, sim_machines):
        back = JobBlock.from_jobs(shuffled, list(sim_machines)).jobs()
        assert back == shuffled
        for a, b in zip(shuffled, back):
            assert list(a.runtime_s) == list(b.runtime_s)
            assert list(a.energy_j) == list(b.energy_j)
            assert a.work_core_hours == b.work_core_hours

    def test_iteration_assembles_the_same_jobs(self, shuffled, sim_machines):
        block = JobBlock.from_jobs(shuffled, list(sim_machines))
        assert len(block) == len(shuffled)
        assert list(block) == block.jobs() == shuffled

    def test_quote_table_keeps_each_jobs_order(self, shuffled, sim_machines, pricings):
        block = JobBlock.from_jobs(shuffled, list(sim_machines))
        table = QuoteTable.build(block, pricings, all_methods()[0])
        for j in shuffled:
            views = table.static_views[table.row_of[j.job_id]]
            assert [v[0] for v in views] == list(j.runtime_s)
            assert [v[1] for v in views] == list(j.runtime_s.values())
            assert [v[2] for v in views] == list(j.energy_j.values())
        assert table.work.tolist() == [j.work_core_hours for j in shuffled]

    def test_columns_are_machine_major_views(self, shuffled, sim_machines, pricings):
        block = JobBlock.from_jobs(shuffled, list(sim_machines))
        table = QuoteTable.build(block, pricings, all_methods()[0])
        assert block.runtime.shape == (len(sim_machines), len(shuffled))
        for mi, name in enumerate(sim_machines):
            assert np.shares_memory(table.runtime[name], block.runtime[mi])
            assert np.shares_memory(table.energy[name], block.energy[mi])
            assert block.runtime[mi].flags.c_contiguous

    def test_foreign_machines_keep_rank_and_work(self, sim_machines):
        """A machine outside the block's set leaves no column but still
        counts in the job's walk and work, as the job reports them."""
        names = list(sim_machines)
        j = job(1, [("Elsewhere", 50.0), (names[1], 10.0), (names[0], 20.0)])
        block = JobBlock.from_jobs([j], names)
        assert block.elig_rank[0].tolist()[:2] == [2, 1]
        assert block.work[0] == j.work_core_hours
        only_foreign = JobBlock.from_jobs([job(2, [("Elsewhere", 5.0)])], names)
        assert (only_foreign.elig_rank == ELIG_RANK_INELIGIBLE).all()
        assert np.isnan(only_foreign.runtime).all()


class TestFromColumns:
    def test_drops_rows_nothing_can_run_and_ranks_in_machine_order(self):
        eligible = np.array([[True, False, True], [True, False, False]])
        runtime = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        block = JobBlock.from_columns(
            ("A", "B"),
            job_id=np.array([7, 8, 9]),
            user=np.array([0, 1, 2]),
            cores=np.array([1, 2, 3]),
            submit=np.array([0.0, 1.0, 2.0]),
            runtime=runtime,
            energy=runtime * 10,
            eligible=eligible,
        )
        assert block.job_id.tolist() == [7, 9]
        assert block.elig_rank.tolist() == [[0, 1], [0, ELIG_RANK_INELIGIBLE]]
        jobs = block.jobs()
        assert [j.runtime_s for j in jobs] == [{"A": 1.0, "B": 4.0}, {"A": 3.0}]
        assert block.work.tolist() == [j.work_core_hours for j in jobs]

    def test_empty_block(self):
        block = JobBlock.from_jobs([], ("A", "B"))
        assert len(block) == 0 and block.jobs() == []
        assert block.runtime.shape == (2, 0)
