"""Duplicate job ids are rejected when their chunk loads.

Job ids key the quote lookup, the clusters' running sets and settlement,
so two jobs sharing an id used to die with a bare ``KeyError`` deep
inside the event loop.  The engine now names the id as soon as the
chunk carrying it is loaded — on the in-memory path (one chunk) and the
streamed path alike.  Reusing an id is fine once the earlier job with
that id has finished: the engine settles finished jobs before it loads
a chunk, so the answer never depends on ``spill_block_jobs``.
"""

import pytest

from repro.accounting.methods import EnergyBasedAccounting
from repro.accounting.pricing import ShardedPricingKernel
from repro.sim.engine import MultiClusterSimulator, pricing_for_sim_machine
from repro.sim.job import Job, JobBlock
from repro.sim.policies import EFTPolicy
from repro.sim.swf import open_swf_stream, read_swf, write_synthetic_swf
from repro.sim.workload import StreamingWorkload


@pytest.fixture(scope="module")
def duplicate_trace(tmp_path_factory):
    """A 50-job synthetic trace whose job 7 is renumbered to 6."""
    path = write_synthetic_swf(tmp_path_factory.mktemp("swf") / "dup.swf", 50)
    lines = []
    for line in path.read_text().splitlines():
        fields = line.split()
        if fields and fields[0] == "7":
            line = " ".join(["6", *fields[1:]])
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
    return path


def simulator(machines, **kwargs):
    return MultiClusterSimulator(
        machines, EnergyBasedAccounting(), EFTPolicy(), **kwargs
    )


def test_in_memory_run_names_the_duplicate_id(duplicate_trace, sim_machines):
    workload = read_swf(duplicate_trace, sim_machines)
    assert sorted(j.job_id for j in workload.jobs).count(6) == 2
    with pytest.raises(ValueError, match="job id 6 repeats"):
        simulator(sim_machines).run(workload)


def test_streamed_run_names_the_duplicate_id(duplicate_trace, sim_machines, tmp_path):
    stream = open_swf_stream(duplicate_trace, sim_machines, chunk_jobs=16)
    with pytest.raises(ValueError, match="job id 6 repeats"):
        simulator(sim_machines, spill_dir=str(tmp_path)).run(stream)
    assert not list(tmp_path.glob("block-*.npz"))


class TestAcrossChunks:
    @pytest.fixture()
    def kernel(self, sim_machines):
        pricings = {n: pricing_for_sim_machine(m) for n, m in sim_machines.items()}
        return ShardedPricingKernel(pricings, EnergyBasedAccounting())

    @staticmethod
    def job(job_id, submit_s, machines):
        return Job(
            job_id=job_id,
            user=0,
            cores=1,
            submit_s=submit_s,
            runtime_s={name: 60.0 for name in machines},
            energy_j={name: 1e3 for name in machines},
        )

    @staticmethod
    def block(jobs, machines):
        return JobBlock.from_jobs(jobs, list(machines))

    def test_id_of_a_job_in_flight_is_rejected(self, kernel, sim_machines):
        kernel.load_chunk(self.block([self.job(1, 0.0, sim_machines)], sim_machines))
        kernel.load_chunk(self.block([self.job(2, 1.0, sim_machines)], sim_machines))
        with pytest.raises(ValueError, match="job id 1 is reused"):
            kernel.load_chunk(
                self.block([self.job(1, 2.0, sim_machines)], sim_machines)
            )

    @staticmethod
    def stream(chunks, machines):
        return StreamingWorkload(
            chunk_factory=lambda: iter(chunks), machines=list(machines)
        )

    @pytest.mark.parametrize("spill_block_jobs", [1, 2, 32_768])
    def test_id_of_a_finished_job_may_be_reused(self, sim_machines, spill_block_jobs):
        """Job 1 finishes at t=60, before the next chunk loads (after the
        arrival at t=1000), so whether or not its block was full it has
        settled and its id is free — for every block size alike."""
        chunks = [
            [self.job(1, 0.0, sim_machines), self.job(2, 1000.0, sim_machines)],
            [self.job(1, 2000.0, sim_machines)],
        ]
        result = simulator(sim_machines, spill_block_jobs=spill_block_jobs).run(
            self.stream(chunks, sim_machines)
        )
        assert result.table.job_id.tolist() == [1, 2, 1]
        assert result.table.submit_s.tolist() == [0.0, 1000.0, 2000.0]
        assert result.shard_stats["built"] == result.shard_stats["retired"] == 2

    def test_id_of_a_running_job_is_rejected(self, sim_machines):
        """Job 1 runs until t=60, past the chunk load after t=10."""
        chunks = [
            [self.job(1, 0.0, sim_machines), self.job(2, 10.0, sim_machines)],
            [self.job(1, 2000.0, sim_machines)],
        ]
        with pytest.raises(ValueError, match="job id 1 is reused"):
            simulator(sim_machines).run(self.stream(chunks, sim_machines))

    def test_id_of_a_settled_job_may_be_reused(self, kernel, sim_machines):
        first = self.job(1, 0.0, sim_machines)
        kernel.load_chunk(
            self.block([first, self.job(2, 0.0, sim_machines)], sim_machines)
        )
        # Finish-log entries: (job_id, machine code, start_s, end_s).
        kernel.price_block([(1, 0, 0.0, 60.0)])
        reused = self.job(1, 5.0, sim_machines)
        kernel.load_chunk(self.block([reused], sim_machines))
        table = kernel.price_block([(1, 0, 5.0, 65.0)])
        assert table.submit_s.tolist() == [5.0]
