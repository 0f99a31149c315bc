"""SWF trace import/export."""

import pytest

from repro.sim.swf import (
    HEADER_TEMPLATE,
    REFERENCE_MACHINE,
    iter_swf_job_chunks,
    open_swf_stream,
    read_swf,
    write_swf,
    write_synthetic_swf,
)
from repro.sim.workload import PatelWorkloadGenerator, WorkloadConfig


def roundtrip_consistent(workload, machines, tmp, seed=0):
    """Write + read back; check the reference columns survive exactly."""
    back = read_swf(write_swf(workload, tmp), machines, seed=seed)
    originals = {
        j.job_id: j for j in workload.jobs if REFERENCE_MACHINE in j.runtime_s
    }
    for job in back.jobs:
        orig = originals.get(job.job_id)
        if orig is None:
            continue
        for read, written in (
            (job.runtime_s, orig.runtime_s),
            (job.energy_j, orig.energy_j),
        ):
            if abs(read[REFERENCE_MACHINE] - round(written[REFERENCE_MACHINE])) > 1.0:
                return False
    return True


@pytest.fixture(scope="module")
def tiny_workload(sim_machines):
    cfg = WorkloadConfig(n_base_jobs=60, n_users=15, seed=8)
    return PatelWorkloadGenerator(sim_machines, cfg).generate()


class TestWrite:
    def test_writes_header_and_records(self, tiny_workload, tmp_path):
        path = write_swf(tiny_workload, tmp_path / "trace.swf")
        text = path.read_text()
        assert text.startswith(";")
        data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith(";")]
        assert len(data_lines) == len(tiny_workload)
        assert all(len(ln.split()) == 18 for ln in data_lines)

    def test_reference_runtime_recorded(self, tiny_workload, tmp_path):
        path = write_swf(tiny_workload, tmp_path / "trace.swf")
        first = next(
            ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith(";")
        ).split()
        job = tiny_workload.jobs[0]
        assert int(first[3]) == round(job.runtime_s[REFERENCE_MACHINE])
        assert int(first[4]) == job.cores


class TestRead:
    def test_roundtrip_preserves_reference_columns(
        self, tiny_workload, sim_machines, tmp_path
    ):
        assert roundtrip_consistent(
            tiny_workload, sim_machines, tmp_path / "rt.swf", seed=1
        )

    def test_read_extrapolates_all_machines(
        self, tiny_workload, sim_machines, tmp_path
    ):
        path = write_swf(tiny_workload, tmp_path / "trace.swf")
        back = read_swf(path, sim_machines, seed=1)
        for job in back.jobs:
            assert REFERENCE_MACHINE in job.runtime_s
            for machine, runtime in job.runtime_s.items():
                assert runtime > 0
                assert job.energy_j[machine] > 0
            if job.cores > 16:
                assert "Desktop" not in job.runtime_s

    def test_read_trace_is_simulatable(self, tiny_workload, sim_machines, tmp_path):
        from repro.accounting.methods import EnergyBasedAccounting
        from repro.sim.engine import MultiClusterSimulator
        from repro.sim.policies import GreedyPolicy

        path = write_swf(tiny_workload, tmp_path / "trace.swf")
        back = read_swf(path, sim_machines, seed=1)
        result = MultiClusterSimulator(
            sim_machines, EnergyBasedAccounting(), GreedyPolicy()
        ).run(back)
        assert result.n_jobs == len(back)

    def test_skips_cancelled_records(self, sim_machines, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text(
            "; header\n"
            "1 0 -1 100 8 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
            "2 10 -1 0 8 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"  # runtime 0
            "3 20 -1 100 0 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"  # cores 0
        )
        back = read_swf(path, sim_machines, seed=1)
        assert [j.job_id for j in back.jobs] == [1]

    def test_empty_trace_rejected(self, sim_machines, tmp_path):
        path = tmp_path / "empty.swf"
        path.write_text("; nothing here\n")
        with pytest.raises(ValueError, match="no usable records"):
            read_swf(path, sim_machines)

    def test_malformed_record_rejected(self, sim_machines, tmp_path):
        path = tmp_path / "short.swf"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="malformed"):
            read_swf(path, sim_machines)

    def test_thirteen_field_record_rejected(self, sim_machines, tmp_path):
        """One field short of the 14 the energy convention needs."""
        path = tmp_path / "thirteen.swf"
        path.write_text(" ".join(["1", "0", "-1", "100", "8"] + ["-1"] * 8) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            read_swf(path, sim_machines)

    def test_non_numeric_field_rejected(self, sim_machines, tmp_path):
        path = tmp_path / "garbled.swf"
        path.write_text(
            "1 0 -1 oops 8 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
        )
        with pytest.raises(ValueError, match="malformed SWF record on line 1: "):
            read_swf(path, sim_machines)

    @pytest.mark.parametrize("field", [1, 3, 13], ids=["submit", "runtime", "energy"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_rejected(self, sim_machines, tmp_path, field, value):
        """NaN/inf would pass the ``runtime <= 0`` filter and surface as
        NaN finish times; the parser names the offending line instead."""
        fields = "7 0 -1 120 4 -1 -1 -1 -1 -1 -1 3 -1 98765 -1 -1 -1 -1".split()
        fields[field] = value
        path = tmp_path / "nonfinite.swf"
        path.write_text(
            "; header\n"
            "1 0 -1 100 8 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
            + " ".join(fields)
            + "\n"
        )
        with pytest.raises(
            ValueError, match="malformed SWF record on line 3: non-finite"
        ):
            read_swf(path, sim_machines)

    def test_short_record_names_its_line(self, sim_machines, tmp_path):
        path = tmp_path / "short2.swf"
        path.write_text(
            "; header\n\n"
            "1 0 -1 100 8 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
            "2 5 -1 100\n"
        )
        with pytest.raises(ValueError, match="malformed SWF record on line 4: "):
            read_swf(path, sim_machines)


class TestEnergyConvention:
    """Field 14 (the executable number in the archive spec) carries
    reference-machine energy in joules; the header documents it."""

    def test_header_documents_field_14(self, tiny_workload, tmp_path):
        assert "field 14 = energy" in HEADER_TEMPLATE
        path = write_swf(tiny_workload, tmp_path / "trace.swf")
        header = "\n".join(
            ln for ln in path.read_text().splitlines() if ln.startswith(";")
        )
        assert "field 14 = energy" in header
        assert REFERENCE_MACHINE in header

    def test_field_14_lands_in_reference_energy(self, sim_machines, tmp_path):
        path = tmp_path / "one.swf"
        path.write_text(
            "7 0 -1 120 4 -1 -1 -1 -1 -1 -1 3 -1 98765 -1 -1 -1 -1\n"
        )
        back = read_swf(path, sim_machines, seed=1)
        (job,) = back.jobs
        assert job.job_id == 7
        assert job.energy_j[REFERENCE_MACHINE] == 98765.0
        assert job.runtime_s[REFERENCE_MACHINE] == 120.0

    def test_missing_energy_is_modelled(self, sim_machines, tmp_path):
        """-1 is the archive's "missing" value: the reference machine's
        energy is modelled like every other machine's, never -1 J, and
        the trace prices and simulates."""
        from repro.accounting.methods import all_methods
        from repro.sim.engine import MultiClusterSimulator
        from repro.sim.policies import GreedyPolicy

        path = tmp_path / "missing.swf"
        path.write_text(
            "1 0 -1 120 4 -1 -1 -1 -1 -1 -1 3 -1 -1 -1 -1 -1 -1\n"
            "2 10 -1 300 8 -1 -1 -1 -1 -1 -1 4 -1 54321 -1 -1 -1 -1\n"
        )
        first, second = read_swf(path, sim_machines, seed=1).jobs
        assert second.energy_j[REFERENCE_MACHINE] == 54321.0
        ref = sim_machines[REFERENCE_MACHINE]
        modelled = first.energy_j[REFERENCE_MACHINE]
        assert modelled > 0
        # cores * (idle + 0.75 * dyn_w) * runtime, with dyn_w in the
        # reference's own predicted range.
        dyn_w = (modelled / (4 * 120.0) - ref.idle_watts_per_core) / 0.75
        assert 0 < dyn_w < ref.tdp_watts_per_core
        wl = read_swf(path, sim_machines, seed=1)
        for method in all_methods():
            result = MultiClusterSimulator(
                sim_machines, method, GreedyPolicy()
            ).run(wl)
            assert result.n_jobs == 2


class TestChunkInvariance:
    def test_chunk_boundaries_do_not_change_any_float(
        self, tiny_workload, sim_machines, tmp_path
    ):
        """Record i's extrapolated runtimes/energies are a pure function
        of (seed, i): reading the trace in chunks of 1, 7, or 1000 jobs
        yields bit-identical jobs to the whole-trace read."""
        path = write_swf(tiny_workload, tmp_path / "trace.swf")
        whole = read_swf(path, sim_machines, seed=3)
        for chunk_jobs in (1, 7, 64, 1000):
            chunked = read_swf(path, sim_machines, seed=3, chunk_jobs=chunk_jobs)
            assert len(chunked) == len(whole)
            for a, b in zip(whole.jobs, chunked.jobs):
                assert a.job_id == b.job_id
                assert a.runtime_s == b.runtime_s  # exact float equality
                assert a.energy_j == b.energy_j

    def test_streamed_chunks_match_whole_read(
        self, tiny_workload, sim_machines, tmp_path
    ):
        path = write_swf(tiny_workload, tmp_path / "trace.swf")
        whole = read_swf(path, sim_machines, seed=3)
        stream = open_swf_stream(path, sim_machines, seed=3, chunk_jobs=17)
        streamed = [job for chunk in stream.chunks() for job in chunk]
        assert [j.job_id for j in streamed] == [j.job_id for j in whole.jobs]
        for a, b in zip(whole.jobs, streamed):
            assert a.runtime_s == b.runtime_s
            assert a.energy_j == b.energy_j


class TestStreamOrder:
    def test_unsorted_trace_rejected_when_required(self, sim_machines, tmp_path):
        path = tmp_path / "unsorted.swf"
        path.write_text(
            "1 100 -1 60 1 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
            "2 50 -1 60 1 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
        )
        with pytest.raises(ValueError, match="submit-sorted"):
            list(
                iter_swf_job_chunks(
                    path, sim_machines, seed=1, require_sorted=True
                )
            )

    def test_unsorted_across_chunk_boundary_rejected(
        self, sim_machines, tmp_path
    ):
        path = tmp_path / "unsorted2.swf"
        path.write_text(
            "1 100 -1 60 1 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
            "2 50 -1 60 1 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
        )
        with pytest.raises(ValueError, match="submit-sorted"):
            list(
                iter_swf_job_chunks(
                    path, sim_machines, seed=1, chunk_jobs=1, require_sorted=True
                )
            )

    def test_unsorted_trace_fine_in_memory(self, sim_machines, tmp_path):
        """read_swf sorts, so unsorted archives stay importable."""
        path = tmp_path / "unsorted3.swf"
        path.write_text(
            "1 100 -1 60 1 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
            "2 50 -1 60 1 -1 -1 -1 -1 -1 -1 3 -1 5000 -1 -1 -1 -1\n"
        )
        back = read_swf(path, sim_machines, seed=1)
        assert [j.job_id for j in back.jobs] == [2, 1]


class TestSyntheticTrace:
    def test_deterministic_and_parseable(self, sim_machines, tmp_path):
        a = write_synthetic_swf(tmp_path / "a.swf", 500, seed=4)
        b = write_synthetic_swf(tmp_path / "b.swf", 500, seed=4)
        assert a.read_bytes() == b.read_bytes()
        chunks = list(
            iter_swf_job_chunks(
                a, sim_machines, seed=0, chunk_jobs=128, require_sorted=True
            )
        )
        jobs = [job for chunk in chunks for job in chunk]
        assert len(jobs) == 500  # small core counts: nothing dropped
        submits = [j.submit_s for j in jobs]
        assert submits == sorted(submits)
        assert all(j.cores <= 8 for j in jobs)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="at least one job"):
            write_synthetic_swf(tmp_path / "x.swf", 0)
