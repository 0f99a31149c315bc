"""Job model and the Patel-style workload generator."""

import numpy as np
import pytest

from repro.sim.job import Job
from repro.sim.workload import (
    PatelWorkloadGenerator,
    WorkloadConfig,
    build_cross_platform_knn,
    fit_counter_gmm,
    synthetic_ic_counter_data,
)


class TestJob:
    def make(self, **kw):
        base = dict(
            job_id=0,
            user=1,
            cores=8,
            submit_s=0.0,
            runtime_s={"A": 100.0, "B": 200.0},
            energy_j={"A": 1000.0, "B": 1500.0},
        )
        base.update(kw)
        return Job(**base)

    def test_work_is_machine_averaged_core_hours(self):
        job = self.make()
        assert job.work_core_hours == pytest.approx(8 * 150.0 / 3600.0)

    def test_eligible_machines(self):
        assert set(self.make().eligible_machines) == {"A", "B"}

    def test_rejects_machine_set_mismatch(self):
        with pytest.raises(ValueError):
            self.make(energy_j={"A": 1.0})

    def test_rejects_nowhere_runnable(self):
        with pytest.raises(ValueError):
            self.make(runtime_s={}, energy_j={})


class TestCounterModels:
    def test_ic_counter_data_shape(self):
        data = synthetic_ic_counter_data(500, seed=0)
        assert data.shape == (500, 2)

    def test_gmm_finds_three_populations(self):
        gmm = fit_counter_gmm(seed=0)
        assert gmm.n_components == 3
        # The compute-bound and memory-bound cluster means are far apart
        # in MPKI (feature 1).
        mpki = sorted(gmm.means_[:, 1])
        assert mpki[-1] - mpki[0] > 1.0  # >1 decade

    def test_knn_covers_all_machines(self, sim_machines):
        models = build_cross_platform_knn(sim_machines, seed=0)
        assert set(models) == set(sim_machines)


class TestWorkloadGenerator:
    def test_size_is_base_times_repeat(self, small_workload):
        cfg = small_workload.config
        assert len(small_workload) <= cfg.n_base_jobs * cfg.repeat
        assert len(small_workload) >= cfg.n_base_jobs * cfg.repeat * 0.95

    def test_large_job_fraction_near_17_percent(self, sim_machines):
        cfg = WorkloadConfig(n_base_jobs=4000, seed=0)
        wl = PatelWorkloadGenerator(sim_machines, cfg).generate()
        assert wl.frac_requiring_large_machine() == pytest.approx(0.17, abs=0.05)

    def test_big_jobs_cannot_use_desktop(self, small_workload):
        for job in small_workload.jobs:
            if job.cores > 16:
                assert "Desktop" not in job.runtime_s
            else:
                assert "Desktop" in job.runtime_s

    def test_submissions_sorted(self, small_workload):
        submits = [j.submit_s for j in small_workload.jobs]
        assert submits == sorted(submits)

    def test_deterministic_per_seed(self, sim_machines):
        cfg = WorkloadConfig(n_base_jobs=50, seed=9)
        a = PatelWorkloadGenerator(sim_machines, cfg).generate()
        b = PatelWorkloadGenerator(sim_machines, cfg).generate()
        assert len(a) == len(b)
        for ja, jb in zip(a.jobs, b.jobs):
            assert ja.runtime_s == jb.runtime_s
            assert ja.submit_s == jb.submit_s

    def test_runtimes_positive_and_bounded(self, small_workload):
        for job in small_workload.jobs[:500]:
            for machine, rt in job.runtime_s.items():
                assert rt > 0
                assert job.energy_j[machine] > 0

    def test_theta_slower_than_ic_on_average(self, small_workload):
        """The calibrated hardware facts survive generation: Theta is the
        slowest machine, and energies differ across machines."""
        ratios = [
            job.runtime_s["Theta"] / job.runtime_s["IC"]
            for job in small_workload.jobs[:2000]
            if "Theta" in job.runtime_s and "IC" in job.runtime_s
        ]
        assert np.mean(ratios) > 1.8

    def test_power_of_two_cores(self, small_workload):
        allowed = {1, 2, 4, 8, 16, 32, 64, 128}
        assert {j.cores for j in small_workload.jobs} <= allowed

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_base_jobs=0)
        with pytest.raises(ValueError):
            WorkloadConfig(repeat=0)
        with pytest.raises(ValueError):
            WorkloadConfig(frac_over_16_cores=1.5)

    def test_requires_machines(self):
        with pytest.raises(ValueError):
            PatelWorkloadGenerator({}, WorkloadConfig(n_base_jobs=10))
