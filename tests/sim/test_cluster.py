"""Cluster queue model: FCFS + backfill + the per-user rule."""

import pytest

from repro.sim.cluster import ClusterSim


def job(job_id, user=0, cores=8, rt=100.0):
    """A queue entry: ``(job_id, user, cores, runtime_s)``."""
    return (job_id, user, cores, rt)


def ids(started):
    return [job_id for job_id, _ in started]


@pytest.fixture
def cluster(sim_machines):
    return ClusterSim(sim_machines["IC"])  # 12 nodes x 48 cores = 576


class TestStartFinish:
    def test_start_consumes_cores(self, cluster):
        cluster.enqueue(job(1, cores=48))
        started = cluster.startable(0.0)
        assert ids(started) == [1]
        assert cluster.free_cores == 576 - 48

    def test_finish_releases(self, cluster):
        cluster.enqueue(job(1, cores=48))
        cluster.startable(0.0)
        cluster.finish(1)
        assert cluster.free_cores == 576

    def test_end_time(self, cluster):
        cluster.enqueue(job(1, rt=250.0))
        assert cluster.startable(10.0) == [(1, 260.0)]
        assert cluster.running[1] == (job(1, rt=250.0), 260.0)

    def test_wrong_machine_rejected(self, cluster):
        # A machine the job cannot use has no runtime: NaN in its quotes.
        with pytest.raises(ValueError, match="not eligible"):
            cluster.enqueue(job(1, rt=float("nan")))

    def test_finish_returns_the_entry(self, cluster):
        cluster.enqueue(job(1, user=3, cores=48))
        cluster.startable(0.0)
        assert cluster.finish(1) == job(1, user=3, cores=48)


class TestUserRule:
    def test_one_running_job_per_user(self, cluster):
        cluster.enqueue(job(1, user=7, cores=8))
        cluster.enqueue(job(2, user=7, cores=8))
        started = cluster.startable(0.0)
        assert ids(started) == [1]
        # Job 2 waits in the bucket of jobs its busy user blocks.
        assert cluster._ready.blocked_users == {7}

    def test_second_job_starts_after_first_finishes(self, cluster):
        cluster.enqueue(job(1, user=7))
        cluster.enqueue(job(2, user=7))
        cluster.startable(0.0)
        cluster.finish(1)
        started = cluster.startable(100.0)
        assert ids(started) == [2]

    def test_different_users_run_concurrently(self, cluster):
        cluster.enqueue(job(1, user=1))
        cluster.enqueue(job(2, user=2))
        assert len(cluster.startable(0.0)) == 2


class TestBackfill:
    def test_small_job_backfills_past_blocked_head(self, cluster):
        cluster.enqueue(job(1, user=1, cores=576))  # fills the machine
        cluster.enqueue(job(2, user=2, cores=576))  # blocked head
        cluster.enqueue(job(3, user=3, cores=8))    # can backfill? no cores
        assert len(cluster.startable(0.0)) == 1
        cluster.finish(1)
        # 576 free: job 2 starts; job 3 no longer fits? 576-576=0 -> queued.
        started = cluster.startable(100.0)
        assert ids(started) == [2]

    def test_backfill_when_head_blocked_by_user_rule(self, cluster):
        cluster.enqueue(job(1, user=1, cores=8))
        cluster.startable(0.0)
        cluster.enqueue(job(2, user=1, cores=8))  # head blocked (user busy)
        cluster.enqueue(job(3, user=2, cores=8))  # should backfill
        started = cluster.startable(1.0)
        assert ids(started) == [3]
        assert cluster.queue_length == 1

    def test_fcfs_order_among_startable(self, cluster):
        for i in range(1, 4):
            cluster.enqueue(job(i, user=i, cores=8))
        started = cluster.startable(0.0)
        assert ids(started) == [1, 2, 3]

    def test_backfill_window_bounds_scan(self, sim_machines):
        cluster = ClusterSim(sim_machines["IC"], backfill_window=2)
        cluster.enqueue(job(1, user=1, cores=576))
        cluster.startable(0.0)
        cluster.enqueue(job(2, user=2, cores=576))  # blocked
        cluster.enqueue(job(3, user=3, cores=576))  # blocked
        cluster.enqueue(job(4, user=4, cores=8))    # beyond window
        assert cluster.startable(0.0) == []

    def test_rejects_bad_window(self, sim_machines):
        with pytest.raises(ValueError):
            ClusterSim(sim_machines["IC"], backfill_window=0)


class TestWaitEstimate:
    def test_empty_cluster_no_wait(self, cluster):
        assert cluster.estimated_wait_s(0.0) == 0.0

    def test_wait_grows_with_backlog(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        w1 = cluster.estimated_wait_s(0.0)
        cluster.enqueue(job(2, user=2, cores=576, rt=1000.0))
        assert cluster.estimated_wait_s(0.0) > w1 > 0

    def test_wait_shrinks_on_finish(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        before = cluster.estimated_wait_s(0.0)
        cluster.finish(1)
        assert cluster.estimated_wait_s(0.0) < before

    def test_running_jobs_count_only_their_remainder(self, cluster):
        """The docstring's promise, pinned: committed core-seconds are
        running *remainders* plus queued demand, over capacity."""
        cluster.enqueue(job(1, user=1, cores=288, rt=1000.0))
        cluster.startable(0.0)  # runs over [0, 1000]
        cluster.enqueue(job(2, user=2, cores=576, rt=500.0))  # queued
        capacity = 576
        # At t=400 the running job has 600 s left on 288 cores.
        expected = (288 * 600.0 + 576 * 500.0) / capacity
        assert cluster.estimated_wait_s(400.0) == pytest.approx(expected)
        # At t=0 (start) the remainder is the full runtime: the old
        # full-runtime accounting and the fix agree there.
        expected_at_start = (288 * 1000.0 + 576 * 500.0) / capacity
        assert cluster.estimated_wait_s(0.0) == pytest.approx(expected_at_start)

    def test_wait_decays_monotonically_as_time_passes(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        waits = [cluster.estimated_wait_s(t) for t in (0.0, 250.0, 500.0, 1000.0)]
        assert waits == sorted(waits, reverse=True)
        assert waits[-1] == 0.0

    def test_wait_never_negative_past_scheduled_end(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        assert cluster.estimated_wait_s(5000.0) == 0.0

    def test_reschedule_end_updates_remainder(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        cluster.reschedule_end(1, 400.0)  # continuation carries less work
        assert cluster.running[1][1] == pytest.approx(400.0)
        assert cluster.estimated_wait_s(100.0) == pytest.approx(
            576 * 300.0 / 576
        )
        cluster.finish(1)
        assert cluster.estimated_wait_s(400.0) == 0.0
