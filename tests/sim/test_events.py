"""The shared event core: calendar ordering + ready-queue indexing."""

import pytest

from repro.sim.cluster import ClusterSim
from repro.sim.events import ARRIVAL, FINISH, TICK, EventCalendar, ReadyQueue
from repro.sim.job import Job


def job(job_id, submit=0.0, user=0, cores=8, rt=100.0, machine="IC"):
    return Job(
        job_id=job_id,
        user=user,
        cores=cores,
        submit_s=submit,
        runtime_s={machine: rt},
        energy_j={machine: 1000.0},
    )


class TestEventCalendar:
    def test_empty_calendar_is_falsy(self):
        calendar = EventCalendar([])
        assert not calendar
        assert calendar.pop() is None

    def test_arrivals_pop_in_submit_order(self):
        jobs = [job(1, submit=5.0), job(2, submit=1.0), job(3, submit=3.0)]
        calendar = EventCalendar(jobs)
        order = [calendar.pop()[2].job_id for _ in range(3)]
        assert order == [2, 3, 1]

    def test_equal_time_arrivals_keep_submission_order(self):
        jobs = [job(9, submit=1.0), job(4, submit=1.0), job(7, submit=1.0)]
        calendar = EventCalendar(jobs)
        order = [calendar.pop()[2].job_id for _ in range(3)]
        assert order == [9, 4, 7]

    def test_arrival_beats_finish_at_equal_time(self):
        calendar = EventCalendar([job(1, submit=10.0)])
        calendar.schedule_finish(10.0, "f")
        assert calendar.pop()[1] == ARRIVAL
        assert calendar.pop()[1] == FINISH

    def test_finish_beats_tick_at_equal_time(self):
        calendar = EventCalendar([])
        calendar.schedule_tick(10.0)
        calendar.schedule_finish(10.0, "f")
        assert calendar.pop()[1] == FINISH
        now, kind, payload = calendar.pop()
        assert (now, kind, payload) == (10.0, TICK, None)

    def test_equal_time_finishes_pop_in_push_order(self):
        calendar = EventCalendar([])
        for payload in ("a", "b", "c"):
            calendar.schedule_finish(2.0, payload)
        assert [calendar.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_tick_is_single_and_reschedulable(self):
        calendar = EventCalendar([])
        calendar.schedule_tick(5.0)
        calendar.schedule_tick(7.0)  # supersedes
        now, kind, _ = calendar.pop()
        assert (now, kind) == (7.0, TICK)
        assert not calendar

    def test_interleaved_streams_respect_global_time(self):
        calendar = EventCalendar([job(1, submit=1.0), job(2, submit=6.0)])
        calendar.schedule_finish(4.0, "f1")
        calendar.schedule_tick(5.0)
        kinds = []
        while calendar:
            kinds.append(calendar.pop()[1])
        assert kinds == [ARRIVAL, FINISH, TICK, ARRIVAL]


class TestReadyQueue:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ReadyQueue(0)

    def test_push_classifies_cores_blocked(self):
        rq = ReadyQueue(8)
        rq.synced = True  # as after a scan of an (empty) window
        rq.push(job(1, cores=100), free_cores=10, busy_users=set())
        assert rq.synced
        assert rq.min_blocked_cores == 100

    def test_push_classifies_user_blocked(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(job(1, user=7, cores=4), free_cores=10, busy_users={7})
        assert rq.synced
        assert rq.blocked_users == {7}

    def test_push_of_startable_job_clears_synced(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(job(1, cores=4), free_cores=10, busy_users=set())
        assert not rq.synced

    def test_push_beyond_window_keeps_synced(self):
        rq = ReadyQueue(1)
        rq.synced = True
        rq.push(job(1, cores=100), free_cores=10, busy_users=set())
        # Second job lands beyond the 1-wide window: unreachable, so the
        # index stays valid even though the job would fit.
        rq.push(job(2, cores=4), free_cores=10, busy_users=set())
        assert rq.synced
        assert [j.job_id for j in rq.window] == [1]
        assert [j.job_id for j in rq.backlog] == [2]
        assert len(rq) == 2

    def test_note_release_wakes_on_enough_cores(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(job(1, cores=100), free_cores=10, busy_users=set())
        rq.note_release(user=99, free_cores=50)
        assert rq.synced  # still short of 100 cores, no scan needed
        rq.note_release(user=99, free_cores=100)
        assert not rq.synced

    def test_note_release_wakes_on_blocking_user_drain(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(job(1, user=7, cores=4), free_cores=10, busy_users={7})
        rq.note_release(user=3, free_cores=1)
        assert rq.synced  # unrelated user
        rq.note_release(user=7, free_cores=1)
        assert not rq.synced


class TestScanIndexing:
    """The buckets a real ``ClusterSim.startable`` scan leaves behind."""

    def test_scan_rebuilds_buckets(self, sim_machines):
        cluster = ClusterSim(sim_machines["IC"], backfill_window=2)  # 576
        cluster.enqueue(job(0, user=1, cores=566))  # starts: 10 cores left
        cluster.enqueue(job(1, user=1, cores=100))  # user 1 now busy
        cluster.enqueue(job(2, user=2, cores=50))  # shifts in: 50 > 10
        cluster.enqueue(job(3, user=3, cores=1))  # stays in the backlog
        assert [j.job_id for j in cluster.startable(0.0)] == [0]
        rq = cluster._ready
        assert rq.synced
        assert rq.blocked_users == {1}
        # Job 3 sits beyond the window, so the min comes from job 2 only.
        assert rq.min_blocked_cores == 50
        assert [j.job_id for j in rq.window] == [1, 2]
        assert [j.job_id for j in rq.backlog] == [3]

    def test_scan_stays_unsynced_when_a_shifted_in_job_fits(self, sim_machines):
        cluster = ClusterSim(sim_machines["IC"], backfill_window=1)
        cluster.enqueue(job(1, user=1, cores=566))
        cluster.enqueue(job(2, user=2, cores=4))  # backlog; fits once 1 starts
        assert [j.job_id for j in cluster.startable(0.0)] == [1]
        assert not cluster._ready.synced
        assert [j.job_id for j in cluster._ready.window] == [2]
        # The next scan starts it, as the seed's always-scan loop would.
        assert [j.job_id for j in cluster.startable(1.0)] == [2]
