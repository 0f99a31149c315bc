"""The shared event core: calendar ordering + ready-queue indexing."""

import numpy as np
import pytest

from repro.sim.cluster import ClusterSim
from repro.sim.events import ARRIVAL, FINISH, TICK, EventCalendar, ReadyQueue


def entry(job_id, user=0, cores=8, rt=100.0):
    """A queue entry: ``(job_id, user, cores, runtime_s)``."""
    return (job_id, user, cores, rt)


def ids(entries):
    return [e[0] for e in entries]


class TestEventCalendar:
    def test_empty_calendar_is_falsy(self):
        calendar = EventCalendar([])
        assert not calendar
        assert calendar.pop() is None

    def test_arrivals_pop_in_submit_order(self):
        calendar = EventCalendar([5.0, 1.0, 3.0])
        events = [calendar.pop() for _ in range(3)]
        # Payloads are rows of the chunk, popped in stable submit order.
        assert [row for _, _, row in events] == [1, 2, 0]
        assert [now for now, _, _ in events] == [1.0, 3.0, 5.0]

    def test_equal_time_arrivals_keep_submission_order(self):
        calendar = EventCalendar([1.0, 1.0, 1.0])
        order = [calendar.pop()[2] for _ in range(3)]
        assert order == [0, 1, 2]

    def test_unordered_chunk_keeps_ties_in_row_order(self):
        calendar = EventCalendar([2.0, 1.0, 2.0, 1.0])
        order = [calendar.pop()[2] for _ in range(4)]
        assert order == [1, 3, 0, 2]

    def test_array_column_pops_python_floats(self):
        calendar = EventCalendar(np.array([3.0, 1.0]))
        now, kind, row = calendar.pop()
        assert (now, kind, row) == (1.0, ARRIVAL, 1)
        assert type(now) is float

    def test_arrival_beats_finish_at_equal_time(self):
        calendar = EventCalendar([10.0])
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
        calendar = EventCalendar([1.0, 6.0])
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
        rq.push(entry(1, cores=100), free_cores=10, busy_users=set())
        assert rq.synced
        assert rq.min_blocked_cores == 100

    def test_push_classifies_user_blocked(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(entry(1, user=7, cores=4), free_cores=10, busy_users={7})
        assert rq.synced
        assert rq.blocked_users == {7}

    def test_push_of_startable_job_clears_synced(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(entry(1, cores=4), free_cores=10, busy_users=set())
        assert not rq.synced

    def test_push_beyond_window_keeps_synced(self):
        rq = ReadyQueue(1)
        rq.synced = True
        rq.push(entry(1, cores=100), free_cores=10, busy_users=set())
        # Second job lands beyond the 1-wide window: unreachable, so the
        # index stays valid even though the job would fit.
        rq.push(entry(2, cores=4), free_cores=10, busy_users=set())
        assert rq.synced
        assert ids(rq.window) == [1]
        assert ids(rq.backlog) == [2]
        assert len(rq) == 2

    def test_note_release_wakes_on_enough_cores(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(entry(1, cores=100), free_cores=10, busy_users=set())
        rq.note_release(user=99, free_cores=50)
        assert rq.synced  # still short of 100 cores, no scan needed
        rq.note_release(user=99, free_cores=100)
        assert not rq.synced

    def test_note_release_wakes_on_blocking_user_drain(self):
        rq = ReadyQueue(8)
        rq.synced = True
        rq.push(entry(1, user=7, cores=4), free_cores=10, busy_users={7})
        rq.note_release(user=3, free_cores=1)
        assert rq.synced  # unrelated user
        rq.note_release(user=7, free_cores=1)
        assert not rq.synced


class TestScanIndexing:
    """The buckets a real ``ClusterSim.startable`` scan leaves behind."""

    def test_scan_rebuilds_buckets(self, sim_machines):
        cluster = ClusterSim(sim_machines["IC"], backfill_window=2)  # 576
        cluster.enqueue(entry(0, user=1, cores=566))  # starts: 10 cores left
        cluster.enqueue(entry(1, user=1, cores=100))  # user 1 now busy
        cluster.enqueue(entry(2, user=2, cores=50))  # shifts in: 50 > 10
        cluster.enqueue(entry(3, user=3, cores=1))  # stays in the backlog
        assert ids(cluster.startable(0.0)) == [0]
        rq = cluster._ready
        assert rq.synced
        assert rq.blocked_users == {1}
        # Job 3 sits beyond the window, so the min comes from job 2 only.
        assert rq.min_blocked_cores == 50
        assert ids(rq.window) == [1, 2]
        assert ids(rq.backlog) == [3]

    def test_scan_stays_unsynced_when_a_shifted_in_job_fits(self, sim_machines):
        cluster = ClusterSim(sim_machines["IC"], backfill_window=1)
        cluster.enqueue(entry(1, user=1, cores=566))
        cluster.enqueue(entry(2, user=2, cores=4))  # backlog; fits once 1 starts
        assert ids(cluster.startable(0.0)) == [1]
        assert not cluster._ready.synced
        assert ids(cluster._ready.window) == [2]
        # The next scan starts it, as the seed's always-scan loop would.
        assert ids(cluster.startable(1.0)) == [2]
