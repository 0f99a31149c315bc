"""The shared event-scheduling core under every simulator.

PR 1/2 made pricing columnar, which left the event-loop machinery as the
bottleneck: each simulator hand-rolled its own heap discipline, and
:class:`~repro.sim.cluster.ClusterSim` rescanned the backfill window on
every event even when nothing could possibly start.  This module holds
the two pieces they now share:

* :class:`EventCalendar` — one ``(time, kind, seq)`` event discipline
  for the engine, the migration simulator, and (through the engine) the
  shifting simulator.  Arrivals are consumed from the submit-sorted job
  list instead of living in the heap, so the heap only ever holds
  finish events and pushes/pops stay shallow; the single periodic
  re-evaluation tick is a scalar, not a heap entry.  The pop order is
  identical to the seed loops: at equal times arrivals precede
  finishes, finishes precede ticks, and ties within a kind keep
  submission/push order.

* :class:`ReadyQueue` — the indexed ready-queue behind
  :meth:`ClusterSim.startable <repro.sim.cluster.ClusterSim.startable>`.
  Semantics are exactly the seed's bounded FCFS + backfill scan (the
  first ``window`` queued jobs, in order, starting every one that
  fits), but the window is a list of its own with the rest of the queue
  in a backlog deque, so a scan reads O(window) jobs however long the
  backlog grows.  Per-cluster blocked buckets keyed by (min free cores
  needed, blocking user) answer a finish or enqueue that provably
  cannot change any job's state in O(1), so the scan only runs when
  the index says some job may actually start.  Every scan visits the
  same jobs in the same order under the same test as the seed's, and
  the index only skips scans that would start nothing, so results are
  bit-identical to the always-scan implementation by construction.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.job import Job

#: Event kinds, in tie-break priority order at equal times.
ARRIVAL = 0
FINISH = 1
TICK = 2


class EventCalendar:
    """Merged event streams under one ``(time, kind, seq)`` discipline.

    Three streams feed a simulation:

    * **arrivals** — known up front; kept as a submit-sorted list plus a
      cursor (a stable sort, skipped when the list is already ordered,
      so equal-time arrivals keep submission order exactly like the seed
      loops' ``(time, kind, seq)`` heaps did);
    * **finishes** — scheduled as jobs start; a heap of
      ``(time, seq, payload)`` where ``seq`` preserves push order among
      equal times;
    * an optional **tick** — the single outstanding periodic
      re-evaluation boundary (at most one exists at a time, so it is a
      scalar rather than a heap entry).

    :meth:`pop` returns the globally next ``(now, kind, payload)``:
    minimum time, with ``ARRIVAL < FINISH < TICK`` breaking ties —
    the exact order of the seed engine (arrivals before finishes at
    equal times) and the seed migration heap (``_ARRIVAL=0 < _FINISH=1 <
    _REEVALUATE=2``).
    """

    __slots__ = (
        "arrivals",
        "_ai",
        "_n",
        "_finishes",
        "_seq",
        "_next_tick",
        "_last_arrival",
    )

    def __init__(self, jobs: Sequence["Job"] = ()) -> None:
        self.arrivals: Sequence["Job"] = ()
        self._ai = 0
        self._n = 0
        #: Finish heap entries: (time_s, seq, payload).
        self._finishes: list[tuple[float, int, object]] = []
        self._seq = 0
        self._next_tick: float | None = None
        self._last_arrival = float("-inf")
        self.refill(jobs)

    # ------------------------------------------------------------------
    @property
    def arrivals_pending(self) -> bool:
        """True while unconsumed arrivals remain in the current list."""
        return self._ai < self._n

    def refill(self, jobs: Sequence["Job"]) -> None:
        """Replace the exhausted arrival list with the next chunk.

        The engine feeds arrivals chunk by chunk (an in-memory workload
        is one chunk).  A chunk is taken in stable submit order — sorted
        only when it is not already ordered, so equal-time arrivals keep
        submission order — and must continue the global submit order
        against the last arrival already handed out, because the pop
        discipline merges arrivals against the finish heap by comparing
        only the *next* arrival's time.  A refill is only legal once the
        previous chunk is fully consumed (otherwise pending arrivals
        would be dropped).
        """
        if self._ai < self._n:
            raise RuntimeError("refill with arrivals still pending")
        if not all(a.submit_s <= b.submit_s for a, b in zip(jobs, jobs[1:])):
            jobs = sorted(jobs, key=lambda j: j.submit_s)
        if jobs and jobs[0].submit_s < self._last_arrival:
            raise ValueError(
                "refill chunk breaks submit order: arrivals must be "
                "non-decreasing across chunks"
            )
        self.arrivals = jobs
        self._ai = 0
        self._n = len(jobs)
        if self._n:
            self._last_arrival = jobs[-1].submit_s

    def next_disturbance(self) -> float:
        """Earliest pending arrival or finish time (``+inf`` if neither).

        A periodic tick scheduled *strictly before* this time pops with
        no intervening arrival or finish (events tied with a tick pop
        first, so a tick *at* the disturbance already sees changed
        state).  Simulators use this to batch runs of quiet
        re-evaluation ticks into one vectorized pass.  Only sound for
        calendars holding their full arrival list: a later
        :meth:`refill` may splice in arrivals before a previously
        reported horizon.
        """
        horizon = float("inf")
        if self._ai < self._n:
            horizon = self.arrivals[self._ai].submit_s
        if self._finishes and self._finishes[0][0] < horizon:
            horizon = self._finishes[0][0]
        return horizon

    # ------------------------------------------------------------------
    def schedule_finish(self, time_s: float, payload: object) -> None:
        """Add a finish event (ties pop in push order)."""
        heapq.heappush(self._finishes, (time_s, self._seq, payload))
        self._seq += 1

    def schedule_tick(self, time_s: float) -> None:
        """Set the single outstanding periodic tick."""
        self._next_tick = time_s

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return (
            self._ai < self._n
            or bool(self._finishes)
            or self._next_tick is not None
        )

    def pop(self) -> tuple[float, int, object] | None:
        """The next event as ``(now, kind, payload)``, or None when empty.

        Arrival payloads are the :class:`~repro.sim.job.Job`; finish
        payloads are whatever :meth:`schedule_finish` stored; tick
        payloads are ``None``.
        """
        ai = self._ai
        finishes = self._finishes
        tick = self._next_tick
        if ai < self._n:
            job = self.arrivals[ai]
            t_arr = job.submit_s
            if (not finishes or t_arr <= finishes[0][0]) and (
                tick is None or t_arr <= tick
            ):
                self._ai = ai + 1
                return t_arr, ARRIVAL, job
        if finishes and (tick is None or finishes[0][0] <= tick):
            time_s, _, payload = heapq.heappop(finishes)
            return time_s, FINISH, payload
        if tick is not None:
            self._next_tick = None
            return tick, TICK, None
        return None


class ReadyQueue:
    """Bounded FCFS + backfill queue with O(1) blocked-state buckets.

    The queue is split where the backfill window ends: ``window`` is a
    list of the first ``size`` queued jobs (the only ones a scan may
    start) and ``backlog`` a deque of the rest, non-empty only while
    the window is full.  :meth:`ClusterSim.startable
    <repro.sim.cluster.ClusterSim.startable>` walks the window list
    once, starting every job that fits and filing each job it leaves
    behind into a blocked bucket, then tops the window up from the
    backlog — O(window) per scan however long the backlog grows.

    Between scans every window job sits in one of two buckets:

    * **cores-blocked** — the job's user was idle but the job needs more
      cores than were free; summarised as the *minimum* such need
      (``min_blocked_cores``), because free cores only grow outside
      scans and nothing can start until they reach that minimum;
    * **user-blocked** — the job's user already runs here; summarised as
      the set of blocking users, because such a job can only change
      state when its user drains.

    ``synced`` is True when the buckets are trustworthy, i.e. the last
    scan proved every window job blocked and no unindexed change
    happened since.  The owning cluster calls :meth:`push` on enqueue
    and :meth:`note_release` on finish; both either keep the buckets
    exact in O(1) or clear ``synced`` to force the next scan.  Backlog
    jobs never need indexing — they cannot start until earlier jobs
    leave, which only happens inside a scan.
    """

    __slots__ = (
        "window",
        "backlog",
        "size",
        "min_blocked_cores",
        "blocked_users",
        "synced",
    )

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("backfill window must be >= 1")
        self.window: list["Job"] = []
        self.backlog: deque["Job"] = deque()
        self.size = window
        self.min_blocked_cores: float = float("inf")
        self.blocked_users: set[int] = set()
        self.synced = False

    def __len__(self) -> int:
        return len(self.window) + len(self.backlog)

    # ------------------------------------------------------------------
    def push(self, job: "Job", free_cores: int, busy_users: set[int]) -> None:
        """Append ``job`` and classify it against the current state.

        Enqueueing changes nothing for jobs already queued, so a synced
        index stays synced: the new job either lands in the backlog
        (unreachable until a scan shrinks the window), joins a blocked
        bucket, or — if it could start right now — clears ``synced`` so
        the next scan really runs.
        """
        if len(self.window) == self.size:
            self.backlog.append(job)
            return
        self.window.append(job)
        if not self.synced:
            return
        if job.user in busy_users:
            self.blocked_users.add(job.user)
        elif job.cores > free_cores:
            if job.cores < self.min_blocked_cores:
                self.min_blocked_cores = job.cores
        else:
            self.synced = False

    def note_release(self, user: int, free_cores: int) -> None:
        """Record a finish: ``user`` drained and cores were freed.

        Clears ``synced`` only when the release can actually unblock a
        window job — the freed capacity reaches the smallest
        cores-blocked need, or the drained user blocks someone.
        """
        if self.synced and (
            free_cores >= self.min_blocked_cores or user in self.blocked_users
        ):
            self.synced = False
