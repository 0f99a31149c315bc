"""Per-machine queue and capacity model.

Each machine runs an FCFS queue with conservative backfill: the head job
starts as soon as enough cores are free; jobs behind a blocked head may
start only if they fit in the currently free cores (no reservation),
scanning a bounded window so scheduling stays O(window).

The queue is an **indexed ready-queue**
(:class:`~repro.sim.events.ReadyQueue`) of plain
:data:`~repro.sim.events.QueueEntry` tuples, ``(job_id, user, cores,
runtime_s)``: the window is a list of the first ``backfill_window``
jobs and the rest wait in a backlog deque.
A scan walks the window once, in order, starting every job that fits
under the seed's exact test and filing each job it leaves behind into
a blocked bucket keyed by (min free cores needed, blocking user) *at
that moment* — sound, because during a scan free cores only shrink and
the busy set only grows, so a job blocked when it was visited is still
blocked when the scan ends.  The scan then tops the window up from the
backlog, classifying only the jobs that shift in; a shifted-in job is
never started in the same scan (the seed's scan had already passed its
slot), and if one fits the queue stays scan-needed, so the next event
starts it exactly when the seed's always-scan loop would.  A scan thus
reads at most ``backfill_window`` + (jobs started) jobs, whatever the
backlog's length.  Between scans the buckets answer the events that
dominate a saturated run — a finish that frees too few cores to admit
anyone, an arrival that lands behind a blocked window — in O(1).  Same
jobs, same order, same test, and only fruitless scans skipped: start
decisions are bit-identical to always rescanning.

Three machine-specific rules live here:

* **one running job per user per cluster** (§5.3) — queued jobs whose
  user already runs on this cluster are skipped until that job ends;
* **per-machine concurrency caps** (the tiered fleets' worker-slot
  limits): when ``SimMachine.max_concurrent_jobs`` is set, at most that
  many jobs run at once regardless of free cores.  Cap-blocked jobs
  stay in the window, and because the ready-queue index never learns
  about the cap, a scan leaves the queue marked scan-needed while a
  cores-and-user-startable job waits on a slot — so the next finish
  rescans and no start is ever missed;
* **queue-time estimation** for the EFT/Mixed policies: expected wait is
  the committed core-seconds (running remainders + queued demand)
  divided by total capacity — the standard backlog heuristic.  Running
  jobs count only their *remaining* core-seconds at the query time
  (tracked incrementally as ``sum(cores * end) - now * sum(cores)``),
  not their full runtime, so the backlog estimate decays as work
  progresses instead of overstating busy machines until jobs finish.
"""

from __future__ import annotations

from repro.sim.events import QueueEntry, ReadyQueue
from repro.sim.scenarios import SimMachine


class ClusterSim:
    """Queue + capacity state of one machine inside the simulator.

    ``running`` maps each running job's id to its queue entry and its
    scheduled end time, in start order.
    """

    __slots__ = (
        "machine",
        "backfill_window",
        "name",
        "total_cores",
        "_capacity",
        "free_cores",
        "_ready",
        "running",
        "_busy_users",
        "_queued_core_s",
        "_running_cores",
        "_running_end_core_s",
        "max_concurrent",
    )

    def __init__(self, machine: SimMachine, backfill_window: int = 64) -> None:
        if backfill_window < 1:
            raise ValueError("backfill window must be >= 1")
        self.machine = machine
        self.backfill_window = backfill_window
        # Cached off the property chain (machine.node.cores * node_count):
        # the hot loop reads these tens of thousands of times per run.
        self.name: str = machine.name
        self.total_cores: int = machine.total_cores
        self._capacity: int = max(1, self.total_cores)
        self.free_cores = self.total_cores
        self._ready = ReadyQueue(backfill_window)
        self.running: dict[int, tuple[QueueEntry, float]] = {}
        self._busy_users: set[int] = set()
        #: Committed core-seconds, split so running work can decay:
        #: queued demand is a plain sum; running remainders at time t are
        #: sum(cores * end_s) - t * sum(cores), maintained incrementally.
        self._queued_core_s = 0.0
        self._running_cores = 0
        self._running_end_core_s = 0.0
        #: Worker-slot cap (None = uncapped, the paper's machines).
        self.max_concurrent: int | None = machine.max_concurrent_jobs
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._ready)

    def estimated_wait_s(self, now: float) -> float:
        """Backlog heuristic: committed core-seconds over capacity.

        Committed work is the queued demand plus what running jobs still
        have left at ``now`` — a job started long ago contributes only
        its remainder, so the estimate no longer overstates machines
        whose work is nearly done.  ``now`` is required because the
        remainders are tracked against absolute end times; querying
        with a stale clock silently inflates the estimate.
        """
        committed = self._queued_core_s + (
            self._running_end_core_s - now * self._running_cores
        )
        return committed / self._capacity if committed > 0.0 else 0.0

    # ------------------------------------------------------------------
    def enqueue(self, entry: QueueEntry) -> None:
        """Queue one job: ``(job_id, user, cores, runtime_s)``, with its
        runtime on this machine (NaN, a machine it cannot use, raises)."""
        job_id, _, cores, runtime = entry
        if not runtime >= 0.0:
            raise ValueError(f"job {job_id} is not eligible on {self.name!r}")
        self._ready.push(entry, self.free_cores, self._busy_users)
        self._queued_core_s += cores * runtime

    def startable(self, now: float) -> list[tuple[int, float]]:
        """Start every job that can start right now (FCFS + backfill);
        returns their ``(job_id, end_s)`` pairs in start order.

        The indexed fast path: when the ready-queue's blocked buckets
        prove no window job changed state since the last scan, return
        without touching the queue.  Otherwise walk the window once —
        start what fits, bucket what stays — and top it up from the
        backlog.
        """
        ready = self._ready
        if not ready.window or self.free_cores <= 0:
            return []
        cap = self.max_concurrent
        running = self.running
        if cap is not None and len(running) >= cap:
            # Every slot is taken: nothing can start, and the queue's
            # scan-needed flag stays set for the finish that frees one.
            return []
        if ready.synced:
            return []
        started: list[tuple[int, float]] = []
        kept: list[QueueEntry] = []
        busy = self._busy_users
        users = ready.blocked_users
        users.clear()
        min_cores = float("inf")
        synced = True
        free = self.free_cores
        queued = self._queued_core_s
        running_cores = self._running_cores
        running_end = self._running_end_core_s
        for entry in ready.window:
            job_id, user, cores, runtime = entry
            if user in busy:
                users.add(user)
            elif cores > free:
                if cores < min_cores:
                    min_cores = cores
            elif cap is not None and len(running) >= cap:
                synced = False  # fits, but waits on a slot
            else:
                # Start it: the same float operations, in the same
                # order, as starting one job at a time.
                free -= cores
                end = now + runtime
                running[job_id] = (entry, end)
                busy.add(user)
                queued -= cores * runtime
                running_cores += cores
                running_end += cores * end
                started.append((job_id, end))
                continue
            kept.append(entry)
        self.free_cores = free
        self._queued_core_s = queued
        self._running_cores = running_cores
        self._running_end_core_s = running_end
        ready.window = kept
        ready.min_blocked_cores = min_cores
        ready.synced = synced
        # Shift backlog jobs into the slots the starts vacated: pushed
        # (classified), never started, in this scan.
        backlog = ready.backlog
        while backlog and len(kept) < ready.size:
            ready.push(backlog.popleft(), free, busy)
        return started

    def finish(self, job_id: int) -> QueueEntry:
        """Release a running job's resources; returns its queue entry."""
        entry, end_s = self.running.pop(job_id)
        _, user, cores, _ = entry
        self.free_cores += cores
        self._running_cores -= cores
        self._running_end_core_s -= cores * end_s
        # The user may have exactly one job here, so membership is safe
        # to clear unconditionally.
        self._busy_users.discard(user)
        self._ready.note_release(user, self.free_cores)
        return entry

    def reschedule_end(self, job_id: int, end_s: float) -> None:
        """Move a running job's finish time (migration continuations
        carry only their remaining runtime), keeping the committed
        remainder accounting consistent."""
        entry, old_end = self.running[job_id]
        self._running_end_core_s += entry[2] * (end_s - old_end)
        self.running[job_id] = (entry, end_s)
