"""The scheduling-game engine (Fig. 8).

Players see a window of pending jobs and four machines.  Scheduling a
job places it on a machine (it starts when the machine frees up),
charges its cost against the allocation, and reveals the next job —
"more jobs arrived as jobs were scheduled".  The game ends when the
player ends it, the time budget is exhausted, or nothing affordable
remains.

The three versions differ only in the *economics shown to the player*:

=========  =====================================  ====================
Version    Cost charged                            Energy displayed?
=========  =====================================  ====================
V1         core-hours (time x cores)               no
V2         core-hours (time x cores)               yes
V3         EBA formula (Eq. 1)                     yes
=========  =====================================  ====================

Energy *consumed* is tracked identically in all versions — that is the
experimenter's measurement, not part of the player's interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.scenarios import SimMachine, baseline_scenario
from repro.study.jobs import GameJob, default_job_deck


class GameVersion(enum.IntEnum):
    """Which arm of the study a participant plays."""

    V1 = 1
    V2 = 2
    V3 = 3


@dataclass(frozen=True)
class GameConfig:
    """Game parameters.

    ``allocation_core_hours`` is the V1/V2 budget.  V3's budget is the
    core-hour budget converted to EBA units with a *deck-average*
    exchange rate scaled by ``v3_allocation_factor`` — the paper notes
    an exact conversion was impossible; the slight undersizing this
    produces is part of what the analysis must control for (Fig. 9c).
    """

    time_budget_h: float = 110.0
    allocation_core_hours: float = 850.0
    visible_jobs: int = 4
    v3_allocation_factor: float = 0.85

    def __post_init__(self) -> None:
        if self.time_budget_h <= 0 or self.allocation_core_hours <= 0:
            raise ValueError("budgets must be positive")
        if self.visible_jobs < 1:
            raise ValueError("must show at least one job")


@dataclass
class MachineCard:
    """One machine's presentation + queue state."""

    machine: SimMachine
    busy_until_h: float = 0.0
    jobs_run: int = 0

    @property
    def name(self) -> str:
        return self.machine.name


@dataclass(frozen=True)
class JobOffer:
    """What hovering over a job shows for one machine (Fig. 8 tooltip)."""

    job_id: int
    machine: str
    start_h: float
    runtime_h: float
    cost: float
    energy_kwh: float | None  # None when the version hides energy


class Game:
    """One play of the game."""

    def __init__(
        self,
        version: GameVersion,
        config: GameConfig | None = None,
        deck: list[GameJob] | None = None,
        machines: dict[str, SimMachine] | None = None,
    ) -> None:
        self.version = GameVersion(version)
        self.config = config or GameConfig()
        self.machines = (
            machines if machines is not None else baseline_scenario(days=7, seed=7)
        )
        self.deck = (
            list(deck)
            if deck is not None
            else default_job_deck(machines=self.machines)
        )
        self.cards = {name: MachineCard(machine=m) for name, m in self.machines.items()}

        self._pending = list(self.deck)
        self._visible: list[GameJob] = []
        self._refill()

        self.energy_used_kwh = 0.0
        self.jobs_completed = 0
        self.jobs_seen: set[int] = set(j.job_id for j in self._visible)
        self.jobs_run: set[int] = set()
        self.clock_h = 0.0
        self.ended = False

        self.allocation = self._initial_allocation()

    # ------------------------------------------------------------------
    # Economics
    # ------------------------------------------------------------------
    def _initial_allocation(self) -> float:
        if self.version is not GameVersion.V3:
            return self.config.allocation_core_hours
        # Deck-average exchange rate from core-hours to EBA charge units.
        total_runtime_cost = 0.0
        total_eba = 0.0
        for job in self.deck:
            for name in job.machines:
                total_runtime_cost += self._runtime_cost(job, name)
                total_eba += self._eba_cost(job, name)
        rate = total_eba / total_runtime_cost if total_runtime_cost > 0 else 1.0
        return (
            self.config.allocation_core_hours
            * rate
            * self.config.v3_allocation_factor
        )

    def _runtime_cost(self, job: GameJob, machine: str) -> float:
        return job.runtime_h[machine] * job.cores

    def _eba_cost(self, job: GameJob, machine: str) -> float:
        """Eq. (1) in game units: kWh averaged with the TDP potential."""
        m = self.machines[machine]
        potential_kwh = (
            job.runtime_h[machine] * job.cores * m.tdp_watts_per_core / 1e3
        )
        return (job.energy_kwh[machine] + potential_kwh) / 2.0

    def cost_of(self, job: GameJob, machine: str) -> float:
        """The cost this version charges for (job, machine)."""
        if self.version is GameVersion.V3:
            return self._eba_cost(job, machine)
        return self._runtime_cost(job, machine)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    @property
    def visible_jobs(self) -> list[GameJob]:
        return list(self._visible)

    @property
    def time_left_h(self) -> float:
        return max(0.0, self.config.time_budget_h - self.clock_h)

    def offers(self, job: GameJob) -> list[JobOffer]:
        """Hover information: per-machine start/time/cost (+energy in V2/V3)."""
        show_energy = self.version is not GameVersion.V1
        out = []
        for name in job.machines:
            card = self.cards[name]
            start = max(self.clock_h, card.busy_until_h)
            out.append(
                JobOffer(
                    job_id=job.job_id,
                    machine=name,
                    start_h=start,
                    runtime_h=job.runtime_h[name],
                    cost=self.cost_of(job, name),
                    energy_kwh=job.energy_kwh[name] if show_energy else None,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def _refill(self) -> None:
        while len(self._visible) < self.config.visible_jobs and self._pending:
            job = self._pending.pop(0)
            self._visible.append(job)

    def _find_visible(self, job_id: int) -> GameJob:
        for job in self._visible:
            if job.job_id == job_id:
                return job
        raise KeyError(f"job {job_id} is not on the board")

    def can_schedule(self, job_id: int, machine: str) -> bool:
        """Whether the move would be accepted."""
        if self.ended:
            return False
        try:
            job = self._find_visible(job_id)
        except KeyError:
            return False
        if machine not in job.machines:
            return False
        offer_start = max(self.clock_h, self.cards[machine].busy_until_h)
        ends = offer_start + job.runtime_h[machine]
        return (
            ends <= self.config.time_budget_h
            and self.cost_of(job, machine) <= self.allocation + 1e-9
        )

    def schedule(self, job_id: int, machine: str) -> JobOffer:
        """Drag job ``job_id`` onto ``machine``."""
        if self.ended:
            raise RuntimeError("game over")
        job = self._find_visible(job_id)
        if machine not in job.machines:
            raise ValueError(f"job {job_id} cannot run on {machine!r}")
        if not self.can_schedule(job_id, machine):
            raise ValueError(
                f"move rejected: job {job_id} on {machine!r} exceeds the "
                "time budget or the allocation"
            )
        card = self.cards[machine]
        start = max(self.clock_h, card.busy_until_h)
        runtime = job.runtime_h[machine]
        cost = self.cost_of(job, machine)

        card.busy_until_h = start + runtime
        card.jobs_run += 1
        self.allocation -= cost
        self.energy_used_kwh += job.energy_kwh[machine]
        self.jobs_completed += 1
        self.jobs_run.add(job.job_id)

        self._visible.remove(job)
        self._refill()
        self.jobs_seen.update(j.job_id for j in self._visible)
        return JobOffer(
            job_id=job.job_id,
            machine=machine,
            start_h=start,
            runtime_h=runtime,
            cost=cost,
            energy_kwh=job.energy_kwh[machine],
        )

    def skip(self, job_id: int) -> None:
        """Decline a job (it leaves the board; the next one arrives)."""
        if self.ended:
            raise RuntimeError("game over")
        job = self._find_visible(job_id)
        self._visible.remove(job)
        self._refill()
        self.jobs_seen.update(j.job_id for j in self._visible)

    def advance(self) -> None:
        """The "Advance" button: move the clock to the next completion."""
        if self.ended:
            raise RuntimeError("game over")
        future = [
            c.busy_until_h for c in self.cards.values() if c.busy_until_h > self.clock_h
        ]
        self.clock_h = min(future) if future else self.config.time_budget_h
        if self.clock_h >= self.config.time_budget_h:
            self.ended = True

    def end(self) -> None:
        """The "End Game" button."""
        self.ended = True

