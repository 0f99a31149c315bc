"""The eight machine-selection policies of §5.3.

A policy sees, for one job at submission time, a per-machine
:class:`MachineView` (predicted runtime/energy, estimated queue wait,
and the cost the active accounting method would charge) and picks a
machine.  Single-machine policies are instances of
:class:`FixedMachinePolicy`.

Only Greedy and Mixed read a view's ``cost``.  Every other built-in
policy sets :attr:`Policy.reads_cost` to ``False``: its choice, and so
the whole schedule of a run, is the same under every accounting method,
which lets a sweep simulate such a policy once per workload and settle
that schedule under each method (see :mod:`repro.sim.sweep`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.sim.job import Job


@dataclass(slots=True)
class MachineView:
    """What a policy knows about one candidate machine for one job.

    A plain slots dataclass (not frozen): the engine builds one view per
    (arrival x eligible machine), so construction cost is a measurable
    part of the simulation hot loop.  Treat instances as immutable.
    """

    machine: str
    runtime_s: float
    energy_j: float
    queue_wait_s: float
    cost: float

    @property
    def completion_s(self) -> float:
        """Expected completion latency: queue wait + runtime."""
        return self.queue_wait_s + self.runtime_s


class Policy(abc.ABC):
    """Machine-selection strategy.

    ``reads_cost`` declares whether :meth:`select` may look at a view's
    ``cost``.  ``False`` promises that the choice is the same whatever
    the costs are, so a sweep may reuse one method's schedule for
    every other method.  It defaults to ``True``, the safe answer for a
    subclass that does not say.
    """

    name: str = "?"
    reads_cost: bool = True

    @abc.abstractmethod
    def select(self, job: Job, views: list[MachineView]) -> str:
        """Choose one of the candidate machines for ``job``.

        ``views`` is non-empty and contains only machines the job is
        eligible to run on.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class GreedyPolicy(Policy):
    """Minimize allocation cost under the active accounting method."""

    name = "Greedy"

    def select(self, job: Job, views: list[MachineView]) -> str:
        return min(views, key=lambda v: v.cost).machine


class EnergyPolicy(Policy):
    """Minimize predicted energy."""

    name = "Energy"
    reads_cost = False

    def select(self, job: Job, views: list[MachineView]) -> str:
        return min(views, key=lambda v: v.energy_j).machine


class MixedPolicy(Policy):
    """Balance cost and completion time.

    "Select machine with the least allocation cost *unless* another
    machine can complete the job in half the time, in which case select
    that machine."  The ``speedup_threshold`` (2x in the paper) is a
    parameter so the ablation benchmark can sweep it.
    """

    name = "Mixed"

    def __init__(self, speedup_threshold: float = 2.0) -> None:
        if speedup_threshold < 1.0:
            raise ValueError("speedup threshold must be >= 1")
        self.speedup_threshold = speedup_threshold

    def select(self, job: Job, views: list[MachineView]) -> str:
        cheapest = min(views, key=lambda v: v.cost)
        fastest = min(views, key=lambda v: v.completion_s)
        if (
            fastest.machine != cheapest.machine
            and fastest.completion_s
            <= cheapest.completion_s / self.speedup_threshold
        ):
            return fastest.machine
        return cheapest.machine


class EFTPolicy(Policy):
    """Earliest finish time: minimize queue wait + runtime."""

    name = "EFT"
    reads_cost = False

    def select(self, job: Job, views: list[MachineView]) -> str:
        return min(views, key=lambda v: v.completion_s).machine


class RuntimePolicy(Policy):
    """Minimize runtime, ignoring queues, energy, and cost."""

    name = "Runtime"
    reads_cost = False

    def select(self, job: Job, views: list[MachineView]) -> str:
        return min(views, key=lambda v: v.runtime_s).machine


class LargestFirstPolicy(Policy):
    """Largest-first greedy assignment for tiered worker fleets.

    The subset-strategy heuristic (ROADMAP item 3): prefer the largest
    (fastest) tier that can take the job *now* — i.e. whose estimated
    queue wait is zero, which is how a free worker slot surfaces in the
    view — and only spill down-tier when the larger tiers are saturated
    (their concurrency caps and core commitments both show up as queue
    wait).  If every tier is busy, queue on the least-backlogged one,
    preferring the larger tier on ties.

    Tier preference defaults to the tiered scenario's Large > Medium >
    Small; unknown machines sort after known tiers, alphabetically, so
    the policy degrades gracefully on non-tiered fleets.
    """

    name = "LargestFirst"
    reads_cost = False

    #: Default preference order, largest tier first (kept in sync with
    #: ``repro.sim.scenarios.TIER_ORDER`` by a scenario test).
    DEFAULT_ORDER = ("Large", "Medium", "Small")

    def __init__(self, order: tuple[str, ...] | None = None) -> None:
        tiers = order if order is not None else self.DEFAULT_ORDER
        self._rank = {tier: i for i, tier in enumerate(tiers)}
        self._unknown = len(tiers)

    def _key(self, view: MachineView) -> tuple[int, str]:
        return (self._rank.get(view.machine, self._unknown), view.machine)

    def select(self, job: Job, views: list[MachineView]) -> str:
        ordered = sorted(views, key=self._key)
        for view in ordered:
            if view.queue_wait_s <= 0.0:
                return view.machine
        # min() keeps the first minimum, i.e. the largest tier on ties.
        return min(ordered, key=lambda v: v.queue_wait_s).machine


class FixedMachinePolicy(Policy):
    """Always submit to one machine (the Theta / IC / FASTER policies).

    Jobs not eligible on the fixed machine fall back to the fastest
    eligible machine (the paper's Desktop policy is absent for the same
    reason: 17% of jobs cannot run there)."""

    reads_cost = False

    def __init__(self, machine: str) -> None:
        self.machine = machine
        self.name = machine

    def select(self, job: Job, views: list[MachineView]) -> str:
        for view in views:
            if view.machine == self.machine:
                return view.machine
        return min(views, key=lambda v: v.runtime_s).machine


def standard_policies(machines: list[str] | None = None) -> list[Policy]:
    """The eight §5.3 policies, in the paper's order.

    ``machines`` supplies the single-machine policy targets (defaults to
    Theta, IC, FASTER as in Fig. 5a).
    """
    fixed = machines if machines is not None else ["Theta", "IC", "FASTER"]
    return [
        GreedyPolicy(),
        EnergyPolicy(),
        MixedPolicy(),
        EFTPolicy(),
        RuntimePolicy(),
        *[FixedMachinePolicy(m) for m in fixed],
    ]
