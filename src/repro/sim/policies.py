"""The eight machine-selection policies of §5.3.

A policy sees one job at submission time as per-machine sequences, all
in the job's own eligibility order: the machine names, the predicted
runtimes and energies, the estimated queue waits, and the costs the
active accounting method would charge.  It returns the *index* of the
machine it picks.  Every built-in is an argmin over one of those
sequences that keeps the first minimum, i.e. ties go to the machine
earliest in the job's eligibility order.  Single-machine policies are
instances of :class:`FixedMachinePolicy`.

Only Greedy and Mixed read ``cost``.  Every other built-in policy sets
:attr:`Policy.reads_cost` to ``False``: its choice, and so the whole
schedule of a run, is the same under every accounting method, which
lets a sweep simulate such a policy once per workload and settle that
schedule under each method (see :mod:`repro.sim.sweep`).
"""

from __future__ import annotations

import abc
from typing import Sequence


def _argmin(values: Sequence[float]) -> int:
    """Index of the first minimum of ``values``.

    ``min`` keeps the first of equal minima and ``index`` finds the
    first element equal to it, which is that same position.
    """
    return values.index(min(values))


class Policy(abc.ABC):
    """Machine-selection strategy.

    ``reads_cost`` declares whether :meth:`select` may look at
    ``cost``.  ``False`` promises that the choice is the same whatever
    the costs are, so a sweep may reuse one method's schedule for
    every other method.  It defaults to ``True``, the safe answer for a
    subclass that does not say.
    """

    name: str = "?"
    reads_cost: bool = True

    @abc.abstractmethod
    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        """Choose one candidate machine for a job; returns its index.

        The five sequences are non-empty, of equal length, and list the
        machines the job is eligible to run on in its eligibility order:
        ``names[i]`` runs it in ``runtime[i]`` seconds for
        ``energy[i]`` joules after an estimated ``wait[i]`` seconds of
        queueing, and the active method would charge ``cost[i]``.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class GreedyPolicy(Policy):
    """Minimize allocation cost under the active accounting method."""

    name = "Greedy"

    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        return _argmin(cost)


class EnergyPolicy(Policy):
    """Minimize predicted energy."""

    name = "Energy"
    reads_cost = False

    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        return _argmin(energy)


class MixedPolicy(Policy):
    """Balance cost and completion time.

    "Select machine with the least allocation cost *unless* another
    machine can complete the job in half the time, in which case select
    that machine."  The ``speedup_threshold`` (2x in the paper) is a
    parameter so the ablation benchmark can sweep it.  Completion time
    is ``wait[i] + runtime[i]``.
    """

    name = "Mixed"

    def __init__(self, speedup_threshold: float = 2.0) -> None:
        if speedup_threshold < 1.0:
            raise ValueError("speedup threshold must be >= 1")
        self.speedup_threshold = speedup_threshold

    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        cheapest = _argmin(cost)
        completion = [w + r for w, r in zip(wait, runtime)]
        fastest = _argmin(completion)
        if (
            fastest != cheapest
            and completion[fastest] <= completion[cheapest] / self.speedup_threshold
        ):
            return fastest
        return cheapest


class EFTPolicy(Policy):
    """Earliest finish time: minimize queue wait + runtime."""

    name = "EFT"
    reads_cost = False

    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        return _argmin([w + r for w, r in zip(wait, runtime)])


class RuntimePolicy(Policy):
    """Minimize runtime, ignoring queues, energy, and cost."""

    name = "Runtime"
    reads_cost = False

    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        return _argmin(runtime)


class LargestFirstPolicy(Policy):
    """Largest-first greedy assignment for tiered worker fleets.

    The subset-strategy heuristic (ROADMAP item 3): prefer the largest
    (fastest) tier that can take the job *now* — i.e. whose estimated
    queue wait is zero, which is how a free worker slot surfaces to a
    policy — and only spill down-tier when the larger tiers are
    saturated (their concurrency caps and core commitments both show up
    as queue wait).  If every tier is busy, queue on the
    least-backlogged one, preferring the larger tier on ties.

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

    def _key(self, machine: str) -> tuple[int, str]:
        return (self._rank.get(machine, self._unknown), machine)

    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        ordered = sorted(range(len(names)), key=lambda i: self._key(names[i]))
        for i in ordered:
            if wait[i] <= 0.0:
                return i
        # min() keeps the first minimum, i.e. the largest tier on ties.
        return min(ordered, key=wait.__getitem__)


class FixedMachinePolicy(Policy):
    """Always submit to one machine (the Theta / IC / FASTER policies).

    Jobs not eligible on the fixed machine fall back to the fastest
    eligible machine (the paper's Desktop policy is absent for the same
    reason: 17% of jobs cannot run there)."""

    reads_cost = False

    def __init__(self, machine: str) -> None:
        self.machine = machine
        self.name = machine

    def select(
        self,
        names: Sequence[str],
        runtime: Sequence[float],
        energy: Sequence[float],
        wait: Sequence[float],
        cost: Sequence[float],
    ) -> int:
        if self.machine in names:
            return names.index(self.machine)
        return _argmin(runtime)


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
