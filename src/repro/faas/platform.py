"""The green-ACCESS frontend: submission, admission control, accounting.

Ties the pieces together the way Fig. 3 draws them: users submit
functions; the platform quotes expected costs (prediction service),
checks the user's fungible allocation (admission control), forwards the
invocation to the chosen endpoint, lets the monitor attribute measured
energy, and finally debits the *measured* charge from the allocation.

Deferred settlement
-------------------
:meth:`GreenAccess.submit` prices and debits each invocation on the
spot.  :meth:`GreenAccess.submit_deferred` + :meth:`GreenAccess.settle`
instead queue the monitor-attributed usage record in a per-user
:class:`~repro.accounting.pricing.SettlementQueue` and price the whole
queue later with one ``charge_many`` call per machine; debits replay in
submission order, so settled charges, balances, and transactions are
**bit-identical** to submitting every invocation through ``submit``
(the test suite runs both on twin platforms and compares).

Admission control stays *exact* under deferral: every queued record
carries a sound upper bound on its eventual charge, so a submission is
admitted without settling only when ``balance - pending_bound`` already
covers its estimate — a state in which the reference path would
certainly admit too.  When the bound cannot decide, the user's queue is
settled first and the check runs against the exact balance, raising
:class:`AdmissionError` in exactly the cases the immediate path would.
(One timing difference is inherent: a *measured* charge that overdraws
the balance surfaces as ``AllocationExhausted`` at settlement rather
than at submission.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.accounting.allocation import AllocationExhausted, AllocationLedger
from repro.accounting.base import AccountingMethod, MachinePricing, UsageRecord
from repro.accounting.methods import EnergyBasedAccounting
from repro.accounting.pricing import SettlementQueue
from repro.apps.registry import APP_REGISTRY, kernel_for
from repro.faas.bus import MessageBus
from repro.faas.endpoint import Endpoint, Invocation
from repro.faas.monitor import EndpointMonitor
from repro.faas.predictor import PredictionService
from repro.hardware.counters import BALANCED, WorkloadSignature
from repro.hardware.node import NodeSpec


class AdmissionError(RuntimeError):
    """Submission refused: estimated cost exceeds the remaining allocation."""


@dataclass(frozen=True)
class SubmissionReceipt:
    """Everything the user learns about a completed invocation."""

    task_id: str
    function: str
    machine: str
    user: str
    duration_s: float
    measured_energy_j: float
    charged: float
    unit: str
    balance_after: float
    estimated_cost: float
    return_value: Any = None


@dataclass
class RegisteredMachine:
    endpoint: Endpoint
    pricing: MachinePricing


@dataclass
class _PendingInvocation:
    """Metadata for one executed-but-unsettled submission.

    Carries the usage record itself so a settlement that fails part-way
    (measured-charge overdraft) can re-queue the unredeemed entries."""

    task_id: str
    function: str
    machine: str
    record: UsageRecord
    duration_s: float
    measured_energy_j: float
    estimate: float
    return_value: Any


@dataclass
class _UserPending:
    """One user's deferred-settlement state."""

    queue: SettlementQueue
    entries: list[_PendingInvocation]


class GreenAccess:
    """The platform frontend.

    Parameters
    ----------
    method:
        Accounting method charges are debited under (EBA by default).
    unit:
        Display unit of the allocation balances.
    real_execution:
        When True, submissions run the *real* kernels registered in
        :mod:`repro.apps.registry` and are charged for simulated-RAPL
        measured energy; when False (default) submissions replay the
        calibrated profiles — deterministic, and what the paper's cost
        tables are computed from.
    """

    def __init__(
        self,
        method: AccountingMethod | None = None,
        unit: str = "J",
        real_execution: bool = False,
        seed: int | None = 0,
    ) -> None:
        self.method = method if method is not None else EnergyBasedAccounting()
        self.bus = MessageBus()
        self.ledger = AllocationLedger(unit=unit)
        self.monitor = EndpointMonitor(self.bus)
        self.predictor = PredictionService()
        self.real_execution = real_execution
        self._machines: dict[str, RegisteredMachine] = {}
        #: Live pricing catalogue shared (by reference) with every
        #: settlement queue, so machines registered later still price.
        self._pricings: dict[str, MachinePricing] = {}
        self._task_counter = itertools.count(1)
        self._seed = seed
        self.receipts: list[SubmissionReceipt] = []
        self._pending: dict[str, _UserPending] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_machine(self, node: NodeSpec, pricing: MachinePricing) -> Endpoint:
        """Deploy an endpoint for ``node`` (the paper's GCE + monitor)."""
        if pricing.name != node.name:
            raise ValueError(
                f"pricing is for {pricing.name!r}, node is {node.name!r}"
            )
        if node.name in self._machines:
            raise ValueError(f"machine {node.name!r} already registered")
        endpoint = Endpoint(
            name=node.name, node=node, bus=self.bus, seed=self._seed
        )
        self._machines[node.name] = RegisteredMachine(
            endpoint=endpoint, pricing=pricing
        )
        self._pricings[node.name] = pricing
        return endpoint

    def grant(self, user: str, amount: float) -> None:
        """Open (or top up) a user's fungible allocation."""
        if user in self.ledger:
            self.ledger.get(user).grant(amount)
        else:
            self.ledger.open(user, amount)

    @property
    def machines(self) -> list[str]:
        return sorted(self._machines)

    def pricing(self, machine: str) -> MachinePricing:
        return self._machines[machine].pricing

    # ------------------------------------------------------------------
    # Cost estimation
    # ------------------------------------------------------------------
    def estimate_costs(self, function: str, cores: int = 8) -> dict[str, float]:
        """Expected cost of ``function`` on every registered machine."""
        signature = self._signature(function)
        pricings = {n: m.pricing for n, m in self._machines.items()}
        return self.predictor.quote(signature, self.method, pricings, cores=cores)

    def _signature(self, function: str) -> WorkloadSignature:
        profile = APP_REGISTRY.get(function)
        return profile.signature if profile is not None else BALANCED

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        user: str,
        function: str,
        machine: str | None = None,
        cores: int = 8,
        callable_override: Callable[[], Any] | None = None,
    ) -> SubmissionReceipt:
        """Run ``function`` for ``user`` and debit the measured charge.

        With ``machine=None`` the platform places the job on the machine
        with the lowest *expected* cost — the guidance mechanism the
        paper credits for steering users to efficient resources.

        Any deferred submissions the user has pending are settled first,
        so the admission check and the debit see the exact balance.
        """
        machine, estimate = self._admit_checks(user, function, machine, cores)
        self._settle_user(user)

        allocation = self.ledger.get(user)
        if not allocation.can_afford(estimate):
            raise AdmissionError(
                f"estimated cost {estimate:.4g} {self.ledger.unit} exceeds "
                f"balance {allocation.balance:.4g} for user {user!r}"
            )

        task_id, record, result = self._execute(
            user, function, machine, cores, callable_override
        )
        charge = self.method.charge(record, self._machines[machine].pricing)
        txn = allocation.debit(charge, machine=machine, job_id=task_id)

        receipt = SubmissionReceipt(
            task_id=task_id,
            function=function,
            machine=machine,
            user=user,
            duration_s=result.duration_s,
            measured_energy_j=record.energy_j,
            charged=charge,
            unit=self.ledger.unit,
            balance_after=txn.balance_after,
            estimated_cost=estimate,
            return_value=result.return_value,
        )
        self.receipts.append(receipt)
        return receipt

    def submit_deferred(
        self,
        user: str,
        function: str,
        machine: str | None = None,
        cores: int = 8,
        callable_override: Callable[[], Any] | None = None,
    ) -> str:
        """Run ``function`` now but defer pricing and debiting.

        The invocation executes and the monitor attributes its energy
        exactly as in :meth:`submit`; only the ``charge`` + ``debit``
        step is queued, to be priced in one vectorized batch by
        :meth:`settle`.  Admission control is exact (see the module
        docstring): the submission is admitted without settling only
        when the balance minus the pending charge bound already covers
        the estimate; otherwise the user's queue settles first and the
        reference check runs on the exact balance.

        Returns the task id; the :class:`SubmissionReceipt` is produced
        at settlement.
        """
        machine, estimate = self._admit_checks(user, function, machine, cores)
        allocation = self.ledger.get(user)
        pending = self._pending.get(user)
        bound = pending.queue.pending_bound if pending is not None else 0.0
        if not allocation.can_afford(estimate + bound):
            self._settle_user(user)
            if not allocation.can_afford(estimate):
                raise AdmissionError(
                    f"estimated cost {estimate:.4g} {self.ledger.unit} exceeds "
                    f"balance {allocation.balance:.4g} for user {user!r}"
                )

        task_id, record, result = self._execute(
            user, function, machine, cores, callable_override
        )
        pending = self._pending.get(user)
        if pending is None:
            pending = self._pending[user] = _UserPending(
                queue=SettlementQueue(self.method, self._pricings),
                entries=[],
            )
        pending.queue.add(record)
        pending.entries.append(
            _PendingInvocation(
                task_id=task_id,
                function=function,
                machine=machine,
                record=record,
                duration_s=result.duration_s,
                measured_energy_j=record.energy_j,
                estimate=estimate,
                return_value=result.return_value,
            )
        )
        return task_id

    def settle(self, user: str | None = None) -> list[SubmissionReceipt]:
        """Price and debit every pending deferred submission.

        One ``charge_many`` per machine per user queue; debits replay in
        submission order, so balances and transactions match the
        immediate path bit for bit.  Returns the new receipts (also
        appended to :attr:`receipts`).
        """
        users = [user] if user is not None else list(self._pending)
        receipts: list[SubmissionReceipt] = []
        for name in users:
            receipts.extend(self._settle_user(name))
        return receipts

    @property
    def pending_settlements(self) -> int:
        """Deferred submissions not yet priced."""
        return sum(len(p.entries) for p in self._pending.values())

    # ------------------------------------------------------------------
    # Internals shared by the immediate and deferred paths
    # ------------------------------------------------------------------
    def _admit_checks(
        self, user: str, function: str, machine: str | None, cores: int
    ) -> tuple[str, float]:
        """Common validation + placement; returns (machine, estimate)."""
        if user not in self.ledger:
            raise KeyError(f"user {user!r} has no allocation")
        if not self._machines:
            raise RuntimeError("no machines registered")
        estimates = self.estimate_costs(function, cores=cores)
        if machine is None:
            machine = min(estimates, key=estimates.__getitem__)
        if machine not in self._machines:
            raise KeyError(f"machine {machine!r} is not registered")
        return machine, estimates.get(machine, 0.0)

    def _execute(
        self,
        user: str,
        function: str,
        machine: str,
        cores: int,
        callable_override: Callable[[], Any] | None,
    ) -> tuple[str, UsageRecord, Any]:
        """Run the invocation and attribute its energy (both paths)."""
        registered = self._machines[machine]
        task_id = f"task-{next(self._task_counter)}"
        profile = None
        call: Callable[[], Any] | None = callable_override
        if not self.real_execution and callable_override is None:
            app = APP_REGISTRY.get(function)
            if app is not None and machine in app.runs:
                profile = app.runs[machine]
        if profile is None and call is None:
            call = kernel_for(function)

        invocation = Invocation(
            task_id=task_id,
            function=function,
            user=user,
            cores=cores,
            profile=profile,
            callable=call,
            signature=self._signature(function),
        )
        result = registered.endpoint.execute(invocation)

        reports = self.monitor.finalize()
        report = reports[task_id]

        record = UsageRecord(
            machine=machine,
            duration_s=result.duration_s,
            energy_j=report.energy_j,
            cores=result.cores,
            provisioned_cores=result.provisioned_cores,
            start_time_s=result.start_s,
            job_id=task_id,
        )
        return task_id, record, result

    def _settle_user(self, user: str) -> list[SubmissionReceipt]:
        """Price and debit one user's queue, in submission order.

        A measured charge can exceed the remaining balance even though
        every submission passed estimate-based admission; in that case
        the entries already debited keep their receipts, the failing
        entry and everything after it are *re-queued* (nothing is
        silently dropped — a later grant + settle redeems them at the
        same charges), and the :class:`AllocationExhausted` propagates.
        """
        pending = self._pending.pop(user, None)
        if pending is None:
            return []
        charges = pending.queue.settle()
        allocation = self.ledger.get(user)
        receipts = []
        for i, (entry, charge) in enumerate(zip(pending.entries, charges)):
            try:
                txn = allocation.debit(
                    charge, machine=entry.machine, job_id=entry.task_id
                )
            except AllocationExhausted:
                self._requeue(user, pending.entries[i:])
                raise
            receipts.append(
                SubmissionReceipt(
                    task_id=entry.task_id,
                    function=entry.function,
                    machine=entry.machine,
                    user=user,
                    duration_s=entry.duration_s,
                    measured_energy_j=entry.measured_energy_j,
                    charged=charge,
                    unit=self.ledger.unit,
                    balance_after=txn.balance_after,
                    estimated_cost=entry.estimate,
                    return_value=entry.return_value,
                )
            )
            self.receipts.append(receipts[-1])
        return receipts

    def _requeue(self, user: str, entries: list[_PendingInvocation]) -> None:
        """Put unredeemed entries back at the head of the user's queue."""
        pending = self._pending.get(user)
        if pending is None:
            pending = self._pending[user] = _UserPending(
                queue=SettlementQueue(self.method, self._pricings),
                entries=[],
            )
        for entry in entries:
            pending.queue.add(entry.record)
            pending.entries.append(entry)
