"""Deferred settlement vs immediate debit: bit-identical, with exact
admission control, across all five accounting methods.

The reference is a twin platform that sends every invocation through
``submit`` (price and debit on the spot)."""

import pytest

from repro.accounting.base import pricing_for_node
from repro.accounting.methods import all_methods
from repro.faas.platform import AdmissionError, GreenAccess
from repro.hardware.catalog import (
    CPU_EXPERIMENT_NODES,
    CPU_EXPERIMENT_YEAR,
    TABLE1_CARBON_INTENSITY,
)

FUNCTIONS = ("Cholesky", "Pagerank", "BFS", "MatMul", "MST") * 3


def make_platform(method):
    platform = GreenAccess(method=method, unit="u")
    for node in CPU_EXPERIMENT_NODES:
        platform.register_machine(
            node,
            pricing_for_node(
                node, CPU_EXPERIMENT_YEAR, TABLE1_CARBON_INTENSITY[node.name]
            ),
        )
    return platform


def run_submissions(platform, deferred):
    """Submit the scripted workload through ``submit_deferred`` (or,
    for the reference, ``submit``); returns refused submission indices."""
    platform.grant("rich", 1e6)
    platform.grant("tight", 2.0)
    submit = platform.submit_deferred if deferred else platform.submit
    refused = []
    for i, function in enumerate(FUNCTIONS):
        try:
            submit("rich", function)
        except AdmissionError:
            refused.append(("rich", i))
        try:
            submit("tight", function)
        except AdmissionError:
            refused.append(("tight", i))
    return refused


class TestBitEquality:
    @pytest.mark.parametrize("method", all_methods(), ids=lambda m: m.name)
    def test_deferred_matches_immediate(self, method):
        immediate = make_platform(method)
        deferred = make_platform(method)
        refused_immediate = run_submissions(immediate, deferred=False)
        refused_deferred = run_submissions(deferred, deferred=True)
        deferred.settle()

        assert refused_deferred == refused_immediate
        by_task_imm = {r.task_id: r for r in immediate.receipts}
        by_task_def = {r.task_id: r for r in deferred.receipts}
        assert set(by_task_imm) == set(by_task_def)
        for task_id, reference in by_task_imm.items():
            settled = by_task_def[task_id]
            assert settled.charged == reference.charged
            assert settled.balance_after == reference.balance_after
            assert settled.measured_energy_j == reference.measured_energy_j
            assert settled.machine == reference.machine
            assert settled.estimated_cost == reference.estimated_cost
        for user in ("rich", "tight"):
            assert (
                deferred.ledger.get(user).balance
                == immediate.ledger.get(user).balance
            )

    def test_transactions_replay_in_submission_order(self):
        method = all_methods()[3]  # EBA
        immediate = make_platform(method)
        deferred = make_platform(method)
        run_submissions(immediate, deferred=False)
        run_submissions(deferred, deferred=True)
        deferred.settle()
        for user in ("rich", "tight"):
            txns_imm = immediate.ledger.get(user).transactions
            txns_def = deferred.ledger.get(user).transactions
            assert [(t.amount, t.balance_after, t.job_id) for t in txns_imm] == [
                (t.amount, t.balance_after, t.job_id) for t in txns_def
            ]


class TestDeferralMechanics:
    def test_charges_stay_pending_until_settle(self):
        platform = make_platform(all_methods()[3])
        platform.grant("u", 1e6)
        platform.submit_deferred("u", "Cholesky")
        platform.submit_deferred("u", "Pagerank")
        assert platform.pending_settlements == 2
        assert platform.ledger.get("u").balance == 1e6  # nothing debited yet
        receipts = platform.settle("u")
        assert [r.function for r in receipts] == ["Cholesky", "Pagerank"]
        assert platform.pending_settlements == 0
        assert platform.ledger.get("u").balance < 1e6

    def test_low_balance_forces_settlement_before_admission(self):
        """When the optimistic bound cannot prove affordability the queue
        settles, and the admission decision uses the exact balance.

        Needs a method whose bound is strictly looser than its charge:
        CBA on a *varying* intensity trace (the bound prices at the
        trace maximum, execution happens at a cheaper hour).  For EBA
        and the flat Table-1 traces the bound is tight, so optimistic
        failure and exact refusal coincide and this path never runs.
        """
        import numpy as np

        from repro.accounting.methods import CarbonBasedAccounting
        from repro.carbon.intensity import CarbonIntensityTrace

        trace = CarbonIntensityTrace(
            "vary", np.concatenate(([50.0], np.full(23, 900.0)))
        )
        platform = GreenAccess(method=CarbonBasedAccounting())
        node = CPU_EXPERIMENT_NODES[0]
        platform.register_machine(
            node, pricing_for_node(node, CPU_EXPERIMENT_YEAR, trace)
        )
        # Learn the actual charge from a twin platform's immediate submit.
        probe = GreenAccess(method=CarbonBasedAccounting())
        probe.register_machine(
            node, pricing_for_node(node, CPU_EXPERIMENT_YEAR, trace)
        )
        probe.grant("u", 1e9)
        reference = probe.submit("u", "MD", machine=node.name)

        platform.grant("u", reference.estimated_cost + reference.charged * 1.01)
        platform.submit_deferred("u", "MD", machine=node.name)
        assert platform.pending_settlements == 1
        bound = platform._pending["u"].queue.pending_bound
        assert bound > reference.charged  # the trace max makes it loose
        # The second submission's estimate + pending bound exceeds the
        # balance, so the first must settle before the check — and the
        # exact balance then admits it.
        platform.submit_deferred("u", "MD", machine=node.name)
        assert platform.pending_settlements == 1  # first settled, second queued
        assert len(platform.receipts) == 1
        assert platform.receipts[0].charged == reference.charged

    def test_admission_error_leaves_queue_settled_and_balance_intact(self):
        platform = make_platform(all_methods()[3])
        platform.grant("u", 5.0)
        with pytest.raises(AdmissionError):
            platform.submit_deferred("u", "MD")
        assert platform.pending_settlements == 0
        assert platform.ledger.get("u").balance == 5.0

    def test_immediate_submit_settles_users_pending_first(self):
        platform = make_platform(all_methods()[3])
        platform.grant("u", 1e6)
        platform.submit_deferred("u", "Cholesky")
        receipt = platform.submit("u", "Pagerank")
        # The deferred Cholesky receipt must have been settled (and
        # therefore appended) before the immediate Pagerank one.
        assert [r.function for r in platform.receipts] == ["Cholesky", "Pagerank"]
        assert platform.pending_settlements == 0
        assert receipt.balance_after == platform.ledger.get("u").balance

    def test_settle_unknown_user_is_noop(self):
        platform = make_platform(all_methods()[3])
        assert platform.settle("ghost") == []

    def test_machine_registered_after_first_deferral_still_prices(self):
        """The settlement queue must see the live machine catalogue,
        not a snapshot taken at the user's first deferred submission."""
        platform = GreenAccess(method=all_methods()[3])
        first, second = CPU_EXPERIMENT_NODES[:2]
        platform.register_machine(
            first, pricing_for_node(first, CPU_EXPERIMENT_YEAR, 400.0)
        )
        platform.grant("u", 1e7)
        platform.submit_deferred("u", "Cholesky", machine=first.name)
        platform.register_machine(
            second, pricing_for_node(second, CPU_EXPERIMENT_YEAR, 400.0)
        )
        platform.submit_deferred("u", "Cholesky", machine=second.name)
        receipts = platform.settle("u")
        assert [r.machine for r in receipts] == [first.name, second.name]
        assert all(r.charged > 0 for r in receipts)

    def test_overdraft_at_settlement_keeps_unredeemed_entries(self):
        """A measured charge overdrawing the balance mid-settlement must
        not lose receipts of debited entries nor drop later charges."""
        from repro.accounting.allocation import AllocationExhausted

        platform = make_platform(all_methods()[3])
        probe = make_platform(all_methods()[3])
        probe.grant("u", 1e9)
        charge = probe.submit("u", "MD", machine="Desktop").charged
        # Covers the first measured charge (and each estimate) but not
        # both; estimates are below the measured charge for this app, so
        # both submissions pass admission optimistically.
        estimate = probe.receipts[0].estimated_cost
        assert estimate < charge
        platform.grant("u", charge + estimate + (charge - estimate) / 2)
        platform.submit_deferred("u", "MD", machine="Desktop")
        platform.submit_deferred("u", "MD", machine="Desktop")
        assert platform.pending_settlements == 2
        with pytest.raises(AllocationExhausted):
            platform.settle("u")
        # First entry debited and receipted; second re-queued, not lost.
        assert len(platform.receipts) == 1
        assert platform.receipts[0].charged == charge
        assert platform.pending_settlements == 1
        platform.grant("u", charge)
        receipts = platform.settle("u")
        # The second invocation's measured energy differs slightly (the
        # monitor's power-model fit evolves), hence approx.
        assert len(receipts) == 1
        assert receipts[0].charged == pytest.approx(charge, rel=0.01)
