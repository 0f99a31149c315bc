"""The tiered-fleet differential harness.

Everything the tiered scenario pack promises, proven in one place:

* the scenario itself (skewed core counts, per-tier slot caps, name
  round-trip for straggler knobs);
* the straggler model (pure, seed-deterministic, chunk- and
  order-invariant — hypothesis properties over the hash streams);
* the engine (all five accounting methods over the skewed fleet with
  stragglers: bit-identical to the per-record seed loop, conservation
  invariants, slot caps actually enforced *and* binding);
* the sweep (identical seeds give identical outcomes across a spawn
  process boundary);
* the fairness report (per-user charge intensity grouped by dominant
  tier, bounded spread under every method).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accounting.methods import all_methods, method_by_name
from repro.experiments._simulation import scenario, workload
from repro.reporting import format_tier_fairness, format_tier_metrics
from repro.sim.engine import MultiClusterSimulator
from repro.sim.metrics import tier_fairness, tier_metrics
from repro.sim.policies import LargestFirstPolicy
from repro.sim.scenarios import (
    DEFAULT_STRAGGLER_FRAC,
    DEFAULT_STRAGGLER_SIGMA,
    TIER_CONCURRENCY_LIMITS,
    TIER_ORDER,
    TIERED_SCENARIO,
    is_tiered_scenario,
    parse_tiered_scenario,
    tiered_scenario_name,
)
from repro.sim.sweep import SweepRunner, SweepTask
from repro.sim.workload import (
    PatelWorkloadGenerator,
    StragglerConfig,
    StreamingWorkload,
    Workload,
    WorkloadConfig,
    apply_stragglers,
    inject_stragglers,
    straggle_stream,
    straggler_factors,
    straggler_mask,
)
from seed_oracle import (
    MachineView,
    array_select,
    assert_results_identical,
    seed_engine_run,
)

METHOD_NAMES = tuple(m.name for m in all_methods())

SWEEP_SCALE = 120
SWEEP_SEED = 3


# ---------------------------------------------------------------------------
# Scenario pack
# ---------------------------------------------------------------------------


class TestTieredScenario:
    def test_tier_order_matches_policy_default(self):
        assert TIER_ORDER == LargestFirstPolicy.DEFAULT_ORDER

    def test_fleet_shape(self, tiered_machines):
        # Insertion order is the policy's preference order.
        assert tuple(tiered_machines) == TIER_ORDER
        cores = {n: m.total_cores for n, m in tiered_machines.items()}
        # Skewed capacity: many slow cores, few fast ones.
        assert cores == {"Small": 384, "Medium": 288, "Large": 240}
        caps = {
            n: m.max_concurrent_jobs for n, m in tiered_machines.items()
        }
        assert caps == TIER_CONCURRENCY_LIMITS
        assert caps["Large"] == 6 and caps["Medium"] == 16
        assert caps["Small"] is None
        # The fast tiers really are faster per core, at every memory
        # intensity in range.
        for intensity in (0.0, 0.5, 1.0):
            assert (
                tiered_machines["Large"].perf.runtime_scale(intensity)
                < tiered_machines["Medium"].perf.runtime_scale(intensity)
                < tiered_machines["Small"].perf.runtime_scale(intensity)
            )

    def test_scenario_name_round_trip(self):
        assert tiered_scenario_name() == TIERED_SCENARIO
        assert parse_tiered_scenario(TIERED_SCENARIO) == (
            DEFAULT_STRAGGLER_FRAC,
            DEFAULT_STRAGGLER_SIGMA,
        )
        name = tiered_scenario_name(0.25, 1.75)
        assert is_tiered_scenario(name)
        assert name != TIERED_SCENARIO
        assert parse_tiered_scenario(name) == (0.25, 1.75)

    @pytest.mark.parametrize(
        "bad",
        ["baseline", "tiered:frac", "tiered:cheese=1.0", "low-carbon"],
    )
    def test_scenario_name_rejects(self, bad):
        with pytest.raises(KeyError):
            parse_tiered_scenario(bad)

    def test_registered_with_experiments(self):
        machines = dict(scenario(TIERED_SCENARIO, seed=0))
        assert tuple(machines) == TIER_ORDER
        wl = workload(TIERED_SCENARIO, 60, seed=0)
        assert len(wl.jobs) >= 60
        # The registered workload really is straggler-inflated: knobs
        # come from the name, seed from the workload seed.
        ids = np.fromiter(
            (j.job_id for j in wl.jobs), dtype=np.int64, count=len(wl.jobs)
        )
        cfg = StragglerConfig(
            frac=DEFAULT_STRAGGLER_FRAC,
            sigma=DEFAULT_STRAGGLER_SIGMA,
            seed=0,
        )
        assert straggler_mask(ids, cfg).any()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StragglerConfig(frac=-0.1)
        with pytest.raises(ValueError):
            StragglerConfig(frac=1.5)
        with pytest.raises(ValueError):
            StragglerConfig(sigma=-1.0)
        with pytest.raises(ValueError):
            StragglerConfig(scale=0.0)


# ---------------------------------------------------------------------------
# Straggler model: hypothesis properties over the pure hash streams
# ---------------------------------------------------------------------------

ids_strategy = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1),
    min_size=1,
    max_size=300,
    unique=True,
)

config_strategy = st.builds(
    StragglerConfig,
    frac=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    sigma=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    scale=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestStragglerProperties:
    @given(ids=ids_strategy, config=config_strategy)
    @settings(max_examples=60, deadline=None)
    def test_pure_and_order_invariant(self, ids, config):
        arr = np.asarray(ids, dtype=np.int64)
        a = straggler_factors(arr, config)
        b = straggler_factors(arr, config)
        assert np.array_equal(a, b)
        # Per-element purity: any permutation permutes the factors.
        rev = straggler_factors(arr[::-1], config)
        assert np.array_equal(rev, a[::-1])
        # A straggler only ever gets slower.
        assert (a >= 1.0).all()
        assert np.array_equal(straggler_mask(arr, config), a > 1.0)

    @given(
        ids=ids_strategy,
        config=config_strategy,
        split=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_factors_chunk_invariant(self, ids, config, split):
        arr = np.asarray(ids, dtype=np.int64)
        cut = min(split, len(arr))
        whole = straggler_factors(arr, config)
        parts = np.concatenate(
            [
                straggler_factors(arr[:cut], config),
                straggler_factors(arr[cut:], config),
            ]
        )
        assert np.array_equal(whole, parts)

    @given(
        s1=st.integers(min_value=0, max_value=2**31 - 1),
        s2=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_distinct_seeds_distinct_outcomes(self, s1, s2):
        assume(s1 != s2)
        ids = np.arange(2_000, dtype=np.int64)
        a = straggler_factors(ids, StragglerConfig(seed=s1))
        b = straggler_factors(ids, StragglerConfig(seed=s2))
        assert not np.array_equal(a, b)

    def test_frac_zero_is_identity(self, tiered_workload):
        cfg = StragglerConfig(frac=0.0, seed=7)
        assert inject_stragglers(tiered_workload, cfg).jobs == list(
            tiered_workload.jobs
        )

    def test_apply_preserves_ids_and_submit_order(self, tiered_workload):
        cfg = StragglerConfig(frac=0.5, sigma=2.0, seed=11)
        out = apply_stragglers(tiered_workload.jobs, cfg)
        assert [j.job_id for j in out] == [
            j.job_id for j in tiered_workload.jobs
        ]
        assert [j.submit_s for j in out] == [
            j.submit_s for j in tiered_workload.jobs
        ]
        assert [j.cores for j in out] == [
            j.cores for j in tiered_workload.jobs
        ]
        # Energy scales with runtime (power held constant).
        for before, after in zip(tiered_workload.jobs, out):
            for m, rt in before.runtime_s.items():
                factor = after.runtime_s[m] / rt
                assert after.energy_j[m] == pytest.approx(
                    before.energy_j[m] * factor, rel=1e-12
                )


# ---------------------------------------------------------------------------
# Satellite: injection is chunk-size invariant end to end
# ---------------------------------------------------------------------------


class TestChunkSizeInvariance:
    @given(chunk=st.integers(min_value=1, max_value=311))
    @settings(max_examples=25, deadline=None)
    def test_injection_chunk_size_invariant(self, chunk):
        wl = workload(TIERED_SCENARIO, 80, seed=5)
        # Re-inject over the raw ids with fresh knobs so the property is
        # not about the fixture's specific seed.
        cfg = StragglerConfig(frac=0.2, sigma=1.5, seed=9)
        jobs = wl.jobs
        whole = apply_stragglers(jobs, cfg)
        chunked = [
            job
            for i in range(0, len(jobs), chunk)
            for job in apply_stragglers(jobs[i : i + chunk], cfg)
        ]
        assert len(whole) == len(chunked)
        for a, b in zip(whole, chunked):
            assert a.job_id == b.job_id
            assert a.runtime_s == b.runtime_s
            assert a.energy_j == b.energy_j

    def test_streamed_injection_matches_in_memory_run(
        self, tiered_machines, tiered_straggler_config
    ):
        """straggle_stream() over chunks == inject_stragglers() whole,

        all the way through the engine: the streamed run's outcome
        blocks concatenate to the in-memory run's table bit-for-bit.
        """
        cfg = WorkloadConfig(
            n_base_jobs=150,
            n_users=25,
            arrival_window_s=2 * 24 * 3600.0,
            seed=4,
        )
        raw = PatelWorkloadGenerator(tiered_machines, cfg).generate()
        jobs = sorted(raw.jobs, key=lambda j: j.submit_s)

        def factory():
            return (
                jobs[i : i + 40] for i in range(0, len(jobs), 40)
            )

        stream = straggle_stream(
            StreamingWorkload(
                chunk_factory=factory,
                machines=list(raw.machines),
                source="<tiered test stream>",
            ),
            tiered_straggler_config,
        )
        inflated = inject_stragglers(
            Workload(
                jobs=jobs, config=raw.config, machines=list(raw.machines)
            ),
            tiered_straggler_config,
        )
        method = method_by_name("EBA")
        policy = LargestFirstPolicy()
        streamed = MultiClusterSimulator(
            tiered_machines, method, policy
        ).run(stream)
        in_memory = MultiClusterSimulator(
            tiered_machines, method, policy
        ).run(inflated)
        assert_results_identical(streamed, in_memory)


# ---------------------------------------------------------------------------
# The differential harness: five methods over the skewed fleet
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=METHOD_NAMES)
def method_run(request, tiered_machines, tiered_workload):
    """(method name, engine result, seed-loop result) per accounting method."""
    method = method_by_name(request.param)
    result = MultiClusterSimulator(
        tiered_machines, method, LargestFirstPolicy()
    ).run(tiered_workload)
    reference = seed_engine_run(
        tiered_machines, method, LargestFirstPolicy(), tiered_workload
    )
    return request.param, result, reference


class TestDifferentialHarness:
    def test_engine_matches_seed_loop(self, method_run):
        _, result, reference = method_run
        assert_results_identical(result, reference)

    def test_conservation(self, method_run, tiered_workload):
        _, result, _ = method_run
        table = result.table
        # Every job accounted for exactly once.
        assert result.n_jobs == len(tiered_workload.jobs)
        assert np.array_equal(
            np.sort(table.job_id),
            np.sort(
                np.fromiter(
                    (j.job_id for j in tiered_workload.jobs),
                    dtype=np.int64,
                    count=len(tiered_workload.jobs),
                )
            ),
        )
        # Causality and non-negative charges.
        assert (table.start_s >= table.submit_s).all()
        assert (table.end_s >= table.start_s).all()
        assert (table.cost >= 0.0).all()
        assert (table.energy_j > 0.0).all()
        # The ledger balances: per-user settlements sum to the total.
        balances = result.user_balances()
        assert sum(balances.values()) == pytest.approx(
            result.total_cost(), rel=1e-9
        )

    def test_schedule_is_method_independent(
        self, method_run, tiered_machines, tiered_workload
    ):
        """LargestFirst never consults charges, so the *schedule* (and
        with it energy, carbon, and requested work) is identical under
        every accounting method — only the cost column may move."""
        _, result, _ = method_run
        method = method_by_name("EBA")
        baseline = MultiClusterSimulator(
            tiered_machines, method, LargestFirstPolicy()
        ).run(tiered_workload)
        for field in (
            "job_id",
            "machine_code",
            "start_s",
            "end_s",
            "energy_j",
            "work_core_hours",
            "operational_carbon_g",
            "attributed_carbon_g",
        ):
            assert np.array_equal(
                getattr(result.table, field), getattr(baseline.table, field)
            ), f"column {field} differs from the EBA schedule"

    def test_cba_charge_is_total_carbon(self, tiered_machines, tiered_workload):
        """CBA charges exactly the attributed (operational + embodied)
        carbon — the two columns are the same float expression."""
        result = MultiClusterSimulator(
            tiered_machines, method_by_name("CBA"), LargestFirstPolicy()
        ).run(tiered_workload)
        assert np.array_equal(
            result.table.cost, result.table.attributed_carbon_g
        )

    def test_slot_cap_enforced_and_binding(self, method_run, tiered_machines):
        _, result, _ = method_run
        for tier, cap in TIER_CONCURRENCY_LIMITS.items():
            if cap is None:
                continue
            code = result.machines.index(tier)
            on_tier = result.table.machine_code == code
            starts = result.table.start_s[on_tier]
            ends = result.table.end_s[on_tier]
            # Sweep-line: ends settle before starts at equal times (a
            # finishing job frees its slot to a same-instant start).
            events = sorted(
                [(t, 1) for t in starts] + [(t, -1) for t in ends],
                key=lambda e: (e[0], e[1]),
            )
            live = peak = 0
            for _, delta in events:
                live += delta
                peak = max(peak, live)
            assert peak <= cap, f"{tier} exceeded its slot cap"
            if tier == "Large":
                # The contended workload must actually saturate the
                # Large tier, or the cap assertions are vacuous.
                assert peak == cap


# ---------------------------------------------------------------------------
# Sweep: identical seeds, identical outcomes across process boundaries
# ---------------------------------------------------------------------------


class TestSpawnSweepDeterminism:
    def test_spawn_sweep_bit_identical_to_serial(self):
        tasks = [
            SweepTask(
                scenario=TIERED_SCENARIO,
                policy="LargestFirst",
                method=name,
                scale=SWEEP_SCALE,
                seed=SWEEP_SEED,
            )
            for name in METHOD_NAMES
        ]
        runner = SweepRunner(
            scenario_fn=scenario,
            workload_fn=workload,
            method_fn=method_by_name,
            workers=2,
            mp_context="spawn",
        )
        spawned = runner.run(tasks)
        serial = SweepRunner(
            scenario_fn=scenario,
            workload_fn=workload,
            method_fn=method_by_name,
        )
        for task in tasks:
            assert_results_identical(spawned[task], serial.run_task(task))

    def test_straggler_knobs_change_the_outcome(self):
        base = SweepTask(
            scenario=TIERED_SCENARIO,
            policy="LargestFirst",
            method="EBA",
            scale=SWEEP_SCALE,
            seed=SWEEP_SEED,
        )
        hot = SweepTask(
            scenario=tiered_scenario_name(0.4, 2.0),
            policy="LargestFirst",
            method="EBA",
            scale=SWEEP_SCALE,
            seed=SWEEP_SEED,
        )
        runner = SweepRunner(
            scenario_fn=scenario,
            workload_fn=workload,
            method_fn=method_by_name,
        )
        a, b = runner.run_task(base), runner.run_task(hot)
        assert a.makespan_s != b.makespan_s


# ---------------------------------------------------------------------------
# LargestFirstPolicy unit behaviour
# ---------------------------------------------------------------------------


def _view(machine: str, wait: float) -> MachineView:
    return MachineView(
        machine=machine,
        runtime_s=100.0,
        energy_j=1e6,
        queue_wait_s=wait,
        cost=1.0,
    )


class TestLargestFirstPolicy:
    def test_free_largest_tier_wins(self):
        policy = LargestFirstPolicy()
        views = [_view("Small", 0.0), _view("Medium", 0.0), _view("Large", 0.0)]
        assert array_select(policy, views) == "Large"

    def test_spills_down_tier_when_saturated(self):
        policy = LargestFirstPolicy()
        views = [_view("Small", 0.0), _view("Medium", 0.0), _view("Large", 60.0)]
        assert array_select(policy, views) == "Medium"
        views = [_view("Small", 0.0), _view("Medium", 30.0), _view("Large", 60.0)]
        assert array_select(policy, views) == "Small"

    def test_all_busy_queues_on_least_backlogged(self):
        policy = LargestFirstPolicy()
        views = [_view("Small", 10.0), _view("Medium", 5.0), _view("Large", 60.0)]
        assert array_select(policy, views) == "Medium"

    def test_tie_prefers_larger_tier(self):
        policy = LargestFirstPolicy()
        views = [_view("Small", 10.0), _view("Medium", 10.0), _view("Large", 10.0)]
        assert array_select(policy, views) == "Large"

    def test_unknown_machines_sort_last(self):
        policy = LargestFirstPolicy()
        views = [_view("Theta", 0.0), _view("Small", 0.0)]
        assert array_select(policy, views) == "Small"
        views = [_view("Theta", 0.0), _view("Small", 10.0)]
        assert array_select(policy, views) == "Theta"

    def test_custom_order(self):
        policy = LargestFirstPolicy(order=("Small", "Large"))
        views = [_view("Small", 0.0), _view("Large", 0.0)]
        assert array_select(policy, views) == "Small"


# ---------------------------------------------------------------------------
# Tier metrics and the fairness report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def showcase_run(tiered_machines, tiered_workload):
    return MultiClusterSimulator(
        tiered_machines, method_by_name("EBA"), LargestFirstPolicy()
    ).run(tiered_workload)


class TestTierReports:
    def test_tier_metrics_well_formed(
        self, showcase_run, tiered_machines, tiered_straggler_config
    ):
        rows = tier_metrics(
            showcase_run, tiered_machines, tiered_straggler_config
        )
        assert [r.machine for r in rows] == list(tiered_machines)
        assert sum(r.jobs for r in rows) == showcase_run.n_jobs
        ids = showcase_run.table.job_id
        expected_stragglers = int(
            straggler_mask(ids, tiered_straggler_config).sum()
        )
        assert sum(r.straggler_jobs for r in rows) == expected_stragglers
        assert expected_stragglers > 0
        assert sum(1 for r in rows if r.bottleneck) == 1
        for row in rows:
            assert 0.0 <= row.utilization <= 1.0
            assert row.straggler_jobs <= row.jobs
            assert row.straggler_core_hours <= row.core_hours + 1e-9
            assert row.mean_queue_wait_h >= 0.0

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_fairness_report_bounded_spread(
        self, method, tiered_machines, tiered_workload
    ):
        """Per-user charge per core-hour of *requested* work stays in a
        narrow band across tiers under every method: no tier's users
        pay wildly more for the same work than another's."""
        result = MultiClusterSimulator(
            tiered_machines, method_by_name(method), LargestFirstPolicy()
        ).run(tiered_workload)
        rows = tier_fairness(result)
        assert rows, "fairness report is empty"
        users = sum(r.users for r in rows)
        assert users == len(np.unique(result.table.user))
        for row in rows:
            assert (
                row.min_cost_per_core_hour
                <= row.mean_cost_per_core_hour
                <= row.max_cost_per_core_hour
            )
            assert row.min_cost_per_core_hour >= 0.0
        means = [r.mean_cost_per_core_hour for r in rows]
        assert max(means) / min(means) < 4.0, (
            f"{method}: cross-tier charge intensity spread too wide: {means}"
        )

    def test_report_rendering(
        self, showcase_run, tiered_machines, tiered_straggler_config
    ):
        metrics_text = format_tier_metrics(
            tier_metrics(showcase_run, tiered_machines, tiered_straggler_config)
        )
        fairness_text = format_tier_fairness(tier_fairness(showcase_run))
        for tier in TIER_ORDER:
            assert tier in metrics_text
            assert tier in fairness_text
        assert "<--" in metrics_text  # the bottleneck marker
