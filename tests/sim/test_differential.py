"""The differential harness: every simulator against its seed oracle.

Each case draws a fleet and a hand-built job list (``strategies``) and
compares a run with its reference in ``seed_oracle``, column for
column, through :func:`assert_results_identical`:

* the engine against ``seed_engine_run``;
* migration against ``seed_migration_run``, with random ``min_saving``,
  re-evaluation period and overhead;
* shifting against ``seed_engine_run`` on the planner-shifted jobs;
* migration on a workload streamed in chunks of random size against
  the same run in memory.

Each axis runs a quarter of the loaded hypothesis profile's examples:
the derandomized default profile keeps tier-1 short, and
``HYPOTHESIS_PROFILE=long`` runs the long profile (see ``conftest.py``).
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.accounting.methods import all_methods
from repro.sim.engine import MultiClusterSimulator
from repro.sim.job import Job
from repro.sim.migration import MigratingSimulator
from repro.sim.policies import LargestFirstPolicy, standard_policies
from repro.sim.shifting import ShiftingSimulator
from repro.sim.workload import StreamingWorkload, Workload, WorkloadConfig
from seed_oracle import assert_results_identical, seed_engine_run, seed_migration_run
from strategies import SCENARIOS, worlds

AXIS = settings(
    max_examples=max(1, settings.default.max_examples // 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

METHODS = st.sampled_from([m.name for m in all_methods()])


def _method(name):
    """A fresh method instance (probe kernels keep per-instance memos)."""
    return next(m for m in all_methods() if m.name == name)


def _policies(fleet):
    return [*standard_policies(list(fleet)), LargestFirstPolicy()]


def _workload(jobs, fleet):
    return Workload(jobs=jobs, config=WorkloadConfig(), machines=list(fleet))


@AXIS
@given(world=worlds(), method=METHODS, pick=st.integers(0, 100))
def test_engine_matches_seed(world, method, pick):
    fleet, jobs = world
    policies = _policies(fleet)
    policy = policies[pick % len(policies)]
    workload = _workload(jobs, fleet)
    result = MultiClusterSimulator(fleet, _method(method), policy).run(workload)
    reference = seed_engine_run(fleet, _method(method), policy, workload)
    assert_results_identical(result, reference)


def _tied_targets():
    """Jobs pinned to a slow machine, whose two move targets cost the
    same to the last bit under Runtime accounting: each must move to
    the first of the two in its own eligibility order."""
    fleet = {name: SCENARIOS[0][name] for name in ("Theta", "IC", "FASTER")}
    jobs = [
        Job(
            job_id=i,
            user=i,
            cores=4,
            submit_s=0.0,
            runtime_s={"Theta": 36000.0, "IC": 7200.0, "FASTER": 7200.0},
            energy_j={"Theta": 1e6, "IC": 1e6, "FASTER": 1e6},
        )
        for i in range(3)
    ]
    return fleet, jobs


@AXIS
@given(
    world=worlds(),
    method=METHODS,
    pick=st.integers(0, 100),
    min_saving=st.floats(0.0, 0.5),
    every=st.floats(600.0, 4 * 3600.0),
    overhead=st.one_of(st.just(0.0), st.floats(0.0, 1800.0)),
)
# pick=5 is FixedMachinePolicy("Theta"), the first single-machine policy.
@example(
    world=_tied_targets(),
    method="Runtime",
    pick=5,
    min_saving=0.1,
    every=3600.0,
    overhead=300.0,
)
def test_migration_matches_seed(world, method, pick, min_saving, every, overhead):
    fleet, jobs = world
    policies = _policies(fleet)
    policy = policies[pick % len(policies)]
    workload = _workload(jobs, fleet)
    knobs = dict(reevaluate_every_s=every, overhead_s=overhead, min_saving=min_saving)
    result = MigratingSimulator(fleet, _method(method), policy, **knobs).run(workload)
    reference = seed_migration_run(fleet, _method(method), policy, workload, **knobs)
    assert_results_identical(result, reference)


@AXIS
@given(
    world=worlds(),
    method=METHODS,
    pick=st.integers(0, 100),
    max_delay_h=st.integers(0, 12),
    patience=st.floats(0.0, 0.3),
)
def test_shifting_matches_seed_on_shifted_jobs(
    world, method, pick, max_delay_h, patience
):
    fleet, jobs = world
    policies = _policies(fleet)
    policy = policies[pick % len(policies)]
    sim = ShiftingSimulator(
        fleet, _method(method), policy, max_delay_h=max_delay_h, patience=patience
    )
    # A job no fleet machine can run keeps its submit time (and is
    # discarded by both runs).
    shifted = [
        dataclasses.replace(
            job, submit_s=job.submit_s + sim.planner.plan(job, job.submit_s).delay_s
        )
        if any(name in fleet for name in job.runtime_s)
        else job
        for job in jobs
    ]
    result = sim.run(_workload(jobs, fleet))
    reference = seed_engine_run(
        fleet, _method(method), policy, _workload(shifted, fleet)
    )
    assert_results_identical(result, reference)


@AXIS
@given(
    world=worlds(),
    method=METHODS,
    pick=st.integers(0, 100),
    chunk=st.integers(1, 60),
    every=st.floats(600.0, 4 * 3600.0),
)
def test_streamed_migration_matches_in_memory(world, method, pick, chunk, every):
    fleet, jobs = world
    jobs = sorted(jobs, key=lambda job: job.submit_s)
    policies = _policies(fleet)
    policy = policies[pick % len(policies)]
    chunks = [jobs[i : i + chunk] for i in range(0, len(jobs), chunk)]
    stream = StreamingWorkload(lambda: iter(chunks), machines=list(fleet))

    def run(workload):
        sim = MigratingSimulator(
            fleet, _method(method), policy, reevaluate_every_s=every, min_saving=0.05
        )
        return sim.run(workload)

    assert_results_identical(run(stream), run(_workload(jobs, fleet)))
