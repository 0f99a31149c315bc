"""Multi-machine batch simulator (paper §5).

The paper modifies an existing batch simulator [22] to charge jobs under
EBA/CBA across four machines (Table 5), replaying a published per-job
energy dataset [40].  This package rebuilds that pipeline:

* :mod:`repro.sim.job` — the job model;
* :mod:`repro.sim.workload` — a statistical regeneration of the Patel
  et al. dataset (71,190 unique jobs, each repeated twice) with the
  paper's GMM + KNN cross-platform extrapolation (§5.2);
* :mod:`repro.sim.cluster` — per-machine FCFS queues with backfill and
  the one-running-job-per-user-per-cluster constraint;
* :mod:`repro.sim.events` — the shared event-scheduling core: one
  ``(time, kind, seq)`` calendar for every simulator and the indexed
  ready-queue behind the cluster scan;
* :mod:`repro.sim.policies` — the eight machine-selection policies
  (§5.3);
* :mod:`repro.sim.engine` — the event-driven simulation loop with
  vectorized batch pricing;
* :mod:`repro.sim.sweep` — the parallel (scenario x policy x method x
  seed) sweep engine;
* :mod:`repro.sim.metrics` — work/energy/carbon aggregation;
* :mod:`repro.sim.scenarios` — baseline (Table 5 grids) and low-carbon
  (§5.6) machine/grid configurations.
"""

from repro.sim.job import Job, JobOutcome
from repro.sim.workload import (
    WorkloadConfig,
    PatelWorkloadGenerator,
    StreamingWorkload,
    Workload,
)
from repro.sim.cluster import ClusterSim
from repro.sim.events import EventCalendar, ReadyQueue
from repro.sim.policies import (
    Policy,
    GreedyPolicy,
    EnergyPolicy,
    MixedPolicy,
    EFTPolicy,
    RuntimePolicy,
    FixedMachinePolicy,
    standard_policies,
)
from repro.sim.engine import MultiClusterSimulator, SimulationResult
from repro.sim.sweep import SweepRunner, SweepTask, sweep_grid
from repro.sim.metrics import PolicySummary, summarize
from repro.sim.scenarios import (
    SimMachine,
    baseline_scenario,
    low_carbon_scenario,
)
from repro.sim.shifting import (
    ShiftPlan,
    ShiftingSimulator,
    TemporalShiftPlanner,
)
from repro.sim.migration import MigratingSimulator
from repro.sim.swf import open_swf_stream, read_swf, write_swf

__all__ = [
    "Job",
    "JobOutcome",
    "WorkloadConfig",
    "PatelWorkloadGenerator",
    "StreamingWorkload",
    "Workload",
    "ClusterSim",
    "EventCalendar",
    "ReadyQueue",
    "Policy",
    "GreedyPolicy",
    "EnergyPolicy",
    "MixedPolicy",
    "EFTPolicy",
    "RuntimePolicy",
    "FixedMachinePolicy",
    "standard_policies",
    "MultiClusterSimulator",
    "SimulationResult",
    "SweepRunner",
    "SweepTask",
    "sweep_grid",
    "PolicySummary",
    "summarize",
    "SimMachine",
    "baseline_scenario",
    "low_carbon_scenario",
    "ShiftPlan",
    "ShiftingSimulator",
    "TemporalShiftPlanner",
    "MigratingSimulator",
    "open_swf_stream",
    "read_swf",
    "write_swf",
]
