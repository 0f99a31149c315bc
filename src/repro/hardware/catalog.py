"""The paper's machine catalog.

Three machine families appear in the paper:

* **CPU experiment nodes** (§4.2.1, Tables 1 and 4): Desktop (i7-10700),
  Cascade Lake (2x Xeon 6248R), Ice Lake (2x Xeon Platinum 8380) and
  Zen3 (2x EPYC 7763).
* **GPU experiment nodes** (§4.2.2, Tables 2 and 3): P100 / V100 / A100
  configurations of 1-8 GPUs on Grid'5000.
* **Simulation machines** (§5.1, Table 5): TAMU FASTER, Desktop, the
  Institutional Cluster (IC), and ALCF Theta.

Calibration
-----------
The paper reports *derived* quantities (normalized costs, carbon rates,
operational/embodied milligrams).  Where the underlying inputs are not
printed, we invert the published tables to recover them and record the
result here as named constants:

* Node embodied-carbon totals are recovered from Table 4's accelerated-
  depreciation column via ``C = rate * 8760 / (0.4 * 0.6**age)``.
* Per-run grid carbon intensities are recovered from the operational-
  carbon entries (``I = op_carbon / kWh``).  Table 1 and Table 4 were
  evidently measured at different times (their implied intensities
  differ), so each experiment carries its own intensity snapshot.
* GPU configuration carbon rates are taken directly from Table 2 (the
  paper computed them with SCARIF [25]); :mod:`repro.carbon.scarif`
  regenerates them approximately from board specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.node import CPUSpec, GPUSpec, GPUNodeSpec, NodeSpec

#: Calendar year at which the Section 4 hardware experiments were run.
#: Table 4 prints machine ages of 3/4/2/1 years; with deployment years
#: 2021/2020/2022/2023 this puts the experiments in 2024.
CPU_EXPERIMENT_YEAR: int = 2024

#: Calendar year at which the GPU experiments were run (Table 2 lists
#: deployment years 2018/2019/2021 for P100/V100/A100).
GPU_EXPERIMENT_YEAR: int = 2024

#: Simulation start (Section 5.1: "assuming the simulation starts in
#: January 2023").
SIMULATION_YEAR: int = 2023


# ---------------------------------------------------------------------------
# CPU models
# ---------------------------------------------------------------------------
# ``peak_gflops`` holds the PassMark-style per-socket rating the paper's
# ``Peak`` baseline charges with [39]; the per-thread ratios between these
# numbers are what Table 1's Peak column encodes.
I7_10700 = CPUSpec(
    model="Intel Core i7-10700",
    cores=16,  # logical CPUs, as counted in Table 5
    tdp_watts=65.0,
    base_clock_ghz=2.9,
    peak_gflops=16 * 2.880,
    year=2020,
)

XEON_6248R = CPUSpec(
    model="Intel Xeon 6248R",
    cores=24,
    tdp_watts=205.0,
    base_clock_ghz=3.0,
    peak_gflops=24 * 2.268,
    year=2020,
)

XEON_PLATINUM_8380 = CPUSpec(
    model="Intel Xeon Platinum 8380",
    cores=40,
    tdp_watts=270.0,
    base_clock_ghz=2.3,
    peak_gflops=40 * 2.425,
    year=2021,
)

EPYC_7763 = CPUSpec(
    model="AMD EPYC 7763",
    cores=64,
    tdp_watts=280.0,
    base_clock_ghz=2.45,
    peak_gflops=64 * 2.528,
    year=2021,
)

XEON_8352Y = CPUSpec(
    model="Intel Xeon 8352Y",
    cores=32,
    tdp_watts=205.0,
    base_clock_ghz=2.2,
    peak_gflops=32 * 2.20,
    year=2021,
)

KNL_7230 = CPUSpec(
    model="Intel KNL 7230",
    cores=64,
    tdp_watts=215.0,
    base_clock_ghz=1.3,
    peak_gflops=64 * 0.85,
    year=2016,
)


# ---------------------------------------------------------------------------
# CPU experiment nodes (Tables 1 and 4)
# ---------------------------------------------------------------------------
# Embodied-carbon totals recovered from Table 4's accelerated column
# (see module docstring). Values in gCO2e per node.
DESKTOP_NODE = NodeSpec(
    name="Desktop",
    cpu=I7_10700,
    sockets=1,
    year_deployed=2021,
    idle_power_watts=6.51,
    embodied_carbon_g=84_200.0,
    dram_gb=32,
)

CASCADE_LAKE_NODE = NodeSpec(
    name="Cascade Lake",
    cpu=XEON_6248R,
    sockets=2,
    year_deployed=2020,
    idle_power_watts=136.0,
    embodied_carbon_g=234_200.0,
    dram_gb=192,
)

ICE_LAKE_NODE = NodeSpec(
    name="Ice Lake",
    cpu=XEON_PLATINUM_8380,
    sockets=2,
    year_deployed=2022,
    idle_power_watts=155.0,
    embodied_carbon_g=635_100.0,
    dram_gb=256,
)

ZEN3_NODE = NodeSpec(
    name="Zen3",
    cpu=EPYC_7763,
    sockets=2,
    year_deployed=2023,
    idle_power_watts=150.0,
    embodied_carbon_g=680_000.0,
    dram_gb=256,
)

#: The four Section 4.2.1 nodes, in the order Tables 1 and 4 print them.
CPU_EXPERIMENT_NODES: tuple[NodeSpec, ...] = (
    DESKTOP_NODE,
    CASCADE_LAKE_NODE,
    ICE_LAKE_NODE,
    ZEN3_NODE,
)

#: Grid carbon intensity (gCO2e/kWh) at the time of the Table 1 cost-
#: comparison run, recovered from Table 1's CBA column.
TABLE1_CARBON_INTENSITY: dict[str, float] = {
    "Desktop": 413.0,
    "Cascade Lake": 296.0,
    "Ice Lake": 358.0,
    "Zen3": 322.0,
}

#: Grid carbon intensity at the time of the Table 4 embodied-carbon run,
#: recovered from Table 4's operational column.
TABLE4_CARBON_INTENSITY: dict[str, float] = {
    "Desktop": 413.0,
    "Cascade Lake": 282.0,
    "Ice Lake": 164.0,
    "Zen3": 257.0,
}

#: Cores the green-ACCESS runtime provisions for the Cholesky function on
#: each node (the monitor's disaggregation charges the TDP share of these
#: cores in Eq. (1)).  Recovered from Table 1's EBA column.
CHOLESKY_PROVISIONED_CORES: dict[str, int] = {
    "Desktop": 8,
    "Cascade Lake": 8,
    "Ice Lake": 6,
    "Zen3": 7,
}


# ---------------------------------------------------------------------------
# GPU experiment nodes (Tables 2 and 3)
# ---------------------------------------------------------------------------
P100 = GPUSpec(model="P100", year=2018, peak_gflops=6_700.0, tdp_watts=250.0)
V100 = GPUSpec(model="V100", year=2019, peak_gflops=14_000.0, tdp_watts=250.0)
A100 = GPUSpec(model="A100", year=2021, peak_gflops=18_000.0, tdp_watts=400.0)

#: Average grid carbon intensity of the Grid'5000 sites (Table 2 caption).
GPU_CARBON_INTENSITY: float = 53.0

#: Embodied carbon rate (gCO2e per hour) per GPU configuration, directly
#: from Table 2 (computed there with SCARIF).  Keys are (model, count).
GPU_CARBON_RATE: dict[tuple[str, int], float] = {
    ("P100", 1): 8.5,
    ("P100", 2): 9.1,
    ("V100", 1): 19.0,
    ("V100", 2): 20.0,
    ("V100", 4): 23.0,
    ("V100", 8): 28.0,
    ("A100", 1): 87.0,
    ("A100", 2): 93.0,
    ("A100", 4): 106.0,
    ("A100", 8): 131.0,
}


def gpu_experiment_nodes() -> list[GPUNodeSpec]:
    """All GPU configurations of Table 3, in table order."""
    by_model = {"P100": P100, "V100": V100, "A100": A100}
    nodes = []
    for (model, count), _rate in GPU_CARBON_RATE.items():
        nodes.append(GPUNodeSpec(gpu=by_model[model], count=count))
    return nodes


# ---------------------------------------------------------------------------
# Simulation machines (Table 5)
# ---------------------------------------------------------------------------
# Embodied totals recovered from Table 5's carbon-rate column evaluated at
# the 2023 simulation year (ages 0/1/2/6).
FASTER_NODE = NodeSpec(
    name="FASTER",
    cpu=XEON_8352Y,
    sockets=2,
    year_deployed=2023,
    idle_power_watts=205.0,
    embodied_carbon_g=2_303_880.0,
    node_count=16,
    dram_gb=256,
)

SIM_DESKTOP_NODE = NodeSpec(
    name="Desktop",
    cpu=I7_10700,
    sockets=1,
    year_deployed=2022,
    idle_power_watts=6.51,
    embodied_carbon_g=445_300.0,
    node_count=1,
    dram_gb=32,
)

IC_NODE = NodeSpec(
    name="IC",
    cpu=XEON_6248R,
    sockets=2,
    year_deployed=2021,
    idle_power_watts=136.0,
    embodied_carbon_g=1_015_800.0,
    node_count=12,
    dram_gb=192,
)

THETA_NODE = NodeSpec(
    name="Theta",
    cpu=KNL_7230,
    sockets=1,
    year_deployed=2017,
    idle_power_watts=110.0,
    embodied_carbon_g=938_500.0,
    node_count=24,
    dram_gb=208,
)

#: The four Section 5 machines, in the order Table 5 prints them.
SIMULATION_MACHINES: tuple[NodeSpec, ...] = (
    FASTER_NODE,
    SIM_DESKTOP_NODE,
    IC_NODE,
    THETA_NODE,
)

#: Yearly-average grid carbon intensity (gCO2e/kWh) per simulation
#: machine (Table 5, last column).
SIMULATION_CARBON_INTENSITY: dict[str, float] = {
    "FASTER": 389.0,
    "Desktop": 454.0,
    "IC": 454.0,
    "Theta": 502.0,
}

#: Low-carbon scenario (§5.6): each machine is re-homed to a grid region
#: with high temporal variability (Fig. 7b).
LOW_CARBON_REGION: dict[str, str] = {
    "IC": "AU-SA",
    "FASTER": "CA-ON",
    "Desktop": "NO-NO2",
    "Theta": "DK-BHM",
}


# ---------------------------------------------------------------------------
# Catalog facade
# ---------------------------------------------------------------------------
@dataclass
class MachineCatalog:
    """Lookup facade over the paper's machines.

    ``MachineCatalog()`` loads every machine in the paper; experiments
    pull the subset they need by name.  A custom catalog can be built by
    passing explicit node lists, which the tests use to fabricate small
    fleets.
    """

    cpu_nodes: tuple[NodeSpec, ...] = CPU_EXPERIMENT_NODES
    sim_machines: tuple[NodeSpec, ...] = SIMULATION_MACHINES
    gpu_nodes: tuple[GPUNodeSpec, ...] = field(
        default_factory=lambda: tuple(gpu_experiment_nodes())
    )

    def cpu_node(self, name: str) -> NodeSpec:
        """Return the Section 4 CPU node called ``name``."""
        for node in self.cpu_nodes:
            if node.name == name:
                return node
        raise KeyError(f"unknown CPU node {name!r}")

    def gpu_config(self, model: str, count: int) -> GPUNodeSpec:
        """Return the GPU configuration ``model`` x ``count``."""
        for node in self.gpu_nodes:
            if node.gpu.model == model and node.count == count:
                return node
        raise KeyError(f"unknown GPU configuration {model!r} x{count}")

    @property
    def cpu_node_names(self) -> list[str]:
        return [n.name for n in self.cpu_nodes]


def cpu_experiment_nodes() -> list[NodeSpec]:
    """The four Section 4.2.1 CPU nodes (Desktop, Cascade Lake, Ice Lake,
    Zen3), in table order."""
    return list(CPU_EXPERIMENT_NODES)


def simulation_machines() -> list[NodeSpec]:
    """The four Section 5 machines (FASTER, Desktop, IC, Theta)."""
    return list(SIMULATION_MACHINES)
