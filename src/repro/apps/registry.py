"""Calibrated application profiles (Fig. 4, Table 1, Table 3).

A profile records what the green-ACCESS monitor measured for one
application on one machine: wall-clock runtime, attributed energy, and
the cores the runtime occupied.  Cholesky's CPU values are Table 1's
metrics columns verbatim; the other six applications carry profiles
consistent with Fig. 4's qualitative spread (different machines win on
different applications, and the fastest machine is frequently not the
most efficient).  GPU Cholesky profiles are Table 3's metrics columns.

Each profile also carries a counter signature so the FaaS monitor and
the GMM workload model can synthesize realistic per-process counters
for the application class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.hardware.counters import (
    BALANCED,
    COMPUTE_BOUND,
    MEMORY_BOUND,
    WorkloadSignature,
)


@dataclass(frozen=True)
class MachineRun:
    """Measured execution of one application on one machine."""

    runtime_s: float
    energy_j: float
    requested_cores: int = 8
    provisioned_cores: int = 8

    def __post_init__(self) -> None:
        if self.runtime_s <= 0:
            raise ValueError("runtime must be positive")
        if self.energy_j < 0:
            raise ValueError("energy cannot be negative")

    @property
    def mean_power_w(self) -> float:
        """Mean attributed power over the run."""
        return self.energy_j / self.runtime_s


@dataclass(frozen=True)
class AppProfile:
    """Cross-machine profile of one application."""

    name: str
    runs: dict[str, MachineRun]
    signature: WorkloadSignature = BALANCED

    def machines(self) -> list[str]:
        return list(self.runs)

    def run_on(self, machine: str) -> MachineRun:
        try:
            return self.runs[machine]
        except KeyError:
            raise KeyError(
                f"no profile of {self.name!r} on {machine!r}; "
                f"known: {sorted(self.runs)}"
            ) from None

    def fastest_machine(self) -> str:
        return min(self.runs, key=lambda m: self.runs[m].runtime_s)

    def most_efficient_machine(self) -> str:
        return min(self.runs, key=lambda m: self.runs[m].energy_j)


def _runs(
    desktop: tuple[float, float],
    cascade: tuple[float, float],
    icelake: tuple[float, float],
    zen3: tuple[float, float],
    provisioned: tuple[int, int, int, int] = (8, 8, 8, 8),
) -> dict[str, MachineRun]:
    names = ("Desktop", "Cascade Lake", "Ice Lake", "Zen3")
    pairs = (desktop, cascade, icelake, zen3)
    return {
        name: MachineRun(
            runtime_s=rt, energy_j=e, requested_cores=8, provisioned_cores=p
        )
        for name, (rt, e), p in zip(names, pairs, provisioned)
    }


#: The seven CPU applications of Fig. 4.  Cholesky's metrics are Table 1
#: verbatim (including the per-machine occupancy recovered from its EBA
#: column); the others are Fig. 4-consistent calibrations.
APP_REGISTRY: dict[str, AppProfile] = {
    "Cholesky": AppProfile(
        name="Cholesky",
        runs=_runs(
            desktop=(5.20, 18.3),
            cascade=(4.68, 35.8),
            icelake=(4.60, 19.8),
            zen3=(5.65, 16.8),
            provisioned=(8, 8, 6, 7),
        ),
        signature=COMPUTE_BOUND,
    ),
    # Compute-bound n-body kernel: newer wide nodes win on time but burn
    # more attributed power.
    "MD": AppProfile(
        name="MD",
        runs=_runs(
            desktop=(18.5, 52.0),
            cascade=(9.2, 88.0),
            icelake=(7.8, 75.0),
            zen3=(6.9, 61.0),
        ),
        signature=COMPUTE_BOUND,
    ),
    # Memory-bound: Zen3's cache/bandwidth makes it both fastest and most
    # efficient — performance and efficiency can align.
    "Pagerank": AppProfile(
        name="Pagerank",
        runs=_runs(
            desktop=(12.4, 38.0),
            cascade=(8.1, 61.0),
            icelake=(6.5, 48.0),
            zen3=(5.2, 33.0),
        ),
        signature=MEMORY_BOUND,
    ),
    "MatMul": AppProfile(
        name="MatMul",
        runs=_runs(
            desktop=(9.8, 31.0),
            cascade=(5.6, 47.0),
            icelake=(4.2, 36.0),
            zen3=(4.9, 29.0),
        ),
        signature=COMPUTE_BOUND,
    ),
    # Mostly serial parsing: the high-clock Desktop is fastest AND most
    # efficient; server nodes waste their width.
    "DNA Viz.": AppProfile(
        name="DNA Viz.",
        runs=_runs(
            desktop=(6.3, 19.0),
            cascade=(7.9, 42.0),
            icelake=(7.1, 35.0),
            zen3=(7.5, 27.0),
        ),
        signature=BALANCED,
    ),
    "BFS": AppProfile(
        name="BFS",
        runs=_runs(
            desktop=(8.9, 24.0),
            cascade=(6.7, 44.0),
            icelake=(5.8, 37.0),
            zen3=(6.1, 28.0),
        ),
        signature=MEMORY_BOUND,
    ),
    "MST": AppProfile(
        name="MST",
        runs=_runs(
            desktop=(11.2, 30.0),
            cascade=(9.5, 55.0),
            icelake=(8.4, 45.0),
            zen3=(9.0, 36.0),
        ),
        signature=MEMORY_BOUND,
    ),
}

#: Application names in the order Fig. 4 plots them.
CPU_APP_NAMES: tuple[str, ...] = (
    "Cholesky",
    "MD",
    "Pagerank",
    "MatMul",
    "DNA Viz.",
    "BFS",
    "MST",
)

#: Table 3 metrics: tiled Cholesky on a 42 GB single-precision matrix,
#: per GPU configuration.  Keys are (model, count); values are
#: (runtime seconds, energy joules).
GPU_CHOLESKY_PROFILES: dict[tuple[str, int], MachineRun] = {
    ("P100", 1): MachineRun(2321.0, 889e3, requested_cores=1, provisioned_cores=1),
    ("P100", 2): MachineRun(1396.0, 635e3, requested_cores=2, provisioned_cores=2),
    ("V100", 1): MachineRun(1494.0, 1316e3, requested_cores=1, provisioned_cores=1),
    ("V100", 2): MachineRun(1190.0, 1194e3, requested_cores=2, provisioned_cores=2),
    ("V100", 4): MachineRun(917.0, 916e3, requested_cores=4, provisioned_cores=4),
    ("V100", 8): MachineRun(926.0, 944e3, requested_cores=8, provisioned_cores=8),
    ("A100", 1): MachineRun(1405.0, 2100e3, requested_cores=1, provisioned_cores=1),
    ("A100", 2): MachineRun(926.0, 1427e3, requested_cores=2, provisioned_cores=2),
    ("A100", 4): MachineRun(841.0, 1320e3, requested_cores=4, provisioned_cores=4),
    ("A100", 8): MachineRun(838.0, 1325e3, requested_cores=8, provisioned_cores=8),
}


def app_names() -> list[str]:
    """All CPU application names, in Fig. 4 order."""
    return list(CPU_APP_NAMES)


def get_profile(name: str) -> AppProfile:
    """Look up a CPU application profile by name."""
    try:
        return APP_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {sorted(APP_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# Real kernels at demo sizes, for the FaaS execution path
# ---------------------------------------------------------------------------
def _demo_cholesky() -> float:
    import numpy as np

    from repro.apps.cholesky import random_spd, tiled_cholesky

    a = random_spd(128, seed=1)
    lower = tiled_cholesky(a, tile=32)
    return float(np.abs(lower @ lower.T - a).max())


def _demo_matmul() -> float:
    import numpy as np

    from repro.apps.linalg import blocked_matmul

    rng = np.random.default_rng(1)
    a = rng.standard_normal((96, 96))
    b = rng.standard_normal((96, 96))
    return float(blocked_matmul(a, b, block=32).sum())


def _demo_pagerank() -> float:
    import networkx as nx

    from repro.apps.graph import pagerank

    g = nx.gnp_random_graph(200, 0.05, seed=1, directed=True)
    ranks = pagerank(g)
    return max(ranks.values()) if ranks else 0.0


def _demo_bfs() -> int:
    import networkx as nx

    from repro.apps.graph import bfs_levels

    g = nx.connected_watts_strogatz_graph(300, 6, 0.1, seed=1)
    return max(bfs_levels(g, 0).values())


def _demo_mst() -> float:
    import networkx as nx

    from repro.apps.graph import mst_weight

    g = nx.random_geometric_graph(120, 0.3, seed=1)
    for u, v in g.edges():
        g[u][v]["weight"] = (
            (g.nodes[u]["pos"][0] - g.nodes[v]["pos"][0]) ** 2
            + (g.nodes[u]["pos"][1] - g.nodes[v]["pos"][1]) ** 2
        ) ** 0.5
    return mst_weight(g)


def _demo_md() -> float:
    from repro.apps.md import lennard_jones_md

    return lennard_jones_md(n_particles=27, steps=50, seed=1).total_energy


def _demo_dna() -> float:
    from repro.apps.dna import dna_kmer_profile, random_sequence

    seq = random_sequence(5000, seed=1, gc_bias=0.45)
    return dna_kmer_profile(seq, k=4).gc_content


_KERNELS: dict[str, Callable[[], object]] = {
    "Cholesky": _demo_cholesky,
    "MatMul": _demo_matmul,
    "Pagerank": _demo_pagerank,
    "BFS": _demo_bfs,
    "MST": _demo_mst,
    "MD": _demo_md,
    "DNA Viz.": _demo_dna,
}


def kernel_for(name: str) -> Callable[[], object]:
    """The real runnable kernel behind an application name."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(f"no kernel registered for {name!r}") from None
