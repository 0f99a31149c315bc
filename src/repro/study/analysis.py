"""Statistical analysis of game plays (Figs. 9 and 10).

Reproduces the paper's §6.2 pipeline: collect game instances (each
user's first play discarded as familiarization; plays under one minute
discarded — our agents have no wall-clock, so the analogue is plays
with fewer than two moves), then compute

* total energy by version, with a two-sample t-test of V3 against the
  control (Fig. 9a);
* jobs completed by version (Fig. 9b);
* energy stratified by jobs completed (Fig. 9c);
* P(job was run | job was seen) against the job's mean energy, and the
  per-version correlation (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.study.agents import AgentParams, BehavioralAgent
from repro.study.game import Game, GameConfig, GameVersion
from repro.study.jobs import GameJob, default_job_deck


@dataclass(frozen=True)
class GameRecord:
    """One retained game instance."""

    user: int
    version: GameVersion
    energy_kwh: float
    jobs_completed: int
    jobs_seen: frozenset[int]
    jobs_run: frozenset[int]


@dataclass
class StudyResults:
    """All retained instances plus the deck they were played on."""

    records: list[GameRecord]
    deck: list[GameJob]

    def by_version(self, version: GameVersion) -> list[GameRecord]:
        return [r for r in self.records if r.version == version]

    def __len__(self) -> int:
        return len(self.records)


def run_study(
    n_users: int = 90,
    plays_per_user: int = 3,
    config: GameConfig | None = None,
    seed: int = 11,
) -> StudyResults:
    """Simulate the §6 protocol.

    Each user is randomly assigned a version, plays twice with that
    version (first play discarded), then re-randomizes for later plays —
    "the version remained the same between the first and second play ...
    but was randomized after that".  Short plays (<2 moves) are dropped,
    mirroring the paper's under-one-minute filter.
    """
    if n_users < 1 or plays_per_user < 2:
        raise ValueError("need at least one user and two plays")
    rng = np.random.default_rng(seed)
    config = config or GameConfig()
    deck = default_job_deck()

    records: list[GameRecord] = []
    for user in range(n_users):
        params = AgentParams.sample(rng)
        version = GameVersion(int(rng.integers(1, 4)))
        for play in range(plays_per_user):
            if play >= 2:
                version = GameVersion(int(rng.integers(1, 4)))
            game = Game(version, config=config, deck=deck)
            agent = BehavioralAgent(params, np.random.default_rng(rng.integers(2**63)))
            agent.play(game)
            if play == 0:
                continue  # familiarization play discarded
            if game.jobs_completed < 2:
                continue  # the paper's "<1 minute" filter analogue
            records.append(
                GameRecord(
                    user=user,
                    version=version,
                    energy_kwh=game.energy_used_kwh,
                    jobs_completed=game.jobs_completed,
                    jobs_seen=frozenset(game.jobs_seen),
                    jobs_run=frozenset(game.jobs_run),
                )
            )
    return StudyResults(records=records, deck=deck)


# ---------------------------------------------------------------------------
# Fig. 9
# ---------------------------------------------------------------------------
def energy_by_version(results: StudyResults) -> dict[int, np.ndarray]:
    """Total energy per instance, grouped by version (Fig. 9a)."""
    return {
        v.value: np.array([r.energy_kwh for r in results.by_version(v)])
        for v in GameVersion
    }


def jobs_completed_by_version(results: StudyResults) -> dict[int, np.ndarray]:
    """Jobs completed per instance, grouped by version (Fig. 9b)."""
    return {
        v.value: np.array(
            [r.jobs_completed for r in results.by_version(v)], dtype=float
        )
        for v in GameVersion
    }


def v3_energy_ttests(results: StudyResults) -> dict[str, float]:
    """Welch t-tests: V3 vs V1, V3 vs V2, and V1 vs V2 (the null check)."""
    from scipy import stats

    groups = energy_by_version(results)
    out = {}
    for label, (a, b) in {
        "v3_vs_v1": (groups[3], groups[1]),
        "v3_vs_v2": (groups[3], groups[2]),
        "v1_vs_v2": (groups[1], groups[2]),
    }.items():
        if len(a) < 2 or len(b) < 2:
            out[label] = float("nan")
            continue
        out[label] = float(stats.ttest_ind(a, b, equal_var=False).pvalue)
    return out


def energy_stratified_by_jobs(
    results: StudyResults, bins: list[tuple[int, int]] | None = None
) -> dict[int, dict[str, float]]:
    """Mean energy per (version, jobs-completed bin) — Fig. 9c.

    Controls for V3 players completing fewer jobs: within a bin the
    comparison is at equal output.
    """
    bins = bins or [(2, 6), (7, 11), (12, 16), (17, 100)]
    out: dict[int, dict[str, float]] = {}
    for v in GameVersion:
        row: dict[str, float] = {}
        records = results.by_version(v)
        for lo, hi in bins:
            sample = [
                r.energy_kwh for r in records if lo <= r.jobs_completed <= hi
            ]
            row[f"{lo}-{hi}"] = float(np.mean(sample)) if sample else float("nan")
        out[v.value] = row
    return out


# ---------------------------------------------------------------------------
# Fig. 10
# ---------------------------------------------------------------------------
def run_probability_vs_energy(
    results: StudyResults,
) -> dict[int, list[tuple[float, float]]]:
    """Per version: (job mean energy, P(run | seen)) for every deck job.

    The probability uses the paper's estimator: participants may run out
    of time or allocation before *seeing* a job, so the denominator is
    who saw it, not who played.
    """
    out: dict[int, list[tuple[float, float]]] = {}
    for v in GameVersion:
        records = results.by_version(v)
        points: list[tuple[float, float]] = []
        for job in results.deck:
            saw = sum(1 for r in records if job.job_id in r.jobs_seen)
            ran = sum(1 for r in records if job.job_id in r.jobs_run)
            if saw == 0:
                continue
            points.append((job.mean_energy_kwh(), ran / saw))
        out[v.value] = points
    return out


def energy_run_correlation(results: StudyResults) -> dict[int, tuple[float, float]]:
    """Pearson r (and p-value) of job energy vs run probability, per
    version — the paper's Fig. 10 finding is that none is significant."""
    from scipy import stats

    points = run_probability_vs_energy(results)
    out: dict[int, tuple[float, float]] = {}
    for v, pts in points.items():
        if len(pts) < 3:
            out[v] = (float("nan"), float("nan"))
            continue
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        if np.allclose(y.std(), 0) or np.allclose(x.std(), 0):
            out[v] = (0.0, 1.0)
            continue
        r = stats.pearsonr(x, y)
        out[v] = (float(r.statistic), float(r.pvalue))
    return out

