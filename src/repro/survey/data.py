"""Respondent-level survey table generation.

The paper releases aggregates, not the per-respondent table.  For code
that wants to *analyze* survey data (and to test the analysis pipeline),
this module deterministically constructs 316 synthetic respondents whose
marginals match every aggregate in
:data:`repro.survey.schema.PAPER_AGGREGATES` exactly, including the
cross-tabs the paper calls out:

* 39% of energy *reducers* are *not aware* of their energy consumption;
* 77% of allocation-concerned respondents took node-hour-reducing steps;
* of the 94 Green500-familiar respondents, 36 know their own machine's
  rank (and nobody unfamiliar with the metric does).

Assignment within a category is by seeded shuffle, so the table is
reproducible but not artificially ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.survey.schema import (
    FIG1_COUNTS,
    FIG2_COUNTS,
    FIG2_FACTORS,
    PAPER_AGGREGATES as AGG,
)


@dataclass
class Respondent:
    """One synthetic survey response."""

    rid: int
    location: str
    career_stage: str
    completed: bool
    aware_node_hours: bool
    reduced_node_hours: bool
    concerned_allocation: bool
    aware_energy: bool
    reduced_energy: bool
    familiar_green500: bool
    knows_own_green500: bool
    familiar_carbon_intensity: bool
    fig1: dict[str, str]  # metric -> "yes"/"no"/"na"
    fig2: dict[str, int]  # factor -> 1/2/3


def _categorical(
    rng: np.random.Generator, n_total: int, counts: dict[str, int], fill: str
) -> np.ndarray:
    values = []
    for label, count in counts.items():
        values.extend([label] * count)
    values.extend([fill] * (n_total - len(values)))
    arr = np.array(values, dtype=object)
    rng.shuffle(arr)
    return arr


def generate_respondents(seed: int = 0) -> list[Respondent]:
    """Build the full 316-row table (deterministic for a given seed)."""
    rng = np.random.default_rng(seed)
    n = int(AGG["n_responses"])

    location = _categorical(
        rng,
        n,
        {
            "Europe": int(AGG["loc_europe"]),
            "North America": int(AGG["loc_north_america"]),
            "Oceania": int(AGG["loc_oceania"]),
            "China": int(AGG["loc_china"]),
        },
        fill="Undisclosed",
    )
    career = _categorical(
        rng,
        n,
        {
            "Graduate student": int(AGG["stage_grad_student"]),
            "Early career": int(AGG["stage_early_career"]),
            "Senior": int(AGG["stage_senior"]),
        },
        fill="Other",
    )
    completed = np.zeros(n, dtype=bool)
    completed[rng.choice(n, size=int(AGG["n_complete"]), replace=False)] = True
    complete_idx = np.flatnonzero(completed)

    # Percentage-based answers apply to the 192 completers.
    cols = {
        "aware_node_hours": np.zeros(n, dtype=bool),
        "reduced_node_hours": np.zeros(n, dtype=bool),
        "concerned_allocation": np.zeros(n, dtype=bool),
        "aware_energy": np.zeros(n, dtype=bool),
        "reduced_energy": np.zeros(n, dtype=bool),
        "familiar_green500": np.zeros(n, dtype=bool),
        "knows_own_green500": np.zeros(n, dtype=bool),
        "familiar_carbon_intensity": np.zeros(n, dtype=bool),
    }

    def pick(from_idx: np.ndarray, count: int) -> np.ndarray:
        return rng.choice(from_idx, size=count, replace=False)

    cols["aware_node_hours"][pick(complete_idx, int(AGG["aware_node_hours"]))] = True

    # Allocation concern, then 77% of the concerned also reduced
    # node-hours; remaining reducers come from the unconcerned.
    concerned = pick(complete_idx, int(AGG["concerned_allocation"]))
    cols["concerned_allocation"][concerned] = True
    n_reduced = int(AGG["reduced_node_hours"])
    n_concerned_reduced = round(AGG["frac_concerned_who_reduced"] * len(concerned))
    n_concerned_reduced = min(n_concerned_reduced, n_reduced)
    reduced_idx = list(pick(concerned, n_concerned_reduced))
    others = np.setdiff1d(complete_idx, concerned)
    reduced_idx += list(pick(others, n_reduced - n_concerned_reduced))
    cols["reduced_node_hours"][np.array(reduced_idx)] = True

    # Energy: 39% of reducers are NOT aware of their energy use.
    n_energy_red = int(AGG["reduced_energy"])
    energy_reducers = pick(complete_idx, n_energy_red)
    cols["reduced_energy"][energy_reducers] = True
    n_red_unaware = round(AGG["frac_reducers_unaware_energy"] * n_energy_red)
    aware_from_reducers = rng.choice(
        energy_reducers, size=n_energy_red - n_red_unaware, replace=False
    )
    n_aware = int(AGG["aware_energy"])
    non_reducers = np.setdiff1d(complete_idx, energy_reducers)
    extra_aware = pick(non_reducers, n_aware - len(aware_from_reducers))
    cols["aware_energy"][aware_from_reducers] = True
    cols["aware_energy"][extra_aware] = True

    # Green500: the 36 who know their machine's rank are a subset of the
    # 94 familiar with the list.
    familiar = pick(complete_idx, int(AGG["familiar_green500"]))
    cols["familiar_green500"][familiar] = True
    cols["knows_own_green500"][
        rng.choice(familiar, size=int(AGG["green500_know_own_machine"]), replace=False)
    ] = True
    cols["familiar_carbon_intensity"][
        pick(complete_idx, int(AGG["familiar_carbon_intensity"]))
    ] = True

    # Fig. 1 per-metric awareness: respect the Green500 constraint (the
    # "yes" group for Green500 is exactly the knows_own_green500 set).
    fig1_answers: dict[str, np.ndarray] = {}
    for metric, counts in FIG1_COUNTS.items():
        col = np.array(["(skipped)"] * n, dtype=object)
        if metric == "Green500":
            yes_idx = np.flatnonzero(cols["knows_own_green500"])
        else:
            yes_idx = pick(complete_idx, counts["yes"])
        col[yes_idx] = "yes"
        rest = np.setdiff1d(complete_idx, yes_idx)
        no_idx = rng.choice(rest, size=counts["no"], replace=False)
        col[no_idx] = "no"
        rest = np.setdiff1d(rest, no_idx)
        na_idx = rng.choice(rest, size=min(counts["na"], len(rest)), replace=False)
        col[na_idx] = "na"
        fig1_answers[metric] = col

    # Fig. 2 importance answers with exact counts.
    fig2_answers: dict[str, np.ndarray] = {}
    for factor in FIG2_FACTORS:
        counts = FIG2_COUNTS[factor]
        scores = np.zeros(n, dtype=int)  # 0 = skipped
        order = list(complete_idx)
        rng.shuffle(order)
        pos = 0
        for score in (1, 2, 3):
            for _ in range(counts[score]):
                if pos < len(order):
                    scores[order[pos]] = score
                    pos += 1
        fig2_answers[factor] = scores

    respondents = []
    for i in range(n):
        respondents.append(
            Respondent(
                rid=i,
                location=str(location[i]),
                career_stage=str(career[i]),
                completed=bool(completed[i]),
                aware_node_hours=bool(cols["aware_node_hours"][i]),
                reduced_node_hours=bool(cols["reduced_node_hours"][i]),
                concerned_allocation=bool(cols["concerned_allocation"][i]),
                aware_energy=bool(cols["aware_energy"][i]),
                reduced_energy=bool(cols["reduced_energy"][i]),
                familiar_green500=bool(cols["familiar_green500"][i]),
                knows_own_green500=bool(cols["knows_own_green500"][i]),
                familiar_carbon_intensity=bool(cols["familiar_carbon_intensity"][i]),
                fig1={m: str(fig1_answers[m][i]) for m in FIG1_COUNTS},
                fig2={f: int(fig2_answers[f][i]) for f in FIG2_FACTORS},
            )
        )
    return respondents
