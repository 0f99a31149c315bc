"""Unit conversion helpers used throughout :mod:`repro`.

Internal conventions (see DESIGN.md §6):

* **energy** is carried in **joules** (J),
* **power** in **watts** (W),
* **carbon** in **grams of CO2-equivalent** (gCO2e),
* **carbon intensity** in **gCO2e per kWh**,
* **work** in **core-hours**,
* **time** in **seconds** unless a name says otherwise.

These helpers exist so that the conversion constants live in exactly one
place; the accounting and simulation code never hard-codes ``3.6e6``.
"""

from __future__ import annotations

#: Number of joules in one watt-hour.
JOULES_PER_WH: float = 3600.0

#: Number of joules in one kilowatt-hour.
JOULES_PER_KWH: float = 3.6e6

#: Seconds in one hour.
SECONDS_PER_HOUR: float = 3600.0

#: Hours in one (non-leap) year; the paper's carbon-rate divisor ``24*365``.
HOURS_PER_YEAR: float = 24.0 * 365.0

#: Seconds in one (non-leap) year.
SECONDS_PER_YEAR: float = HOURS_PER_YEAR * SECONDS_PER_HOUR


def joules_to_kwh(joules: float) -> float:
    """Convert joules to kilowatt-hours."""
    return joules / JOULES_PER_KWH


def kwh_to_joules(kwh: float) -> float:
    """Convert kilowatt-hours to joules."""
    return kwh * JOULES_PER_KWH


def wh_to_joules(wh: float) -> float:
    """Convert watt-hours to joules."""
    return wh * JOULES_PER_WH


def watts_over_seconds_to_joules(watts: float, seconds: float) -> float:
    """Energy (J) of a constant ``watts`` draw sustained for ``seconds``."""
    return watts * seconds


def seconds_to_hours(seconds: float) -> float:
    """Convert seconds to hours."""
    return seconds / SECONDS_PER_HOUR


def hours_to_seconds(hours: float) -> float:
    """Convert hours to seconds."""
    return hours * SECONDS_PER_HOUR


def core_hours(cores: int | float, seconds: float) -> float:
    """Core-hours consumed by ``cores`` cores busy for ``seconds`` seconds."""
    return cores * seconds / SECONDS_PER_HOUR


def operational_carbon_g(energy_joules: float, intensity_g_per_kwh: float) -> float:
    """Operational carbon (gCO2e) of ``energy_joules`` at a given grid intensity.

    This is the first term of the paper's Eq. (2): ``e_j * I_f(t)`` with
    ``e_j`` expressed in kWh.
    """
    # joules_to_kwh, inlined: CBA evaluates this once per migration probe.
    return energy_joules / JOULES_PER_KWH * intensity_g_per_kwh


def grams_to_kg(grams: float) -> float:
    """Convert grams to kilograms."""
    return grams / 1e3


def grams_to_mg(grams: float) -> float:
    """Convert grams to milligrams."""
    return grams * 1e3
