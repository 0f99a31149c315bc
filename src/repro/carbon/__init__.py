"""Carbon substrate: grid carbon-intensity traces, regional grid models,
embodied-carbon depreciation schedules, and a SCARIF-style embodied-
carbon estimator.

The paper obtains hourly carbon intensity from the Electricity Maps API
[18] and embodied carbon from vendor datasheets or SCARIF [25].  Neither
is reachable offline, so this package synthesizes hourly intensity
traces with realistic diurnal/seasonal structure (calibrated to the
regional means the paper reports) and regenerates embodied totals from
node specifications.
"""

from repro.carbon.intensity import CarbonIntensityTrace, constant_trace
from repro.carbon.grids import (
    GridProfile,
    GRID_PROFILES,
    synthetic_trace,
    trace_for_region,
)
from repro.carbon.embodied import (
    DepreciationSchedule,
    LinearDepreciation,
    DoubleDecliningBalance,
    carbon_rate_per_hour,
)
from repro.carbon.scarif import ScarifEstimator

__all__ = [
    "CarbonIntensityTrace",
    "constant_trace",
    "GridProfile",
    "GRID_PROFILES",
    "synthetic_trace",
    "trace_for_region",
    "DepreciationSchedule",
    "LinearDepreciation",
    "DoubleDecliningBalance",
    "carbon_rate_per_hour",
    "ScarifEstimator",
]
