"""Hourly carbon-intensity traces.

CBA (Eq. 2) needs ``I_f(t)``: the grid carbon intensity at facility ``f``
when a job runs, in gCO2e/kWh.  The paper retrieves hourly data from
Electricity Maps starting January 2023; this module provides the trace
container that the simulator and the accounting code query.  Synthetic
trace *generation* lives in :mod:`repro.carbon.grids`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class CarbonIntensityTrace:
    """An hourly carbon-intensity time series for one grid region.

    Attributes
    ----------
    region:
        Region code, e.g. ``"AU-SA"``.
    hourly_g_per_kwh:
        Intensity for hour ``i`` (relative to the trace epoch).  The
        trace repeats cyclically past its end, which matches how the
        simulation uses a single year of data for multi-year horizons.
    """

    region: str
    hourly_g_per_kwh: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.hourly_g_per_kwh, dtype=float)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("trace must be a non-empty 1-D array")
        # A NaN or infinite hour would poison every CBA charge in it.
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise ValueError("carbon intensity must be finite and non-negative")
        object.__setattr__(self, "hourly_g_per_kwh", values)

    def __len__(self) -> int:
        return len(self.hourly_g_per_kwh)

    # ------------------------------------------------------------------
    def at(self, time_s: float) -> float:
        """Intensity (gCO2e/kWh) at ``time_s`` seconds past the epoch."""
        hour = int(time_s // SECONDS_PER_HOUR) % len(self.hourly_g_per_kwh)
        return float(self.hourly_g_per_kwh[hour])

    def at_many(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`at` for an array of times."""
        hours = (np.asarray(times_s) // SECONDS_PER_HOUR).astype(int) % len(self)
        return self.hourly_g_per_kwh[hours]

    # ------------------------------------------------------------------
    @property
    def _prefix(self) -> np.ndarray:
        """Cached hourly prefix sums: ``_prefix[k] = sum(values[:k])``.

        Lets :meth:`average_over` integrate any window in O(1) instead of
        materialising one edge per spanned hour — at paper scale the CBA
        pricing path averages over multi-day windows millions of times.
        """
        cached = self.__dict__.get("_prefix_cache")
        if cached is None:
            cached = np.concatenate(
                ([0.0], np.cumsum(self.hourly_g_per_kwh))
            )
            object.__setattr__(self, "_prefix_cache", cached)
        return cached

    def _cumulative_hours(self, hour_index: np.ndarray) -> np.ndarray:
        """Integral of the cyclic trace over whole hours ``[0, hour_index)``
        in (gCO2e/kWh)·hours, for integer hour indices (vectorized)."""
        n = len(self.hourly_g_per_kwh)
        prefix = self._prefix
        cycles, rem = np.divmod(hour_index, n)
        return cycles * prefix[n] + prefix[rem]

    def average_over(self, start_s: float, duration_s: float) -> float:
        """Time-weighted mean intensity over ``[start, start+duration]``.

        Jobs spanning several hours should be charged the mean intensity
        over their run, not the submit-hour snapshot; both behaviours are
        offered and the accounting method chooses.  Evaluated in O(1) via
        cached hourly prefix sums regardless of the window length, by
        :meth:`average_over_many` on a one-element window.
        """
        return float(
            self.average_over_many(np.array([start_s]), np.array([duration_s]))[0]
        )

    def average_over_many(
        self, start_s: np.ndarray, duration_s: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`average_over` for arrays of windows.

        Each window is integrated in O(1) with the cached prefix sums, so
        pricing a whole batch of jobs is one array expression rather than
        a per-record Python loop.
        """
        starts = np.asarray(start_s, dtype=float)
        durations = np.asarray(duration_s, dtype=float)
        if starts.shape != durations.shape:
            raise ValueError("start and duration arrays must align")
        if not np.all(durations >= 0):
            raise ValueError("duration must be a non-negative number")
        ends = starts + durations
        h0 = np.floor(starts / SECONDS_PER_HOUR).astype(np.int64)
        h1 = np.floor(ends / SECONDS_PER_HOUR).astype(np.int64)
        # A window is a point lookup when it sits inside one hour bucket,
        # or when it is too short to integrate reliably: sub-nanosecond
        # windows, and windows within a few orders of magnitude of one ulp
        # of their endpoints, whose hour-chunk widths would divide float
        # rounding noise by a near-zero duration.  The guard is relative
        # to the endpoint magnitude, so a 1e-9 s window at t=32 s falls
        # back to a point lookup just like one at t=0.
        ulp = np.spacing(np.maximum(np.abs(starts), np.abs(ends)))
        point = (durations < 1e-9) | (durations <= 1e8 * ulp) | (h0 == h1)
        values = self.hourly_g_per_kwh
        n = len(values)
        # Guard the divide for point windows; they are overwritten below.
        safe = np.where(point, 1.0, durations)
        first = ((h0 + 1) * SECONDS_PER_HOUR - starts) * values[h0 % n]
        last = (ends - h1 * SECONDS_PER_HOUR) * values[h1 % n]
        whole = self._cumulative_hours(h1) - self._cumulative_hours(h0 + 1)
        avg = (first + whole * SECONDS_PER_HOUR + last) / safe
        return np.where(point, self.at_many(starts), avg)

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Mean intensity over the whole trace."""
        return float(self.hourly_g_per_kwh.mean())

    @property
    def min(self) -> float:
        return float(self.hourly_g_per_kwh.min())

    @property
    def max(self) -> float:
        """Maximum intensity over the trace, computed once and cached
        (the deferred-settlement charge bound reads it per record)."""
        cached = self.__dict__.get("_max_cache")
        if cached is None:
            cached = float(self.hourly_g_per_kwh.max())
            object.__setattr__(self, "_max_cache", cached)
        return cached

    def day_profile(self, day: int = 0) -> np.ndarray:
        """The 24 hourly values of day ``day`` (used for Fig. 7b)."""
        start = (day * 24) % len(self)
        idx = (start + np.arange(24)) % len(self)
        return self.hourly_g_per_kwh[idx]


def constant_trace(
    region: str, g_per_kwh: float, hours: int = 24
) -> CarbonIntensityTrace:
    """A flat trace — what the Table 5 yearly-average scenario uses."""
    return CarbonIntensityTrace(
        region=region, hourly_g_per_kwh=np.full(hours, float(g_per_kwh))
    )
