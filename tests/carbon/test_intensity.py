"""Carbon-intensity trace semantics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.carbon.intensity import CarbonIntensityTrace, constant_trace


def ramp_trace(hours=48) -> CarbonIntensityTrace:
    return CarbonIntensityTrace(
        region="ramp", hourly_g_per_kwh=np.arange(hours, dtype=float)
    )


class TestLookup:
    def test_at_hour_boundaries(self):
        trace = ramp_trace()
        assert trace.at(0.0) == 0.0
        assert trace.at(3600.0) == 1.0
        assert trace.at(3599.9) == 0.0

    def test_wraps_cyclically(self):
        trace = ramp_trace(hours=24)
        assert trace.at(25 * 3600.0) == trace.at(3600.0)

    def test_vectorized_matches_scalar(self):
        trace = ramp_trace()
        times = np.array([0.0, 3700.0, 50 * 3600.0])
        np.testing.assert_allclose(
            trace.at_many(times), [trace.at(float(t)) for t in times]
        )

    def test_constant_trace(self):
        trace = constant_trace("flat", 400.0)
        assert trace.at(123456.0) == 400.0
        assert trace.mean == 400.0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace("bad", np.array([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError):
            CarbonIntensityTrace("bad", np.array([bad, 1.0]))
        with pytest.raises(ValueError):
            constant_trace("bad", bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace("bad", np.array([]))


class TestAverageOver:
    def test_within_one_hour(self):
        trace = ramp_trace()
        assert trace.average_over(0.0, 1800.0) == pytest.approx(0.0)

    def test_spanning_two_hours_weighted(self):
        trace = ramp_trace()
        # 30 min at 0 plus 30 min at 1 -> 0.5
        assert trace.average_over(1800.0, 3600.0) == pytest.approx(0.5)

    def test_zero_duration_is_point_lookup(self):
        trace = ramp_trace()
        assert trace.average_over(7200.0, 0.0) == trace.at(7200.0)

    def test_full_cycle_average_equals_mean(self):
        trace = ramp_trace(hours=24)
        assert trace.average_over(0.0, 24 * 3600.0) == pytest.approx(trace.mean)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ramp_trace().average_over(0.0, -1.0)

    @given(
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e5),
    )
    def test_average_bounded_by_extremes(self, start, duration):
        trace = ramp_trace()
        avg = trace.average_over(start, duration)
        assert trace.min - 1e-9 <= avg <= trace.max + 1e-9


def _integral_average(trace, start_s, duration_s):
    """The seed implementation: materialise one edge per spanned hour
    and integrate — the reference the O(1) prefix-sum path must match."""
    edges = np.arange(
        np.floor(start_s / 3600.0),
        np.floor((start_s + duration_s) / 3600.0) + 2,
    ) * 3600.0
    edges[0] = start_s
    edges[-1] = start_s + duration_s
    widths = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    vals = trace.at_many(mids)
    return float((vals * widths).sum() / duration_s)


def _scalar_average(trace, start_s, duration_s):
    """The former scalar window integral, kept as an oracle:
    :meth:`CarbonIntensityTrace.average_over` now runs the vectorized path
    on a one-element window and must match this bit for bit."""
    end_s = start_s + duration_s
    ulp = np.spacing(max(abs(start_s), abs(end_s)))
    if duration_s < 1e-9 or duration_s <= 1e8 * ulp:
        return trace.at(start_s)
    h0 = int(np.floor(start_s / 3600.0))
    h1 = int(np.floor(end_s / 3600.0))
    if h0 == h1:
        return trace.at(start_s)
    values = trace.hourly_g_per_kwh
    n = len(values)
    prefix = np.concatenate(([0.0], np.cumsum(values)))

    def cumulative(hour):
        cycles, rem = divmod(hour, n)
        return cycles * prefix[n] + prefix[rem]

    first = ((h0 + 1) * 3600.0 - start_s) * values[h0 % n]
    last = (end_s - h1 * 3600.0) * values[h1 % n]
    whole = cumulative(h1) - cumulative(h0 + 1)
    return float((first + whole * 3600.0 + last) / duration_s)


class TestPrefixSumPath:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_element_window_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        trace = CarbonIntensityTrace("t", rng.uniform(0.0, 900.0, size=97))
        starts = np.concatenate([rng.uniform(0.0, 5e6, size=2000), [0.0, 32.0]])
        durations = np.concatenate(
            [10.0 ** rng.uniform(-12, 6, size=2000), [0.0, 1e-9]]
        )
        for start, duration in zip(starts.tolist(), durations.tolist()):
            assert trace.average_over(start, duration) == _scalar_average(
                trace, start, duration
            )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=72
        ),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e5),
    )
    def test_matches_seed_integral(self, values, start, duration):
        trace = CarbonIntensityTrace("t", np.array(values))
        assert trace.average_over(start, duration) == pytest.approx(
            _integral_average(trace, start, duration), rel=1e-9, abs=1e-9
        )

    def test_matches_seed_integral_random_windows(self):
        rng = np.random.default_rng(17)
        trace = CarbonIntensityTrace("t", rng.uniform(10.0, 800.0, size=48))
        starts = rng.uniform(0.0, 2e6, size=300)
        durations = rng.uniform(1.0, 3e5, size=300)
        for start, duration in zip(starts, durations):
            assert trace.average_over(start, duration) == pytest.approx(
                _integral_average(trace, start, duration), rel=1e-9
            )

    def test_average_over_many_matches_scalar(self):
        rng = np.random.default_rng(23)
        trace = CarbonIntensityTrace("t", rng.uniform(10.0, 800.0, size=30))
        starts = rng.uniform(0.0, 1e6, size=200)
        durations = np.concatenate(
            [rng.uniform(0.0, 1e5, size=196), [0.0, 1e-12, 1e-9, 2.5]]
        )
        many = trace.average_over_many(starts, durations)
        scalar = np.array(
            [trace.average_over(s, d) for s, d in zip(starts, durations)]
        )
        np.testing.assert_array_equal(many, scalar)

    def test_tiny_duration_relative_guard(self):
        """A 1e-9 s window at t=32 s has hour-chunk widths dominated by
        float rounding; it must degrade to the point lookup."""
        trace = ramp_trace()
        assert trace.average_over(32.0, 1e-9) == trace.at(32.0)
        assert trace.average_over(3600.0 - 5e-10, 1e-9) == trace.at(3600.0 - 5e-10)

    def test_average_over_many_rejects_negative(self):
        trace = ramp_trace()
        with pytest.raises(ValueError):
            trace.average_over_many(np.array([0.0]), np.array([-1.0]))

    def test_average_over_many_bounded(self):
        rng = np.random.default_rng(5)
        trace = CarbonIntensityTrace("t", rng.uniform(0.0, 1000.0, size=24))
        starts = rng.uniform(0.0, 1e6, size=500)
        durations = 10.0 ** rng.uniform(-12, 5, size=500)
        avg = trace.average_over_many(starts, durations)
        slack = 1e-6 * (1.0 + trace.max)
        assert np.all(avg >= trace.min - slack)
        assert np.all(avg <= trace.max + slack)


class TestDayProfile:
    def test_profile_has_24_values(self):
        assert len(ramp_trace().day_profile(0)) == 24

    def test_second_day_offsets(self):
        trace = ramp_trace(hours=48)
        np.testing.assert_allclose(trace.day_profile(1), np.arange(24) + 24)
