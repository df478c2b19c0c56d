"""Arrival processes: seeded, sorted, in-horizon, mean-preserving."""

import math

import pytest

from repro.traffic.arrivals import (
    ARRIVAL_PROCESSES,
    diurnal_arrivals,
    make_arrivals,
    onoff_arrivals,
    poisson_arrivals,
)


@pytest.mark.parametrize("kind", sorted(ARRIVAL_PROCESSES))
class TestEveryShape:
    def test_seeded_and_reproducible(self, kind):
        first = make_arrivals(kind, rate=0.4, horizon=500, seed=11)
        second = make_arrivals(kind, rate=0.4, horizon=500, seed=11)
        assert first == second

    def test_different_seeds_differ(self, kind):
        assert make_arrivals(kind, 0.4, 500, seed=1) != \
            make_arrivals(kind, 0.4, 500, seed=2)

    def test_sorted_integer_ticks_inside_horizon(self, kind):
        ticks = make_arrivals(kind, rate=0.4, horizon=500, seed=3)
        assert ticks == sorted(ticks)
        assert all(isinstance(t, int) for t in ticks)
        assert all(0 <= t < 500 for t in ticks)

    def test_long_run_mean_near_rate(self, kind):
        """All three shapes deliver the same offered load; only the
        clumping differs.  A 20k-tick run at rate 0.5 should land
        within 15% of 10k arrivals for every shape."""
        ticks = make_arrivals(kind, rate=0.5, horizon=20_000, seed=5)
        assert 0.85 * 10_000 <= len(ticks) <= 1.15 * 10_000

    def test_bad_rate_and_horizon_rejected(self, kind):
        with pytest.raises(ValueError, match="rate"):
            make_arrivals(kind, rate=0.0, horizon=100, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            make_arrivals(kind, rate=0.5, horizon=0, seed=0)

    @pytest.mark.parametrize("rate, horizon", [
        (math.inf, 100), (math.nan, 100), (0.5, math.inf), (0.5, math.nan),
    ])
    def test_non_finite_rate_and_horizon_rejected(self, kind, rate, horizon):
        # Either would keep the generator drawing arrivals forever.
        with pytest.raises(ValueError, match="must be finite and positive"):
            make_arrivals(kind, rate=rate, horizon=horizon, seed=0)


class TestShapeSpecifics:
    def test_unknown_kind_lists_choices(self):
        with pytest.raises(ValueError, match="poisson"):
            make_arrivals("sawtooth", rate=0.5, horizon=100, seed=0)

    def test_onoff_is_clumpier_than_poisson(self):
        """Same mean, different variance: the ON/OFF source concentrates
        arrivals, so its per-100-tick counts spread wider."""
        def spread(ticks, horizon, bucket=100):
            counts = [0] * (horizon // bucket)
            for t in ticks:
                counts[t // bucket] += 1
            mean = sum(counts) / len(counts)
            return sum((c - mean) ** 2 for c in counts) / len(counts)

        horizon = 20_000
        smooth = spread(poisson_arrivals(0.5, horizon, seed=9), horizon)
        bursty = spread(onoff_arrivals(0.5, horizon, seed=9), horizon)
        assert bursty > smooth

    def test_onoff_validates_burst_shape(self):
        with pytest.raises(ValueError, match="burst_ticks"):
            onoff_arrivals(0.5, 100, seed=0, burst_ticks=0.0)

    def test_diurnal_trough_sheds_and_crest_concentrates(self):
        """One full period: the quarter around the crest must out-arrive
        the quarter around the trough."""
        period = 400.0
        ticks = diurnal_arrivals(0.5, horizon=40_000, seed=13, period=period)
        crest = sum(1 for t in ticks if (t % period) < period / 4)
        trough = sum(
            1 for t in ticks if period / 2 <= (t % period) < 3 * period / 4
        )
        assert crest > 2 * trough

    def test_diurnal_validates_period(self):
        with pytest.raises(ValueError, match="period"):
            diurnal_arrivals(0.5, 100, seed=0, period=0.0)
