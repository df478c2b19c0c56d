"""Unit behavior of the streaming sketch, LogHistogram."""

import math
import random

import pytest

from repro.observe.telemetry.sketch import DEFAULT_SUBBUCKETS, LogHistogram
from repro.workload import exponential_requests


class TestLogHistogramRecording:
    def test_count_sum_min_max_mean(self):
        sketch = LogHistogram()
        for value in (1, 5, 12, 100):
            sketch.observe(value)
        assert sketch.count == 4
        assert sketch.total == 118
        assert sketch.minimum == 1
        assert sketch.maximum == 100
        assert sketch.mean == 118 / 4

    def test_zeros_counted_apart(self):
        sketch = LogHistogram()
        sketch.observe(0)
        sketch.observe(0)
        sketch.observe(3)
        assert sketch.count == 3
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LogHistogram().observe(-1)

    def test_bad_subbuckets_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(subbuckets=0)

    def test_observe_many(self):
        sketch = LogHistogram()
        sketch.observe_many(range(1, 11))
        assert sketch.count == 10
        assert sketch.total == 55

    def test_integer_sum_stays_exact(self):
        """Integer observations keep an int sum — the bit-exact-merge
        invariant the sweep determinism rests on."""
        sketch = LogHistogram()
        sketch.observe_many([10**15, 3, 7])
        assert isinstance(sketch.total, int)
        assert sketch.total == 10**15 + 10

    def test_len_is_count(self):
        sketch = LogHistogram()
        sketch.observe_many([1, 2, 3])
        assert len(sketch) == 3


class TestLogHistogramBuckets:
    def test_bucket_bounds_contain_observed_value(self):
        sketch = LogHistogram()
        for value in (0.001, 0.7, 1.0, 1.5, 17, 1000, 2**40):
            index = sketch._index(value)
            low, high = sketch.bucket_bounds(index)
            assert low <= value < high or math.isclose(value, high)

    def test_bucket_relative_width_bounds_error(self):
        sketch = LogHistogram()
        for value in (1.0, 3.0, 250.0):
            low, high = sketch.bucket_bounds(sketch._index(value))
            assert (high - low) / low <= 1.0 / sketch.subbuckets + 1e-12

    def test_bucket_counts_ascend(self):
        sketch = LogHistogram()
        sketch.observe_many([512, 1, 64, 8])
        indices = [index for index, _ in sketch.bucket_counts()]
        assert indices == sorted(indices)


class TestLogHistogramQuantiles:
    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError, match="empty"):
            LogHistogram().quantile(0.5)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError, match="empty"):
            _ = LogHistogram().mean

    def test_out_of_range_quantile_raises(self):
        sketch = LogHistogram()
        sketch.observe(1)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_quantile_clamped_to_observed_range(self):
        sketch = LogHistogram()
        sketch.observe_many([7, 7, 7])
        assert sketch.quantile(0.0) == 7
        assert sketch.quantile(1.0) == 7

    def test_percentile_convention(self):
        sketch = LogHistogram()
        sketch.observe_many(range(1, 101))
        assert sketch.percentile(50) == sketch.quantile(0.5)
        with pytest.raises(ValueError):
            sketch.percentile(101)

    def test_relative_error_bound_matches_subbuckets(self):
        assert LogHistogram().relative_error_bound == 1 / DEFAULT_SUBBUCKETS
        assert LogHistogram(subbuckets=64).relative_error_bound == 1 / 64


class TestLogHistogramMerge:
    def test_merge_is_exact(self):
        """Split a stream two ways; the merge equals the single stream,
        bucket for bucket and bit for bit."""
        whole = LogHistogram()
        left, right = LogHistogram(), LogHistogram()
        for index, value in enumerate(v * 3 + 1 for v in range(200)):
            whole.observe(value)
            (left if index % 2 else right).observe(value)
        left.merge(right)
        assert left.to_dict() == whole.to_dict()

    def test_merge_empty_sides(self):
        sketch = LogHistogram()
        sketch.observe_many([1, 2])
        empty = LogHistogram()
        sketch.merge(LogHistogram())
        assert sketch.count == 2
        empty.merge(sketch)
        assert empty.to_dict() == sketch.to_dict()

    def test_subbucket_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sub-buckets"):
            LogHistogram(subbuckets=8).merge(LogHistogram(subbuckets=16))


class TestLogHistogramTallyFold:
    """``observe_repeated`` folds a ``{value: count}`` tally — the
    traffic engine's fetch waits — bit-identically to one ``observe``
    per sample, on an integer sum or a float one."""

    @pytest.mark.parametrize("seed", range(200))
    def test_fold_equals_per_sample_observe(self, seed):
        rng = random.Random(f"tally-fold:{seed}")
        samples = [rng.choice((0, 0, rng.randint(1, 9), rng.randint(0, 5000)))
                   for _ in range(rng.randint(1, 300))]
        observed = LogHistogram()
        for value in samples:
            observed.observe(value)
        tally = {}
        for value in samples:
            tally[value] = tally.get(value, 0) + 1
        folded = LogHistogram()
        for value, count in tally.items():
            folded.observe_repeated(value, count)
        assert folded.to_dict() == observed.to_dict()
        assert isinstance(folded.total, int)
        for q in [step / 100 for step in range(101)]:
            assert folded.quantile(q) == observed.quantile(q)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LogHistogram().observe_repeated(-1, 3)

    @pytest.mark.parametrize("count", [0, -2, 2.0, True])
    def test_count_must_be_a_positive_int(self, count):
        sketch = LogHistogram()
        with pytest.raises(ValueError, match="count"):
            sketch.observe_repeated(5, count)
        assert sketch.to_dict() == LogHistogram().to_dict()

    @pytest.mark.parametrize("seed", range(200))
    def test_fold_keeps_a_float_sum_exact(self, seed):
        """Once a float sample has made the sum a float, each fold adds
        the value one copy at a time, as ``observe`` would."""
        rng = random.Random(f"float-sum-fold:{seed}")
        first = rng.uniform(0, 1000)
        value, count = rng.randint(0, 10**6), rng.randint(1, 50)
        observed, folded = LogHistogram(), LogHistogram()
        observed.observe(first)
        folded.observe(first)
        for _ in range(count):
            observed.observe(value)
        folded.observe_repeated(value, count)
        assert folded.to_dict() == observed.to_dict()


def assert_same_sketch(left: LogHistogram, right: LogHistogram,
                       where: str = "") -> None:
    """Equal in every serialized field, sum type included, and in 101
    quantiles."""
    assert left.to_dict() == right.to_dict(), where
    assert type(left.total) is type(right.total), where
    assert type(left.minimum) is type(right.minimum), where
    assert type(left.maximum) is type(right.maximum), where
    if left.count:
        for q in [step / 100 for step in range(101)]:
            assert left.quantile(q) == right.quantile(q), where


class TestObserveManyFold:
    """``observe_many`` folds an integer batch as a tally; every batch
    must leave the sketch as one ``observe`` per sample would."""

    @staticmethod
    def observe_each(sketch: LogHistogram, values) -> None:
        for value in values:
            sketch.observe(value)

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_per_sample_observe(self, seed):
        rng = random.Random(f"observe-many-fold:{seed}")
        batch = [rng.choice((0, rng.randint(1, 9), rng.randint(0, 5000),
                             rng.randint(0, 2**40)))
                 for _ in range(rng.randint(0, 400))]
        # Magnitudes up to 2**50 make a float sum round differently when
        # the same values are added in another order.
        wide = [rng.choice((rng.randint(1, 9), rng.randint(0, 2**20),
                            rng.randint(0, 2**50)))
                for _ in range(rng.randint(1, 300))]
        prior = [rng.randint(0, 100) for _ in range(rng.randint(0, 5))]
        float_prior = prior + [rng.uniform(0, 100)]
        with_bool = batch + [True]
        rng.shuffle(with_bool)
        cases = [
            ("int batch", prior, batch, list),
            ("wide int batch", prior, wide, list),
            ("generator", prior, batch, iter),
            ("float sum", float_prior, wide, list),
            ("bool among ints", prior, with_bool, list),
            ("float samples", prior, [value / 4 for value in batch], list),
        ]
        for name, before, values, wrap in cases:
            folded, observed = LogHistogram(), LogHistogram()
            self.observe_each(folded, before)
            self.observe_each(observed, before)
            folded.observe_many(wrap(values))
            self.observe_each(observed, values)
            assert_same_sketch(folded, observed, name)
        # A negative sample mid-batch raises the same error after the
        # same earlier samples.
        with_negative = list(batch)
        with_negative.insert(rng.randint(0, len(batch)),
                             rng.choice((-rng.randint(1, 50), -0.5)))
        folded, observed = LogHistogram(), LogHistogram()
        with pytest.raises(ValueError) as folded_error:
            folded.observe_many(iter(with_negative))
        with pytest.raises(ValueError) as observed_error:
            self.observe_each(observed, with_negative)
        assert str(folded_error.value) == str(observed_error.value)
        assert_same_sketch(folded, observed, "negative mid-batch")

    def test_empty_batch_changes_nothing(self):
        sketch = LogHistogram()
        sketch.observe_many([])
        sketch.observe_many(iter(()))
        assert_same_sketch(sketch, LogHistogram())


class TestLogHistogramZeroBoundaries:
    """All-zero and zero-heavy streams: the traffic tier's queue-wait
    sketch is exactly this shape at low offered load (every session
    admitted on arrival), so p50/p99 of zeros must read 0.0, not NaN
    or a bucket midpoint."""

    def test_all_zero_stream_quantiles_are_zero(self):
        sketch = LogHistogram()
        sketch.observe_many([0] * 25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert sketch.quantile(q) == 0.0
        assert sketch.mean == 0.0
        assert sketch.minimum == 0 and sketch.maximum == 0

    def test_zero_heavy_tail_crosses_at_the_right_rank(self):
        sketch = LogHistogram()
        sketch.observe_many([0] * 98 + [40, 50])
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.98) == 0.0      # rank 98: the last zero
        assert sketch.quantile(0.99) > 0.0       # rank 99: the 40
        assert sketch.quantile(1.0) == 50

    def test_all_zero_merge_stays_zero(self):
        left, right = LogHistogram(), LogHistogram()
        left.observe_many([0, 0])
        right.observe_many([0, 0, 0])
        left.merge(right)
        assert left.count == 5
        assert left.quantile(0.99) == 0.0
        assert left.total == 0

    def test_single_observation_is_every_quantile(self):
        sketch = LogHistogram()
        sketch.observe(17)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert sketch.quantile(q) == 17


class TestLogHistogramSerialization:
    def test_round_trip(self):
        sketch = LogHistogram()
        sketch.observe_many([0, 1, 2, 900, 2**20])
        clone = LogHistogram.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(0.5) == sketch.quantile(0.5)

    def test_round_trip_survives_json(self):
        import json

        sketch = LogHistogram()
        sketch.observe_many([3, 14, 15])
        record = json.loads(json.dumps(sketch.to_dict()))
        assert LogHistogram.from_dict(record).to_dict() == sketch.to_dict()

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            LogHistogram.from_dict({"counts": {}})
        with pytest.raises(ValueError, match="malformed"):
            LogHistogram.from_dict({"subbuckets": 16, "counts": "nope",
                                    "zeros": 0, "count": 0, "sum": 0,
                                    "min": None, "max": None})


class TestOnRequestStreams:
    def test_exponential_sizes_are_skewed(self):
        """The distributional fact Wald-style analysis rests on."""
        requests = exponential_requests(2_000, mean_size=200,
                                        mean_lifetime=50, seed=3)
        sketch = LogHistogram()
        sketch.observe_many([request.size for request in requests])
        # Most mass in the lowest tenth of the range; a long thin tail.
        low_tenth = sketch.minimum + (sketch.maximum - sketch.minimum) / 10
        assert sketch.quantile(1 / 3) < low_tenth
        assert sketch.quantile(0.5) < sketch.mean
