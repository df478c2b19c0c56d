"""Property tests: merge algebra and quantile error bounds of the sketch.

Two families of properties, both over seeded random streams:

- **Merge algebra.**  ``LogHistogram.merge`` must be associative and
  commutative *bit for bit* when the observations are integers — any
  split of a stream across workers, merged in any order or grouping,
  reproduces the single-stream sketch exactly.  This is the property
  the sweep engine's worker-count determinism rests on, so it is pinned
  here in isolation, away from the sweep machinery.
- **Error bounds.**  ``LogHistogram.quantile`` must land within the
  advertised ``1 / subbuckets`` relative error of the exact
  nearest-rank answer for every stream up to 10k samples.
"""

import random

import pytest

from repro.observe.analysis.intervals import percentile as nearest_rank
from repro.observe.telemetry.sketch import LogHistogram


def integer_stream(seed, length, high=2**20):
    rng = random.Random(seed)
    kind = rng.choice(("uniform", "heavy_tail", "clustered", "sparse"))
    if kind == "uniform":
        return [rng.randrange(0, high) for _ in range(length)]
    if kind == "heavy_tail":
        return [int(rng.paretovariate(1.2)) for _ in range(length)]
    if kind == "clustered":
        centers = [rng.randrange(1, high) for _ in range(3)]
        return [max(0, rng.choice(centers) + rng.randrange(-5, 6))
                for _ in range(length)]
    return [rng.choice((0, 1, high - 1)) for _ in range(length)]


def split(values, parts, seed):
    rng = random.Random(seed)
    shards = [[] for _ in range(parts)]
    for value in values:
        shards[rng.randrange(parts)].append(value)
    return shards


def sketch_of(values):
    sketch = LogHistogram()
    sketch.observe_many(values)
    return sketch


class TestMergeAlgebra:
    @pytest.mark.parametrize("seed", range(20))
    def test_any_split_reproduces_the_single_stream(self, seed):
        values = integer_stream(seed, length=500)
        whole = sketch_of(values)
        parts = split(values, parts=2 + seed % 4, seed=seed + 100)
        merged = LogHistogram()
        for part in parts:
            merged.merge(sketch_of(part))
        assert merged.to_dict() == whole.to_dict()

    @pytest.mark.parametrize("seed", range(10))
    def test_commutative(self, seed):
        values = integer_stream(seed, length=400)
        left_values, right_values = split(values, parts=2, seed=seed + 7)
        ab = sketch_of(left_values)
        ab.merge(sketch_of(right_values))
        ba = sketch_of(right_values)
        ba.merge(sketch_of(left_values))
        assert ab.to_dict() == ba.to_dict()

    @pytest.mark.parametrize("seed", range(10))
    def test_associative(self, seed):
        values = integer_stream(seed, length=600)
        a, b, c = split(values, parts=3, seed=seed + 13)
        left_first = sketch_of(a)
        left_first.merge(sketch_of(b))
        left_first.merge(sketch_of(c))
        right_first = sketch_of(b)
        right_first.merge(sketch_of(c))
        pre = sketch_of(a)
        pre.merge(right_first)
        assert left_first.to_dict() == pre.to_dict()

    def test_merge_tree_matches_flat_fold(self):
        """Pairwise tree reduction == left fold — any fan-in topology."""
        values = integer_stream(42, length=1_000)
        shards = [sketch_of(part) for part in split(values, 8, seed=3)]
        flat = LogHistogram()
        for shard in shards:
            flat.merge(LogHistogram.from_dict(shard.to_dict()))
        while len(shards) > 1:
            paired = []
            for index in range(0, len(shards), 2):
                left = shards[index]
                if index + 1 < len(shards):
                    left.merge(shards[index + 1])
                paired.append(left)
            shards = paired
        assert shards[0].to_dict() == flat.to_dict()


class TestQuantileErrorBound:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("length", (10, 100, 1_000, 10_000))
    def test_relative_error_within_bound(self, seed, length):
        values = integer_stream(seed * 31 + length, length)
        sketch = sketch_of(values)
        ordered = sorted(values)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            exact = nearest_rank(ordered, q * 100)
            estimate = sketch.quantile(q)
            if exact == 0:
                assert estimate == 0
            else:
                error = abs(estimate - exact) / exact
                assert error <= sketch.relative_error_bound + 1e-9, (
                    f"q={q} exact={exact} estimate={estimate} seed={seed}"
                )

    @pytest.mark.parametrize("seed", range(5))
    def test_float_streams_obey_the_same_bound(self, seed):
        rng = random.Random(seed)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(2_000)]
        sketch = sketch_of(values)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.99):
            exact = nearest_rank(ordered, q * 100)
            error = abs(sketch.quantile(q) - exact) / exact
            assert error <= sketch.relative_error_bound + 1e-9

    def test_finer_subbuckets_tighten_the_bound(self):
        values = integer_stream(7, length=5_000)
        coarse = LogHistogram(subbuckets=4)
        fine = LogHistogram(subbuckets=64)
        for sketch in (coarse, fine):
            sketch.observe_many(values)
        exact = nearest_rank(sorted(values), 90)
        fine_error = abs(fine.quantile(0.9) - exact) / exact
        assert fine_error <= fine.relative_error_bound + 1e-9
        assert fine.relative_error_bound < coarse.relative_error_bound
