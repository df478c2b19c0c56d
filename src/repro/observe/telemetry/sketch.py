"""Bounded-memory streaming quantile sketch.

The continuous-traffic tier's headline numbers — p50/p99 fault-wait,
residency, span latencies — are *distributions under load*, and at
millions of references per second the per-event state the analysis tier
keeps (every residency span, every block lifetime) cannot survive.
:class:`LogHistogram` holds a distribution in O(buckets) memory: an
HDR-style log-bucketed histogram whose power-of-two octaves are each
split into ``subbuckets`` equal-width linear sub-buckets, so the
relative quantile error is bounded by ``1 / subbuckets`` regardless of
the value range.  ``merge`` sums bucket counts, which is *exact*:
merging N workers' histograms yields bit-identically the histogram one
worker would have built over the concatenated stream, in any merge
order or grouping.  This is the sketch that crosses the sweep worker
boundary, and the only one the package keeps.

It is cross-checked against the exact nearest-rank
:func:`repro.observe.analysis.intervals.percentile` by the property
tests (``tests/test_telemetry_sketch.py``,
``tests/test_telemetry_property.py``).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

#: Default linear sub-buckets per power-of-two octave.  The quantile
#: error bound is ``1 / subbuckets`` relative (see :meth:`LogHistogram.
#: quantile`), so 16 sub-buckets bound the error at 6.25%.
DEFAULT_SUBBUCKETS = 16


class LogHistogram:
    """Log-bucketed histogram over non-negative values, exactly mergeable.

    A value ``v > 0`` lands in octave ``e`` where ``2**e <= v < 2**(e+1)``
    (any real exponent — sub-unit durations work), then in one of
    ``subbuckets`` equal-width sub-buckets of that octave.  Zero values
    are counted apart (a zero has no octave).  Negative values are
    rejected: every quantity sketched here — cycles, seconds, words —
    is a magnitude.

    >>> sketch = LogHistogram()
    >>> for value in [1, 2, 3, 100, 200]:
    ...     sketch.observe(value)
    >>> sketch.count
    5
    >>> 90 <= sketch.quantile(0.8) <= 210
    True
    """

    __slots__ = ("subbuckets", "_counts", "_zeros", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, subbuckets: int = DEFAULT_SUBBUCKETS) -> None:
        if subbuckets <= 0:
            raise ValueError(f"subbuckets must be positive, got {subbuckets}")
        self.subbuckets = subbuckets
        self._counts: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        # The sum stays an exact Python int as long as every observation
        # is integral (cycles, gaps, word counts — all the deterministic
        # instruments), so merging is bit-exact in any order.  A float
        # observation (wall seconds) degrades it to float, where merge
        # order can move the last bits — exactly the instruments the
        # determinism comparisons already strip.
        self._sum: float = 0
        self._min: float | None = None
        self._max: float | None = None

    # -- recording -----------------------------------------------------------

    def _index(self, value: float) -> int:
        """Bucket index of a positive value: octave × subbuckets + linear.

        ``math.frexp`` gives ``value = m * 2**e`` with ``m in [0.5, 1)``,
        so the octave is ``e - 1`` and ``(m - 0.5) * 2`` is the position
        within it — no ``log`` call on the hot path.
        """
        m, e = math.frexp(value)
        sub = int((m - 0.5) * 2.0 * self.subbuckets)
        if sub >= self.subbuckets:   # m rounded up to 1.0 exactly
            sub = self.subbuckets - 1
        return (e - 1) * self.subbuckets + sub

    def observe(self, value: float) -> None:
        """Record one sample.  O(1); raises on negative values."""
        if value < 0:
            raise ValueError(f"cannot sketch negative value {value!r}")
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value == 0:
            self._zeros += 1
            return
        index = self._index(value)
        self._counts[index] = self._counts.get(index, 0) + 1

    def observe_repeated(self, value: float, count: int) -> None:
        """Record ``count`` copies of ``value`` — one fold of a tally.

        Leaves the sketch bit-identical to ``count`` calls of
        :meth:`observe`.  An integer value on an integer sum adds
        ``value * count`` in one step, which is exact; otherwise the
        value is added to the sum ``count`` times, because float
        addition rounds at every step and one product would round
        differently.  Raises on a negative value and on a count that is
        not a positive int.
        """
        if value < 0:
            raise ValueError(f"cannot sketch negative value {value!r}")
        if not _is_int(count) or count <= 0:
            raise ValueError(f"count must be a positive int, got {count!r}")
        self._count += count
        if type(self._sum) is int and type(value) is int:
            self._sum += value * count
        else:
            for _ in range(count):
                self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value == 0:
            self._zeros += count
            return
        index = self._index(value)
        self._counts[index] = self._counts.get(index, 0) + count

    def observe_many(self, values: Iterable[float]) -> None:
        """Record every sample of ``values``, in order.

        Bit-identical to one :meth:`observe` per sample.  When the sum
        is an exact int and every sample is an exact ``int`` ≥ 0, the
        batch is counted first and each distinct value is recorded once
        by :meth:`observe_repeated`: integer addition is exact and
        associative, min, max and bucket counts do not depend on order,
        so only the insertion order of the bucket dict differs, and
        every reader sorts or sums it.  Any other batch — floats,
        ``bool`` or other int subclasses, a negative sample — runs the
        per-sample loop, so a negative value raises after the samples
        before it are recorded, exactly as :meth:`observe` would.
        """
        values = list(values)
        if (type(self._sum) is int and set(map(type, values)) <= {int}
                and min(values, default=0) >= 0):
            for value, count in Counter(values).items():
                self.observe_repeated(value, count)
            return
        for value in values:
            self.observe(value)

    # -- reading -------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def minimum(self) -> float | None:
        return self._min

    @property
    def maximum(self) -> float | None:
        return self._max

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError("mean of an empty sketch")
        return self._sum / self._count

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """``[low, high)`` value bounds of bucket ``index``."""
        octave, sub = divmod(index, self.subbuckets)
        base = math.ldexp(1.0, octave)
        width = base / self.subbuckets
        low = base + sub * width
        return low, low + width

    def quantile(self, q: float) -> float:
        """Approximate value at quantile ``q`` (0..1), nearest-rank style.

        The returned value is the midpoint of the bucket holding the
        nearest-rank sample, clamped to the observed ``[min, max]``, so
        its relative error against the exact nearest-rank value is at
        most ``1 / subbuckets`` (the bucket's relative width).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._count:
            raise ValueError("quantile of an empty sketch")
        rank = max(1, math.ceil(q * self._count))
        if rank <= self._zeros:
            return 0.0
        remaining = rank - self._zeros
        for index in sorted(self._counts):
            remaining -= self._counts[index]
            if remaining <= 0:
                low, high = self.bucket_bounds(index)
                value = (low + high) / 2.0
                return min(max(value, self._min), self._max)
        return self._max   # float drift guard; rank <= count by ceil

    def percentile(self, rank: float) -> float:
        """``quantile`` with the 0..100 convention the report tables use."""
        if not 0 <= rank <= 100:
            raise ValueError(f"percentile rank must be in 0..100, got {rank}")
        return self.quantile(rank / 100.0)

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative quantile error: one bucket's width."""
        return 1.0 / self.subbuckets

    def bucket_counts(self) -> list[tuple[int, int]]:
        """``(index, count)`` pairs, ascending — for sparkline rendering."""
        return sorted(self._counts.items())

    def __len__(self) -> int:
        return self._count

    # -- combination ---------------------------------------------------------

    def merge(self, other: "LogHistogram") -> None:
        """Fold another sketch in — *exactly*.

        Bucket counts sum, so the merge is associative and commutative
        bit for bit: any split of a stream across workers, merged in any
        order, reproduces the single-stream sketch.  The sweep engine's
        worker-count determinism rests on this.
        """
        if other.subbuckets != self.subbuckets:
            raise ValueError(
                f"cannot merge sketches with {other.subbuckets} and "
                f"{self.subbuckets} sub-buckets"
            )
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._zeros += other._zeros
        self._count += other._count
        self._sum += other._sum
        for bound in (other._min, other._max):
            if bound is None:
                continue
            if self._min is None or bound < self._min:
                self._min = bound
            if self._max is None or bound > self._max:
                self._max = bound

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form; round-trips through :meth:`from_dict`."""
        return {
            "subbuckets": self.subbuckets,
            "counts": {str(index): count
                       for index, count in sorted(self._counts.items())},
            "zeros": self._zeros,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "LogHistogram":
        """Rebuild a sketch from :meth:`to_dict` output.

        Records cross a trust boundary (resumed results files,
        heartbeats, worker transports), so fields that disagree with
        each other raise ``ValueError`` naming the field rather than
        merging into a skewed quantile or failing later inside
        :meth:`merge`.
        """
        try:
            sketch = cls(subbuckets=record["subbuckets"])
            sketch._counts = {
                int(index): count
                for index, count in record["counts"].items()
            }
            sketch._zeros = record["zeros"]
            sketch._count = record["count"]
            sketch._sum = record["sum"]
            sketch._min = record["min"]
            sketch._max = record["max"]
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed histogram record: {error}") from None
        sketch._check_record()
        return sketch

    def _check_record(self) -> None:
        def reject(field: str, problem: str) -> None:
            raise ValueError(f"malformed histogram record: {field} {problem}")

        for index, count in self._counts.items():
            if not _is_int(count) or count <= 0:
                reject(f"counts[{index}]",
                       f"must be a positive int, got {count!r}")
        if not _is_int(self._zeros) or self._zeros < 0:
            reject("zeros", f"must be a non-negative int, got {self._zeros!r}")
        total = sum(self._counts.values()) + self._zeros
        if not _is_int(self._count) or self._count != total:
            reject("count", f"is {self._count!r} but the buckets and zeros "
                            f"hold {total}")
        if not _is_number(self._sum):
            reject("sum", f"must be a number, got {self._sum!r}")
        if not self._count:
            if self._min is not None or self._max is not None:
                reject("min/max", "must be null in an empty sketch")
            return
        for field, bound in (("min", self._min), ("max", self._max)):
            if not _is_number(bound):
                reject(field, f"must be a number in a non-empty sketch, "
                              f"got {bound!r}")
        if self._min > self._max:
            reject("min", f"{self._min!r} exceeds max {self._max!r}")

    def __repr__(self) -> str:
        return (
            f"LogHistogram(count={self._count}, "
            f"buckets={len(self._counts)}, subbuckets={self.subbuckets})"
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


__all__ = ["DEFAULT_SUBBUCKETS", "LogHistogram"]
