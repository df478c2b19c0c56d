"""Histograms for request-size and lifetime distributions.

The paper's case for accepting fragmentation rests on statistics:
"analysis or experimentation can often be used to show that the storage
utilization will remain at an acceptable level" (citing Wald).  The
histogram is the analysis tool: feed it a request stream's sizes or
lifetimes and read off the distribution the placement experiments
assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Bin:
    """One histogram bin: [low, high) and its count."""

    low: float
    high: float
    count: int


class Histogram:
    """Fixed-width binning with summary statistics.

    >>> histogram = Histogram.from_values([1, 2, 2, 9], bins=2)
    >>> [bin.count for bin in histogram.bins]
    [3, 1]
    """

    def __init__(self, bins: list[Bin], values: Sequence[float]) -> None:
        self.bins = bins
        self._values = list(values)

    @classmethod
    def from_values(cls, values: Sequence[float], bins: int = 10) -> "Histogram":
        if not values:
            raise ValueError("cannot histogram an empty sequence")
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        low, high = min(values), max(values)
        if low == high:
            return cls([Bin(low, high, len(values))], values)
        width = (high - low) / bins
        counts = [0] * bins
        for value in values:
            index = min(int((value - low) / width), bins - 1)
            counts[index] += 1
        bin_list = [
            Bin(low + i * width, low + (i + 1) * width, counts[i])
            for i in range(bins)
        ]
        return cls(bin_list, values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return sum(self._values) / len(self._values)

    @property
    def variance(self) -> float:
        mean = self.mean
        return sum((v - mean) ** 2 for v in self._values) / len(self._values)

    def percentile(self, fraction: float) -> float:
        """Element ``floor(fraction * n)`` of the sorted sample (0-based,
        clamped to the last), for ``fraction`` in 0..1.

        This is not nearest rank: p50 of 1..100 is 51, where nearest
        rank gives 50.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        ordered = sorted(self._values)
        index = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def render(self, width: int = 40) -> str:
        """ASCII rendering, one line per bin."""
        peak = max(bin.count for bin in self.bins) or 1
        lines = []
        for bin in self.bins:
            bar = "#" * round(width * bin.count / peak)
            lines.append(
                f"[{bin.low:10.1f}, {bin.high:10.1f})  {bin.count:6d}  {bar}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, bins={len(self.bins)})"
