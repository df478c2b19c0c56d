"""The telemetry registry: bounded-memory counters, gauges, histograms.

This is the always-on sibling of :class:`repro.observe.counters.Counters`.
Counters aggregate scalar totals after a run; the registry holds *live*
instruments — monotonic counters, last-value gauges, and
:class:`~repro.observe.telemetry.sketch.LogHistogram` distribution
sketches — that hot paths update while the simulation is still running,
and that fan in losslessly across sweep worker boundaries.

Design rules, matching the tracer tier:

- **Zero-cost when off.** ``NULL_TELEMETRY`` hands out no-op
  instruments; call sites thread ``telemetry=None`` and go through
  :func:`as_telemetry`, or keep a pre-bound instrument that is ``None``
  when disabled, so the disabled path is one attribute test.
- **Snapshots are plain JSON.** ``snapshot()`` returns dicts of
  numbers; ``merge_snapshot`` folds a worker's snapshot into the
  coordinator's registry, summing counters, max-ing gauges, and merging
  histograms *exactly* (bucket-count sums).
- **Determinism is legible in the name.** Instruments named ``*_seconds``
  hold wall-clock timings and are expected to differ run to run;
  :meth:`TelemetryRegistry.deterministic_snapshot` strips them, and the
  sweep engine compares only what remains. Everything else must be a
  pure function of the workload — the 100-seed differential tests pin
  that.
"""

from __future__ import annotations

import time
from typing import Callable

from .sketch import DEFAULT_SUBBUCKETS, LogHistogram
from .spans import NULL_SPAN, Span

#: Suffix marking wall-clock instruments, excluded from determinism
#: comparisons (the convention ``Counters`` timers and the sweep
#: engine's ``wall_s`` field already follow).
WALL_CLOCK_SUFFIX = "_seconds"


class Counter:
    """A monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """A last-value measurement (resident pages, pool occupancy)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()

    def increment(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class TelemetryRegistry:
    """A named collection of counters, gauges, and histogram sketches.

    Instruments are created on first use and are idempotent —
    ``registry.counter("replay.refs")`` returns the same object every
    call, so hot paths can bind once and the dashboard can look the
    name up later.  A name is one kind only; asking for
    ``counter("x")`` after ``gauge("x")`` raises.

    >>> registry = TelemetryRegistry()
    >>> registry.counter("replay.refs").increment(3)
    >>> registry.histogram("replay.fault_gap").observe(7)
    >>> registry.snapshot()["counters"]["replay.refs"]
    3
    """

    def __init__(self, enabled: bool = True,
                 subbuckets: int = DEFAULT_SUBBUCKETS) -> None:
        self.enabled = enabled
        self.subbuckets = subbuckets
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LogHistogram] = {}
        self._units: dict[str, str] = {}

    # -- instrument creation -------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        if not isinstance(name, str) or not name:
            raise TypeError(f"instrument name must be a non-empty str, "
                            f"got {name!r}")
        for registry, owner in ((self._counters, "counter"),
                                (self._gauges, "gauge"),
                                (self._histograms, "histogram")):
            if owner != kind and name in registry:
                raise ValueError(
                    f"{name!r} is already registered as a {owner}, "
                    f"cannot re-register as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT
        instrument = self._counters.get(name)
        if instrument is None:
            self._claim(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT
        instrument = self._gauges.get(name)
        if instrument is None:
            self._claim(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, unit: str = "") -> LogHistogram:
        if not self.enabled:
            return _NULL_INSTRUMENT
        sketch = self._histograms.get(name)
        if sketch is None:
            self._claim(name, "histogram")
            sketch = self._histograms[name] = LogHistogram(self.subbuckets)
            if unit:
                self._units[name] = unit
        return sketch

    def span(self, name: str,
             clock: Callable[[], float] | None = None) -> Span:
        """A reusable :class:`Span` feeding ``histogram(name)``.

        With the default wall clock the name must end ``_seconds`` so
        determinism comparisons know to strip it; an injected ``clock``
        (simulation cycles, a test stub) carries its own unit in the
        name and is expected to be deterministic.
        """
        if not self.enabled:
            return NULL_SPAN
        if clock is None:
            if not name.endswith(WALL_CLOCK_SUFFIX):
                raise ValueError(
                    f"wall-clock span {name!r} must end "
                    f"{WALL_CLOCK_SUFFIX!r} (or inject a deterministic "
                    f"clock)"
                )
            clock = time.perf_counter
        unit = "seconds" if name.endswith(WALL_CLOCK_SUFFIX) else ""
        return Span(self.histogram(name, unit=unit), clock)

    # -- reading -------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument else 0

    def gauge_value(self, name: str) -> float:
        instrument = self._gauges.get(name)
        return instrument.value if instrument else 0

    def histogram_sketch(self, name: str) -> LogHistogram | None:
        return self._histograms.get(name)

    def unit(self, name: str) -> str:
        return self._units.get(name, "")

    def __bool__(self) -> bool:
        return self.enabled

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe state: plain dicts, sorted names, picklable."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].to_dict()
                           for name in sorted(self._histograms)},
            "units": {name: self._units[name]
                      for name in sorted(self._units)},
        }

    def deterministic_snapshot(self) -> dict:
        """``snapshot()`` minus wall-clock instruments.

        What remains must be a pure function of the workload: identical
        across worker counts, merge orders, and telemetry re-runs.  The
        sweep determinism tests compare exactly this.
        """
        snapshot = self.snapshot()
        for section in ("counters", "gauges", "histograms", "units"):
            snapshot[section] = {
                name: value for name, value in snapshot[section].items()
                if not name.endswith(WALL_CLOCK_SUFFIX)
            }
        return snapshot

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker's ``snapshot()`` in: sum, max, exact merge.

        Counters sum and histograms merge bucket-wise, both exactly
        associative and commutative; gauges take the max (the natural
        fold for high-water readings crossing a worker boundary).
        Unknown sections and mistyped values raise — a malformed worker
        snapshot must fail loudly, not skew the campaign.
        """
        known = {"counters", "gauges", "histograms", "units"}
        unknown = set(snapshot) - known
        if unknown:
            raise ValueError(
                f"unknown telemetry snapshot sections: {sorted(unknown)}"
            )
        for name, value in snapshot.get("counters", {}).items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(
                    f"telemetry counter {name!r} must be an int, "
                    f"got {value!r}"
                )
            self.counter(name).increment(value)
        for name, value in snapshot.get("gauges", {}).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"telemetry gauge {name!r} must be a number, "
                    f"got {value!r}"
                )
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, record in snapshot.get("histograms", {}).items():
            incoming = LogHistogram.from_dict(record)
            self.histogram(name).merge(incoming)
        for name, unit in snapshot.get("units", {}).items():
            if unit:
                self._units.setdefault(name, unit)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "TelemetryRegistry":
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry


class _NullTelemetry(TelemetryRegistry):
    """The disabled registry: every instrument is the shared no-op.

    Frozen so a stray ``enabled = True`` cannot quietly turn the
    process-wide null object into a live registry.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def __setattr__(self, name: str, value) -> None:
        if name == "enabled" and value:
            raise AttributeError("NULL_TELEMETRY cannot be enabled; "
                                 "create a TelemetryRegistry instead")
        super().__setattr__(name, value)


#: Shared disabled registry — the default everywhere telemetry is not
#: explicitly requested, mirroring ``NULL_TRACER``.
NULL_TELEMETRY = _NullTelemetry()


def as_telemetry(telemetry: TelemetryRegistry | None) -> TelemetryRegistry:
    """Normalize an optional telemetry argument to a registry."""
    return NULL_TELEMETRY if telemetry is None else telemetry


__all__ = [
    "WALL_CLOCK_SUFFIX",
    "Counter",
    "Gauge",
    "TelemetryRegistry",
    "NULL_TELEMETRY",
    "as_telemetry",
]
