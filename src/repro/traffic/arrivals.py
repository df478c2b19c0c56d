"""Seeded arrival processes: who shows up, and when.

The open-arrival tier's front door.  Each generator turns ``(rate,
horizon, seed)`` into a sorted list of integer arrival ticks — one tick
per session — drawn from its own :class:`random.Random`, so the arrival
pattern is a pure function of its parameters and never of wall time or
scheduling.  Three shapes cover the service-model literature:

- ``poisson`` — memoryless exponential inter-arrivals, the M/·/· base
  case and the calibration point for the offered-load axis.
- ``onoff`` — a bursty two-state source: exponential ON bursts at a
  boosted rate alternate with silent OFF gaps, preserving the long-run
  mean rate while concentrating arrivals (the tail-stress shape).
- ``diurnal`` — a sinusoid-modulated Poisson process via thinning:
  candidates arrive at the peak rate and survive with probability
  proportional to the phase of a day-length cycle.

All rates are *sessions per tick*; the engine's offered-load axis
scales the rate, never the shape.
"""

from __future__ import annotations

import math
import random
from typing import Callable


def poisson_arrivals(rate: float, horizon: int, seed: int) -> list[int]:
    """Arrival ticks of a Poisson process at ``rate`` sessions/tick.

    >>> ticks = poisson_arrivals(0.5, horizon=100, seed=7)
    >>> ticks == sorted(ticks) and all(0 <= t < 100 for t in ticks)
    True
    >>> poisson_arrivals(0.5, 100, 7) == ticks   # seeded: reproducible
    True
    """
    _validate(rate, horizon)
    rng = random.Random(seed)
    ticks: list[int] = []
    clock = 0.0
    while True:
        clock += rng.expovariate(rate)
        if clock >= horizon:
            return ticks
        ticks.append(int(clock))


def onoff_arrivals(
    rate: float,
    horizon: int,
    seed: int,
    burst_ticks: float = 20.0,
    idle_ticks: float = 20.0,
) -> list[int]:
    """Bursty ON/OFF arrivals with long-run mean ``rate``.

    The source alternates exponential ON bursts (mean ``burst_ticks``)
    with silent OFF gaps (mean ``idle_ticks``).  During a burst the
    instantaneous rate is boosted by ``(burst + idle) / burst`` so the
    long-run mean stays ``rate`` — the same offered load as the Poisson
    shape, delivered in clumps.
    """
    _validate(rate, horizon)
    if burst_ticks <= 0 or idle_ticks < 0:
        raise ValueError(
            f"burst_ticks must be positive and idle_ticks non-negative, "
            f"got {burst_ticks}/{idle_ticks}"
        )
    burst_rate = rate * (burst_ticks + idle_ticks) / burst_ticks
    rng = random.Random(seed)
    ticks: list[int] = []
    clock = 0.0
    while clock < horizon:
        burst_end = clock + rng.expovariate(1.0 / burst_ticks)
        while True:
            clock += rng.expovariate(burst_rate)
            if clock >= burst_end or clock >= horizon:
                break
            ticks.append(int(clock))
        clock = burst_end
        if idle_ticks:
            clock += rng.expovariate(1.0 / idle_ticks)
    return ticks


def diurnal_arrivals(
    rate: float,
    horizon: int,
    seed: int,
    period: float = 200.0,
) -> list[int]:
    """Sinusoid-modulated Poisson arrivals (mean ``rate``) via thinning.

    Candidates arrive at the peak rate ``2 × rate``; each survives with
    probability ``(1 + sin(2πt / period)) / 2`` — a day-shaped load
    curve whose trough sheds almost everything and whose crest doubles
    the mean.  Thinning keeps the draw count a pure function of the
    seed, so the pattern is reproducible like the other shapes.
    """
    _validate(rate, horizon)
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    rng = random.Random(seed)
    ticks: list[int] = []
    clock = 0.0
    while True:
        clock += rng.expovariate(2.0 * rate)
        if clock >= horizon:
            return ticks
        keep = (1.0 + math.sin(2.0 * math.pi * clock / period)) / 2.0
        if rng.random() < keep:
            ticks.append(int(clock))


def _validate(rate: float, horizon: int) -> None:
    # An infinite rate never advances the clock (expovariate answers
    # 0.0), and an infinite horizon never closes it; NaN passes every
    # ``<=`` test.  Each would draw arrivals until memory runs out.
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be finite and positive, got {rate}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")


#: The arrival-shape registry the CLI's ``--arrivals`` flag indexes.
ARRIVAL_PROCESSES: dict[str, Callable[..., list[int]]] = {
    "poisson": poisson_arrivals,
    "onoff": onoff_arrivals,
    "diurnal": diurnal_arrivals,
}


def make_arrivals(
    kind: str, rate: float, horizon: int, seed: int, **options
) -> list[int]:
    """Dispatch to a registered arrival process by name."""
    try:
        generator = ARRIVAL_PROCESSES[kind]
    except KeyError:
        known = ", ".join(sorted(ARRIVAL_PROCESSES))
        raise ValueError(
            f"unknown arrival process {kind!r}; choose from {known}"
        ) from None
    return generator(rate, horizon, seed, **options)


__all__ = [
    "ARRIVAL_PROCESSES",
    "diurnal_arrivals",
    "make_arrivals",
    "onoff_arrivals",
    "poisson_arrivals",
]
