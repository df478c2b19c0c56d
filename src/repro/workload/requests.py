"""Allocation request streams.

For the placement, compaction and fragmentation experiments: sequences
of (size, lifetime) requests, from which a driver derives the interleaved
allocate/free schedule an allocator actually sees.  "The choice of a
placement strategy should be influenced by ... the frequency of storage
allocation requests, the average size of allocation unit, and the number
of different allocation units" — all three are parameters here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator


@dataclass(frozen=True)
class AllocationRequest:
    """One allocation request: arrives, lives, departs."""

    arrival: int
    size: int
    lifetime: int

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.lifetime <= 0:
            raise ValueError("lifetime must be positive")

    @property
    def departure(self) -> int:
        return self.arrival + self.lifetime


def uniform_requests(
    count: int,
    min_size: int,
    max_size: int,
    mean_lifetime: int,
    interarrival: int = 1,
    seed: int = 0,
    rng: random.Random | None = None,
) -> list[AllocationRequest]:
    """Sizes uniform in [min_size, max_size], geometric lifetimes.

    Pass ``rng`` to draw from a shared generator (it takes precedence
    over ``seed``); otherwise a fresh ``random.Random(seed)`` is used.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 < min_size <= max_size:
        raise ValueError("need 0 < min_size <= max_size")
    if mean_lifetime <= 0 or interarrival <= 0:
        raise ValueError("mean_lifetime and interarrival must be positive")
    rng = rng if rng is not None else random.Random(seed)
    requests = []
    for index in range(count):
        requests.append(
            AllocationRequest(
                arrival=index * interarrival,
                size=rng.randint(min_size, max_size),
                lifetime=max(1, round(rng.expovariate(1.0 / mean_lifetime))),
            )
        )
    return requests


def exponential_requests(
    count: int,
    mean_size: int,
    mean_lifetime: int,
    interarrival: int = 1,
    max_size: int | None = None,
    seed: int = 0,
    rng: random.Random | None = None,
) -> list[AllocationRequest]:
    """Exponentially distributed sizes — many small, occasional large.

    The regime where "the average allocation request involves an amount
    of storage that is quite small compared with the extent of physical
    storage" and accepting fragmentation "is often quite reasonable".
    ``max_size``, when given, caps every size and must be a positive
    int.  Pass ``rng`` to draw from a shared generator (it takes
    precedence over ``seed``).
    """
    if count <= 0 or mean_size <= 0 or mean_lifetime <= 0 or interarrival <= 0:
        raise ValueError("count, mean_size, mean_lifetime, interarrival must be positive")
    if max_size is not None and (
        isinstance(max_size, bool) or not isinstance(max_size, int) or max_size <= 0
    ):
        raise ValueError(f"max_size must be a positive int, got {max_size!r}")
    rng = rng if rng is not None else random.Random(seed)
    requests = []
    for index in range(count):
        size = max(1, round(rng.expovariate(1.0 / mean_size)))
        if max_size is not None:
            size = min(size, max_size)
        requests.append(
            AllocationRequest(
                arrival=index * interarrival,
                size=size,
                lifetime=max(1, round(rng.expovariate(1.0 / mean_lifetime))),
            )
        )
    return requests


def request_schedule(
    requests: list[AllocationRequest],
) -> Iterator[tuple[int, str, AllocationRequest]]:
    """Interleave arrivals and departures into one time-ordered schedule.

    Yields ``(time, "allocate"|"free", request)``.  At equal times,
    departures come first (a block freed at t is available to a request
    arriving at t).
    """
    events: list[tuple[int, int, str, AllocationRequest]] = []
    for request in requests:
        events.append((request.arrival, 1, "allocate", request))
        events.append((request.departure, 0, "free", request))
    events.sort(key=itemgetter(0, 1))
    for time, _, action, request in events:
        yield time, action, request
