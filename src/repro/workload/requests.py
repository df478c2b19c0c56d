"""Allocation request streams.

For the placement, compaction and fragmentation experiments: sequences
of (size, lifetime) requests, from which a driver derives the interleaved
allocate/free schedule an allocator actually sees.  "The choice of a
placement strategy should be influenced by ... the frequency of storage
allocation requests, the average size of allocation unit, and the number
of different allocation units" — all three are parameters here.

A stream is drawn once, by one loop, as two int columns: ``sizes`` and
``lifetimes``, each request's size drawn before its lifetime.  Request
``i`` arrives at ``i × interarrival``.  One integer order,
:func:`schedule_order`, interleaves the arrivals and departures.
:func:`exponential_requests` and :func:`uniform_requests` wrap the
columns in :class:`AllocationRequest` objects, and
:func:`request_schedule` yields the order as ``(time, action, request)``
tuples.  A caller that needs neither, such as the sweep's churn leg,
walks the order over :func:`exponential_columns` directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from math import inf, log
from typing import Iterable, Iterator, Sequence

from repro.alloc.base import check_int


@dataclass(frozen=True)
class AllocationRequest:
    """One allocation request: arrives, lives, departs.

    All three fields must pass :func:`~repro.alloc.base.check_int`, so a
    schedule orders whole times and an allocator gets a whole size.
    """

    arrival: int
    size: int
    lifetime: int

    def __post_init__(self) -> None:
        check_int(self.arrival, "arrival")
        check_int(self.size, "size")
        check_int(self.lifetime, "lifetime")
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.lifetime <= 0:
            raise ValueError("lifetime must be positive")

    @property
    def departure(self) -> int:
        return self.arrival + self.lifetime


def _draw_columns(
    rng: random.Random,
    count: int,
    mean_lifetime: float,
    mean_size: float | None = None,
    max_size: int | None = None,
    size_range: tuple[int, int] | None = None,
) -> tuple[list[int], list[int]]:
    """``count`` requests as ``(sizes, lifetimes)``, size drawn first.

    A size is ``rng.randint(*size_range)`` when ``size_range`` is given,
    else ``max(1, round(rng.expovariate(1 / mean_size)))`` capped at
    ``max_size``; a lifetime is
    ``max(1, round(rng.expovariate(1 / mean_lifetime)))``.  For a plain
    :class:`random.Random` the loop binds ``random`` as a local and
    inlines ``expovariate``'s body, ``-log(1.0 - random()) / lambd``,
    with each rate computed once, so it consumes the same Mersenne
    Twister draws in the same order as the public calls.  Selection is
    by exact type: any other type may override ``expovariate``, so it
    gets the public call per draw.
    """
    sizes: list[int] = []
    lifetimes: list[int] = []
    add_size = sizes.append
    add_lifetime = lifetimes.append
    lifetime_rate = 1.0 / mean_lifetime
    if size_range is None:
        size_rate = 1.0 / mean_size
        cap = inf if max_size is None else max_size
    else:
        low, high = size_range
        randint = rng.randint
    if type(rng) is not random.Random:
        expovariate = rng.expovariate
        for _ in repeat(None, count):
            if size_range is None:
                add_size(min(max(1, round(expovariate(size_rate))), cap))
            else:
                add_size(randint(low, high))
            add_lifetime(max(1, round(expovariate(lifetime_rate))))
        return sizes, lifetimes
    uniform = rng.random
    for _ in repeat(None, count):
        if size_range is None:
            size = round(-log(1.0 - uniform()) / size_rate)
            add_size(1 if size < 1 else cap if size > cap else size)
        else:
            add_size(randint(low, high))
        lifetime = round(-log(1.0 - uniform()) / lifetime_rate)
        add_lifetime(lifetime if lifetime > 1 else 1)
    return sizes, lifetimes


def _as_requests(
    sizes: list[int], lifetimes: list[int], interarrival: int
) -> list[AllocationRequest]:
    return [
        AllocationRequest(arrival=index * interarrival, size=size,
                          lifetime=lifetime)
        for index, (size, lifetime) in enumerate(zip(sizes, lifetimes))
    ]


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

    ``count``, ``min_size``, ``max_size`` and ``interarrival`` must be
    ints (``TypeError`` otherwise).  Pass ``rng`` to draw from a shared
    generator (it takes precedence over ``seed``); otherwise a fresh
    ``random.Random(seed)`` is used.
    """
    for value, name in ((count, "count"), (min_size, "min_size"),
                        (max_size, "max_size"), (interarrival, "interarrival")):
        check_int(value, name)
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 < min_size <= max_size:
        raise ValueError("need 0 < min_size <= max_size")
    if mean_lifetime <= 0 or interarrival <= 0:
        raise ValueError("mean_lifetime and interarrival must be positive")
    rng = rng if rng is not None else random.Random(seed)
    sizes, lifetimes = _draw_columns(
        rng, count, mean_lifetime, size_range=(min_size, max_size)
    )
    return _as_requests(sizes, lifetimes, interarrival)


def _check_exponential(
    count: int, mean_size: int, mean_lifetime: int, max_size: int | None,
    interarrival: int = 1,
) -> None:
    check_int(count, "count")
    check_int(interarrival, "interarrival")
    if count <= 0 or mean_size <= 0 or mean_lifetime <= 0 or interarrival <= 0:
        raise ValueError("count, mean_size, mean_lifetime, interarrival must be positive")
    if max_size is not None and (
        isinstance(max_size, bool) or not isinstance(max_size, int) or max_size <= 0
    ):
        raise ValueError(f"max_size must be a positive int, got {max_size!r}")


def exponential_columns(
    count: int,
    mean_size: int,
    mean_lifetime: int,
    max_size: int | None = None,
    seed: int = 0,
    rng: random.Random | None = None,
) -> tuple[list[int], list[int]]:
    """The ``(sizes, lifetimes)`` columns of :func:`exponential_requests`.

    The same checks and the same draws, without the request objects;
    request ``i`` is the ``i``-th entry of both lists.
    """
    _check_exponential(count, mean_size, mean_lifetime, max_size)
    rng = rng if rng is not None else random.Random(seed)
    return _draw_columns(
        rng, count, mean_lifetime, mean_size=mean_size, max_size=max_size
    )


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
    ``count`` and ``interarrival`` must be ints (``TypeError``
    otherwise).  ``max_size``, when given, caps every size and must be
    a positive int.  Pass ``rng`` to draw from a shared generator (it
    takes precedence over ``seed``).
    """
    _check_exponential(count, mean_size, mean_lifetime, max_size, interarrival)
    sizes, lifetimes = exponential_columns(
        count, mean_size, mean_lifetime, max_size=max_size, seed=seed, rng=rng
    )
    return _as_requests(sizes, lifetimes, interarrival)


def schedule_order(
    arrivals: Sequence[int], departures: Sequence[int]
) -> list[int]:
    """The allocate/free schedule of ``n`` requests, as ints below ``2n``.

    Event ``e < n`` frees request ``e``; event ``e >= n`` allocates
    request ``e - n``.  Events run in time order.  At equal times frees
    come first (a block freed at t is available to a request arriving
    at t), and events of one kind go by request index.  Each event
    sorts as the integer ``time × 2n + e``, which encodes exactly that
    rule, so the order needs whole times.
    """
    count = len(arrivals)
    span = 2 * count
    codes = [time * span + event for event, time in enumerate(departures)]
    codes += [time * span + event
              for event, time in enumerate(arrivals, count)]
    codes.sort()
    return [code % span for code in codes]


def request_schedule(
    requests: Iterable[AllocationRequest],
) -> Iterator[tuple[int, str, AllocationRequest]]:
    """Interleave arrivals and departures into one time-ordered schedule.

    Yields ``(time, "allocate"|"free", request)`` in
    :func:`schedule_order`: at equal times, departures come first (a
    block freed at t is available to a request arriving at t), and
    ties within a kind go in list order.
    """
    requests = list(requests)
    count = len(requests)
    arrivals = [request.arrival for request in requests]
    departures = [request.departure for request in requests]
    for event in schedule_order(arrivals, departures):
        if event < count:
            yield departures[event], "free", requests[event]
        else:
            event -= count
            yield arrivals[event], "allocate", requests[event]
