"""The per-draw generators: the oracle the workload module must match.

These are ``iter_phased`` and ``phased_trace`` from
``repro.workload.reference`` and ``seeded_writes`` from
``repro.serve.replay`` as they were before ``phased_trace`` and
``iter_phased`` moved onto one block loop with an inlined rejection
draw.  They call ``random.Random``'s public ``sample``, ``choice``,
``randrange`` and ``random`` once per reference, so they define which
Mersenne Twister draws a trace consumes and in what order.

``uniform_requests``, ``exponential_requests`` and ``request_schedule``
are ``repro.workload.requests`` as it was before request streams were
drawn as int columns and ordered as integers: one ``AllocationRequest``
per request, one public ``randint``/``expovariate`` call per draw, and
a stable sort of ``(time, kind, action, request)`` tuples.

All are kept here, test-only and unchanged, as the reference the
differential suites (``tests/test_workload_differential.py`` and
``tests/test_requests_differential.py``) pin the generators to.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Iterator

from repro.trace import ColumnarTrace
from repro.workload.reference import _resolve_rng
from repro.workload.requests import AllocationRequest


def iter_phased(
    pages: int,
    length: int,
    working_set: int = 4,
    phase_length: int = 100,
    locality: float = 0.95,
    seed: int = 0,
    rng: random.Random | None = None,
) -> Iterator[int]:
    """The reference stream of :func:`phased_trace`."""
    if pages <= 0 or length <= 0:
        raise ValueError("pages and length must be positive")
    if not 0 < working_set <= pages:
        raise ValueError("working_set must be in 1..pages")
    if phase_length <= 0:
        raise ValueError("phase_length must be positive")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be a probability")
    generator = _resolve_rng(rng, seed)
    current_set = generator.sample(range(pages), working_set)
    for index in range(length):
        if index and index % phase_length == 0:
            current_set = generator.sample(range(pages), working_set)
        if generator.random() < locality:
            yield generator.choice(current_set)
        else:
            yield generator.randrange(pages)


def phased_trace(
    pages: int,
    length: int,
    working_set: int = 4,
    phase_length: int = 100,
    locality: float = 0.95,
    seed: int = 0,
    rng: random.Random | None = None,
) -> ColumnarTrace:
    """The locality-phase model.

    The program dwells on a working set of ``working_set`` pages for
    ``phase_length`` references, hitting inside the set with probability
    ``locality`` (and anywhere, uniformly, otherwise), then jumps to a
    fresh working set.  This is the trace family on which the paper's
    "sufficient working storage for each program" condition is
    well-defined: give a program ≥ ``working_set`` frames and faults are
    rare; give it fewer and Figure 3's waiting dominates.
    """
    return ColumnarTrace(iter_phased(
        pages,
        length,
        working_set=working_set,
        phase_length=phase_length,
        locality=locality,
        seed=seed,
        rng=rng,
    ))


def seeded_writes(
    length: int, fraction: float = 0.1, seed: int = 0
) -> list[bool]:
    """Deterministic per-reference write flags (drives CoW breaks)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    return [rng.random() < fraction for _ in range(length)]


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
