"""The per-reference generators: the oracle the workload module must match.

These are ``iter_phased`` and ``phased_trace`` from
``repro.workload.reference`` and ``seeded_writes`` from
``repro.serve.replay`` as they were before ``phased_trace`` and
``iter_phased`` moved onto one block loop with an inlined rejection
draw.  They call ``random.Random``'s public ``sample``, ``choice``,
``randrange`` and ``random`` once per reference, so they define which
Mersenne Twister draws a trace consumes and in what order.  They are
kept here, test-only and unchanged, as the reference the differential
suite (``tests/test_workload_differential.py``) pins the generators to.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.workload.reference import Trace, _resolve_rng


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
) -> Trace:
    """The locality-phase model.

    The program dwells on a working set of ``working_set`` pages for
    ``phase_length`` references, hitting inside the set with probability
    ``locality`` (and anywhere, uniformly, otherwise), then jumps to a
    fresh working set.  This is the trace family on which the paper's
    "sufficient working storage for each program" condition is
    well-defined: give a program ≥ ``working_set`` frames and faults are
    rare; give it fewer and Figure 3's waiting dominates.
    """
    return Trace(iter_phased(
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
