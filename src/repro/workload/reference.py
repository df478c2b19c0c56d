"""Page-reference trace generators.

Each function returns a :class:`~repro.trace.ColumnarTrace` — the
repository's one in-memory reference string — over the ``array('q')`` of
page numbers it draws.  The phase-structured generator is the
workhorse: programs exhibit locality — they dwell on a small working set,
then move to another — which is the behaviour that makes "recent history
of usage" a useful replacement guide and demand paging effective; the
uniform random trace is the adversarial contrast.

Randomized generators accept either a ``seed`` (fresh generator per call,
the historical interface) or an explicit ``rng`` — a caller-owned
:class:`random.Random` — so composite experiments can draw every trace
from one reproducible stream without touching the module-global
``random`` state.  When ``rng`` is given it takes precedence over
``seed``.
"""

from __future__ import annotations

import random
from array import array
from itertools import chain, islice, repeat
from operator import index as _index
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.trace.columnar import ColumnarTrace


def _resolve_rng(rng: random.Random | None, seed: int) -> random.Random:
    return rng if rng is not None else random.Random(seed)


def _columnar(pages: array) -> ColumnarTrace:
    """``pages`` wrapped, not copied, as a :class:`ColumnarTrace`.

    Imported when called: :mod:`repro.trace` imports this module
    (through :mod:`repro.trace.generate`), so a module-level import
    would cycle.
    """
    from repro.trace.columnar import ColumnarTrace

    return ColumnarTrace(pages)


# Each generator is split into a validated *iterator* (the single source
# of truth for the reference stream, consumed one page id at a time) and
# the historical whole-trace constructor.  The streaming writers in
# :mod:`repro.trace.generate` consume the same iterators, so a trace
# written to disk in chunks is bit-identical to the in-memory trace the
# same parameters produce.  Every iterator checks its arguments when it
# is called, not when it is first advanced, so a bad call fails before
# a writer has opened its output.


def iter_sequential(pages: int, sweeps: int = 1) -> Iterator[int]:
    """The reference stream of :func:`sequential_trace`."""
    if pages <= 0 or sweeps <= 0:
        raise ValueError("pages and sweeps must be positive")
    return chain.from_iterable(repeat(range(pages), sweeps))


def sequential_trace(pages: int, sweeps: int = 1) -> ColumnarTrace:
    """0,1,...,pages-1 repeated ``sweeps`` times (a sequential file scan)."""
    return _columnar(array("q", iter_sequential(pages, sweeps)))


def iter_cyclic(pages: int, length: int) -> Iterator[int]:
    """The reference stream of :func:`cyclic_trace`."""
    if pages <= 0 or length <= 0:
        raise ValueError("pages and length must be positive")
    return (i % pages for i in range(length))


def cyclic_trace(pages: int, length: int) -> ColumnarTrace:
    """A tight loop over ``pages`` pages, ``length`` references long.

    The classic LRU/FIFO worst case when the loop exceeds memory.
    """
    return _columnar(array("q", iter_cyclic(pages, length)))


def iter_random(
    pages: int, length: int, seed: int = 0, rng: random.Random | None = None
) -> Iterator[int]:
    """The reference stream of :func:`random_trace`."""
    if pages <= 0 or length <= 0:
        raise ValueError("pages and length must be positive")
    generator = _resolve_rng(rng, seed)
    return (generator.randrange(pages) for _ in range(length))


def random_trace(
    pages: int, length: int, seed: int = 0, rng: random.Random | None = None
) -> ColumnarTrace:
    """Uniformly random references — no locality at all."""
    return _columnar(
        array("q", iter_random(pages, length, seed=seed, rng=rng))
    )


def iter_zipf(
    pages: int,
    length: int,
    skew: float = 1.0,
    seed: int = 0,
    rng: random.Random | None = None,
    chunk: int = 8192,
) -> Iterator[int]:
    """The reference stream of :func:`zipf_trace`.

    Draws through ``random.choices`` in bounded batches; each weighted
    draw consumes exactly one underlying ``random()`` call, so the
    stream is identical for any batching.
    """
    if pages <= 0 or length <= 0:
        raise ValueError("pages and length must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    return _zipf_stream(_resolve_rng(rng, seed), pages, length, skew, chunk)


def _zipf_stream(
    generator: random.Random, pages: int, length: int, skew: float,
    chunk: int,
) -> Iterator[int]:
    weights = [1.0 / (rank ** skew) for rank in range(1, pages + 1)]
    population = range(pages)
    remaining = length
    while remaining > 0:
        batch = min(chunk, remaining)
        yield from generator.choices(population, weights=weights, k=batch)
        remaining -= batch


def zipf_trace(
    pages: int,
    length: int,
    skew: float = 1.0,
    seed: int = 0,
    rng: random.Random | None = None,
) -> ColumnarTrace:
    """Zipf-biased references: a few pages dominate (hot code/data).

    ``skew`` of 0 degenerates to uniform; larger values concentrate the
    mass on low-numbered pages.
    """
    return _columnar(
        array("q", iter_zipf(pages, length, skew=skew, seed=seed, rng=rng))
    )


#: References per block of the phased generator: the most that
#: :func:`iter_phased` draws ahead of what it has yielded.
_PHASED_BLOCK = 1 << 16


def _check_phased(
    pages: int, length: int, working_set: int, phase_length: int,
    locality: float,
) -> None:
    if pages <= 0 or length <= 0:
        raise ValueError("pages and length must be positive")
    if not 0 < working_set <= pages:
        raise ValueError("working_set must be in 1..pages")
    if phase_length <= 0:
        raise ValueError("phase_length must be positive")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be a probability")


def _phased_references(
    generator: random.Random, pages: int, length: int, working_set: int,
    phase_length: int, locality: float,
) -> Iterator[int]:
    """The phased stream one reference at a time, through the public
    ``sample``, ``random``, ``choice`` and ``randrange`` calls."""
    current_set = generator.sample(range(pages), working_set)
    for index in range(length):
        if index and index % phase_length == 0:
            current_set = generator.sample(range(pages), working_set)
        if generator.random() < locality:
            yield generator.choice(current_set)
        else:
            yield generator.randrange(pages)


def _phased_blocks(
    generator: random.Random, pages: int, length: int, working_set: int,
    phase_length: int, locality: float,
) -> Iterator[list[int]]:
    """The phased stream as lists of at most ``_PHASED_BLOCK`` references.

    For a plain :class:`random.Random` this inlines what ``choice`` and
    ``randrange`` do — ``_randbelow_with_getrandbits``: draw
    ``n.bit_length()`` bits, again while the draw is ``>= n`` — so it
    consumes the same Mersenne Twister draws in the same order as
    :func:`_phased_references`.  Selection is by exact type: a subclass
    that overrides only ``random()`` gets ``_randbelow_without_getrandbits``
    from ``Random.__init_subclass__``, so any other type runs the public
    calls, cut into the same blocks.
    """
    if type(generator) is not random.Random:
        stream = _phased_references(
            generator, pages, length, working_set, phase_length, locality,
        )
        while block := list(islice(stream, _PHASED_BLOCK)):
            yield block
        return
    uniform = generator.random
    getrandbits = generator.getrandbits
    span = _index(pages)                 # what randrange(pages) draws below
    span_bits = span.bit_length()
    index = phase_end = 0
    while index < length:
        block: list[int] = []
        append = block.append
        stop = min(length, index + _PHASED_BLOCK)
        while index < stop:
            if index == phase_end:
                current_set = generator.sample(range(pages), working_set)
                size = len(current_set)  # what choice(current_set) draws below
                size_bits = size.bit_length()
                phase_end = index + phase_length
            run_end = min(stop, phase_end)
            for _ in repeat(None, run_end - index):
                if uniform() < locality:
                    r = getrandbits(size_bits)
                    while r >= size:
                        r = getrandbits(size_bits)
                    append(current_set[r])
                else:
                    r = getrandbits(span_bits)
                    while r >= span:
                        r = getrandbits(span_bits)
                    append(r)
            index = run_end
        yield block


def iter_phased(
    pages: int,
    length: int,
    working_set: int = 4,
    phase_length: int = 100,
    locality: float = 0.95,
    seed: int = 0,
    rng: random.Random | None = None,
) -> Iterator[int]:
    """The reference stream of :func:`phased_trace`.

    The stream is generated in blocks of up to 65,536 references, so the
    iterator draws up to one block ahead of what it has yielded.  A
    caller-owned ``rng`` must not be used elsewhere until the iterator
    is exhausted; it then ends in the state :func:`phased_trace` leaves.
    """
    _check_phased(pages, length, working_set, phase_length, locality)
    return chain.from_iterable(_phased_blocks(
        _resolve_rng(rng, seed), pages, length, working_set, phase_length,
        locality,
    ))


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
    _check_phased(pages, length, working_set, phase_length, locality)
    data = array("q")
    for block in _phased_blocks(
        _resolve_rng(rng, seed), pages, length, working_set, phase_length,
        locality,
    ):
        data.fromlist(block)
    return _columnar(data)
