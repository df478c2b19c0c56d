"""Fixtures shared across the test modules."""

import pytest

from repro.errors import OutOfMemory
from repro.serve.pool import SharedFramePool


@pytest.fixture
def plant_leak(monkeypatch):
    """Make one pin of every shared frame pool count twice.

    A pin is every reference the pool adds: a successful acquire, by
    key or by a view's page, the private copy of a copy-on-write break,
    or the reference a refused break gives back to the shared content.
    ``plant_leak(nth)`` resets the pin tally and arms the leak: the
    ``nth`` pin adds one more reference to the content it pinned, so
    the pool holds a reference no tenant view accounts for.  ``nth=0``
    only counts.  Returns the tally, ``{"n": pins so far}``.
    """
    pins = {"n": 0, "nth": 0}
    acquire = SharedFramePool._acquire
    acquire_page = SharedFramePool.acquire_page
    cow_break = SharedFramePool._cow_break

    def pinned(pool, key):
        pins["n"] += 1
        if pins["n"] == pins["nth"]:
            pool._refs[key] += 1

    def leaky_acquire(self, key, program=None):
        result = acquire(self, key, program)
        pinned(self, key)
        return result

    def leaky_acquire_page(self, view, page):
        result = acquire_page(self, view, page)
        if result is not None:
            pinned(self, view.key_for(page))
        return result

    def leaky_cow_break(self, shared_key, private_key, program=None):
        try:
            frame = cow_break(self, shared_key, private_key, program)
        except OutOfMemory:
            pinned(self, shared_key)
            raise
        pinned(self, private_key)
        return frame

    monkeypatch.setattr(SharedFramePool, "_acquire", leaky_acquire)
    monkeypatch.setattr(SharedFramePool, "acquire_page", leaky_acquire_page)
    monkeypatch.setattr(SharedFramePool, "_cow_break", leaky_cow_break)

    def plant(nth):
        pins.update(n=0, nth=nth)
        return pins

    return plant
