"""Fixtures shared across the test modules."""

import pytest

from repro.serve.pool import REFUSED, SharedFramePool


@pytest.fixture
def plant_leak(monkeypatch):
    """Make one pin of every shared frame pool count twice.

    A pin is every reference the pool adds: a successful acquire of a
    view's page, the private copy of a copy-on-write break, or the
    reference a refused break leaves on the shared content.
    ``plant_leak(nth)`` resets the pin tally and arms the leak: the
    ``nth`` pin adds one more reference to the content it pinned, so
    the pool holds a reference no tenant view accounts for.  ``nth=0``
    only counts.  Returns the tally, ``{"n": pins so far}``.
    """
    pins = {"n": 0, "nth": 0}
    acquire = SharedFramePool.acquire
    cow_break = SharedFramePool.cow_break

    def pinned(pool, key):
        pins["n"] += 1
        if pins["n"] == pins["nth"]:
            pool._refs[key] += 1

    def leaky_acquire(self, view, page):
        result = acquire(self, view, page)
        if result is not REFUSED:
            pinned(self, view.key_for(page))
        return result

    def leaky_cow_break(self, view, page):
        # A break pins the page's new private key, and a refused one
        # the shared key the page still maps; a private page pins none.
        result = cow_break(self, view, page)
        if result is not None:
            pinned(self, view.key_for(page))
        return result

    monkeypatch.setattr(SharedFramePool, "acquire", leaky_acquire)
    monkeypatch.setattr(SharedFramePool, "cow_break", leaky_cow_break)

    def plant(nth):
        pins.update(n=0, nth=nth)
        return pins

    return plant
