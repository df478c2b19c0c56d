"""The pool's three serving entries pinned to the view they replaced,
op by op.

``SharedFramePool.acquire``, ``release`` and ``cow_break`` fault,
release and copy-on-write break a tenant view's page in one call each,
and ``TenantView.acquire_detail`` (with ``acquire``), ``release`` and
``note_write`` are facades over them.  The view as it was, going
through the pool's key-level ``acquire``, ``release`` and
``cow_break``, is kept as the oracle in ``tests/pool_reference.py``,
over the reference pool.  Each seed drives both sides through the same
random walk of faults, releases, writes, forks, new views and
unregistrations, over 1 to 12 frames and views with default, custom and
aliasing share keys, exhaustion, double releases and refused breaks
included, with ``pool.now`` set now and then and a tracer and a
telemetry registry attached.  Now and then a new view or a fork picks
a live tenant's name: the pool refuses it, which the reference pool did
not, and the step is skipped on both sides.  Faults, releases and writes
alternate between the pool entries and the view facades.  After every
step the two sides must agree on the return value or the error
(``REFUSED`` from ``acquire`` or ``cow_break`` stands for the
reference's ``OutOfMemory``), the statistics of the pool and of every
view, the events, every view's resident pages, frames, owners and
cached keys, every refcount and frame owner, the reclaim order and the
deterministic telemetry, and both must pass ``check_invariants``.  Odd
seeds sample the acquire span on every fourth operation, so the sampled
calls and the ``serve.resident_frames`` gauge are compared often.
"""

import random
from collections import Counter

import pytest

from repro.errors import OutOfMemory
from repro.observe.sinks import RingBufferSink
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer
from repro.serve import SharedFramePool, TenantView
from repro.serve import pool as pool_module
from repro.serve.pool import REFUSED
from tests import pool_reference
from tests.pool_reference import SharedFramePool as ReferencePool
from tests.pool_reference import TenantView as ReferenceView

SEEDS = range(200)
STEPS = 300
SPANS = ("serve.acquire_seconds", "serve.cow_break_seconds")
ERRORS = (KeyError, ValueError, OutOfMemory)


def share_rule(kind, tenant, shared):
    """A view's share-key rule: ``None`` (the default rule), a custom
    rule, an aliasing one that maps page pairs to one private key, or a
    squatting one whose odd pages take the private key the first break
    of the even page below would take."""
    if kind == "default":
        return None
    if kind == "custom":
        def custom(page):
            if page % 3 == 0:
                return ("shared", "lib", page)
            return (tenant, "seg", page)
        return custom
    if kind == "squatting":
        def squatting(page):
            if page % 2:
                return (tenant, "cow", page - 1, 1)
            return ("shared", page)
        return squatting

    def aliasing(page):
        if page < shared:
            return ("shared", page)
        return (tenant, page // 2)
    return aliasing


class Side:
    """One pool, its views, its event ring and its telemetry registry."""

    def __init__(self, pool_cls, view_cls, frames):
        self.ring = RingBufferSink(4 * STEPS)
        self.taken = 0          # events already compared
        self.registry = TelemetryRegistry()
        self.pool = pool_cls(frames, tracer=Tracer([self.ring]),
                             telemetry=self.registry)
        self.view_cls = view_cls
        self.views = []         # every view made, live or retired

    def run(self, fn, *args, **kwargs):
        try:
            return "ok", fn(*args, **kwargs)
        except ERRORS as error:
            return type(error), str(error)

    def new_view(self, tenant, quota, shared, kind):
        return self.run(self._new_view, tenant, quota, shared, kind)

    def _new_view(self, tenant, quota, shared, kind):
        view = self.view_cls(
            self.pool, tenant, quota=quota, shared_pages=shared,
            share_key=share_rule(kind, tenant, shared),
        )
        self.views.append(view)
        return view.tenant

    def fork(self, index, tenant, quota):
        return self.run(self._fork, index, tenant, quota)

    def _fork(self, index, tenant, quota):
        child = self.views[index].fork(tenant, quota=quota)
        self.views.append(child)
        return child.tenant

    def fault(self, index, page, how):
        view = self.views[index]
        if how == "entry":
            got = self.run(self.pool.acquire, view, page)
            if got[1] is REFUSED:
                error = self.pool.out_of_frames(view.key_for(page))
                return OutOfMemory, str(error)
            return got
        if how == "acquire":
            return self.run(view.acquire, page)
        return self.run(view.acquire_detail, page)

    def release(self, index, page, how):
        view = self.views[index]
        if how == "entry":
            return self.run(self.pool.release, view, page)
        return self.run(view.release, page)

    def write(self, index, page, how):
        view = self.views[index]
        if how == "entry":
            got = self.run(self.pool.cow_break, view, page)
            if got[1] is REFUSED:
                error = self.pool.out_of_frames(view._cow_key(page))
                return OutOfMemory, str(error)
            return got
        return self.run(view.note_write, page)

    def ledger(self, keys, pages):
        """Everything observable about the pool and its views, and the
        new events."""
        pool = self.pool
        events = self.ring.events()[self.taken:]
        self.taken += len(events)
        views = [{
            "tenant": view.tenant,
            "stats": view.stats,
            "resident": view.resident_pages(),
            "frames": [view.frame_of(page) for page in pages],
            "owners": [view.owner(frame)
                       for frame in range(pool.frame_count)],
            "keys": list(view._keys.items()),
            "counts": (view.resident_count, view.free_count,
                       view.frame_count, view.is_full()),
            "repr": repr(view),
        } for view in self.views]
        return {
            "stats": pool.stats,
            "events": events,
            "views": views,
            "keys": [(pool.ref_count(key), pool.frame_of(key),
                      pool.is_cached(key)) for key in keys],
            "owners": [pool.owner(frame) for frame in range(pool.frame_count)],
            "reclaim_order": pool.cached_keys(),
            "counts": (pool.resident_count, pool.cached_count,
                       pool.free_count, pool.ref_total, pool.frame_count),
            "registered": [view.tenant for view in pool.views],
            "telemetry": self.registry.deterministic_snapshot(),
            "sampled": self.sampled(),
            "repr": repr(pool),
        }

    def sampled(self):
        """How many calls each wall-clock span timed."""
        histograms = self.registry.snapshot()["histograms"]
        return [histograms[name]["count"] if name in histograms else 0
                for name in SPANS]

    def check(self):
        self.pool.check_invariants()
        for view in self.pool.views:
            view.check_invariants()


def walk(seed, steps=STEPS):
    """Drive both sides through one seeded walk; returns what happened."""
    rng = random.Random(f"view-differential:{seed}")
    frames = rng.randint(1, 12)
    pages = list(range(frames + 6))
    new = Side(SharedFramePool, TenantView, frames)
    old = Side(ReferencePool, ReferenceView, frames)
    sides = (new, old)
    live: list[int] = []        # indexes of registered views
    fresh = iter(f"t{number}" for number in range(10 ** 6))
    seen = Counter()

    def name():
        """A new tenant name, or now and then a live tenant's."""
        if live and rng.random() < 0.2:
            return old.views[rng.choice(live)].tenant
        return next(fresh)

    def refused(tenant, make):
        """Whether ``tenant`` names a live view; if so, the new side
        must refuse the view ``make`` builds, and the step is skipped."""
        if tenant not in {view.tenant for view in new.pool.views}:
            return False
        assert make() == (
            ValueError, f"tenant {tenant!r} already has a live view on "
                        f"this pool")
        seen["name:refused"] += 1
        return True

    def quota():
        return rng.choice((None, rng.randint(1, frames + 2)))

    def add_view():
        args = (name(), quota(), rng.randint(0, len(pages)),
                rng.choice(("default", "default", "custom", "aliasing",
                            "squatting")))
        if refused(args[0], lambda: new.new_view(*args)):
            return
        got, want = (side.new_view(*args) for side in sides)
        assert got == want
        live.append(len(old.views) - 1)
        seen[f"view:{args[3]}"] += 1

    add_view()
    for _ in range(steps):
        if not live:
            add_view()
        roll = rng.random()
        index = rng.choice(live)
        view = old.views[index]
        resident = view.resident_pages()
        if roll < 0.04:
            now = rng.choice((None, None, rng.randrange(10_000)))
            new.pool.now = old.pool.now = now
            continue
        if roll < 0.08:
            add_view()
            continue
        if roll < 0.12:
            args = (index, name(), quota())
            if refused(args[1], lambda: new.fork(*args)):
                continue
            got, want = (side.fork(*args) for side in sides)
            assert got == want
            live.append(len(old.views) - 1)
            op = "fork"
        elif roll < 0.15:
            # Mostly empty views, so unregistration succeeds as well as
            # refuses; a retired view is offered again now and then.
            retired = [number for number in range(len(old.views))
                       if number not in live]
            if retired and rng.random() < 0.2:
                index = rng.choice(retired)
            elif rng.random() < 0.7:
                for page in resident:
                    how = rng.choice(("entry", "view"))
                    got = new.release(index, page, how)
                    assert got == old.release(index, page, "view")
            got, want = (side.run(side.pool.unregister_view,
                                  side.views[index]) for side in sides)
            if got[0] == "ok":
                live.remove(index)
            op = "unregister"
        elif roll < 0.6:
            page = rng.choice(pages)
            how = rng.choice(("entry", "entry", "detail", "acquire"))
            got = new.fault(index, page, how)
            want = old.fault(index, page, "acquire" if how == "acquire"
                             else "detail")
            op = "fault"
        elif roll < 0.85:
            if resident and rng.random() < 0.85:
                page = rng.choice(resident)
            else:
                page = rng.choice(pages)
            how = rng.choice(("entry", "view"))
            got = new.release(index, page, how)
            want = old.release(index, page, "view")
            op = "release"
        else:
            if resident and rng.random() < 0.9:
                page = rng.choice(resident)
            else:
                page = rng.choice(pages)
            how = rng.choice(("entry", "view"))
            got = new.write(index, page, how)
            want = old.write(index, page, "view")
            op = "write"
        assert got == want, (op, index)
        for side in sides:
            side.check()
        keys = {("shared", page) for page in pages}
        for side_view in old.views:
            keys.update(side_view._keys.values())
        keys = sorted(keys, key=repr)
        assert new.ledger(keys, pages) == old.ledger(keys, pages), (op, index)
        if got[0] != "ok":
            error = got[1]
            kind = ("resident" if "already resident" in error
                    else "quota" if "quota" in error
                    else "alias" if "distinct key" in error
                    else "collision" if "already exists" in error
                    else got[0].__name__)
            seen[f"{op}:{kind}"] += 1
            continue
        if op == "fault" and isinstance(got[1], tuple):
            seen[f"fault:{got[1][1] or 'miss'}"] += 1
        else:
            seen[op] += 1
    seen["reclaim"] += old.pool.stats.reclaims
    seen["sampled"] += sum(old.sampled())
    return seen


def sample_often(monkeypatch):
    """Time every fourth acquire on both sides."""
    monkeypatch.setattr(pool_module, "ACQUIRE_SPAN_SAMPLE", 4)
    monkeypatch.setattr(pool_reference, "ACQUIRE_SPAN_SAMPLE", 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_view_entries_match_the_reference_view(seed, monkeypatch):
    if seed % 2:
        sample_often(monkeypatch)
    walk(seed)


def test_walks_reach_every_outcome(monkeypatch):
    """The walks exercise every way each operation can end."""
    sample_often(monkeypatch)
    seen = Counter()
    for seed in range(20):
        seen += walk(seed)
    for kind in ("view:default", "view:custom", "view:aliasing",
                 "view:squatting", "fault:miss", "fault:share",
                 "fault:dedup", "reclaim", "fault:OutOfMemory",
                 "fault:resident", "fault:quota", "fault:alias", "release",
                 "release:KeyError", "write", "write:KeyError",
                 "write:OutOfMemory", "write:collision", "fork",
                 "unregister", "unregister:ValueError", "name:refused",
                 "sampled"):
        assert seen[kind] > 0, kind
