"""The shared frame pool's ledger pinned to the pool it replaced, op by op.

``SharedFramePool`` keeps its refcounts and its freed-dedup order in
two dicts of its own.  The pool it replaced kept them in two helper
objects, and is kept as the oracle in ``tests/pool_reference.py``, with
the view that drove it.  Where ``tests/test_view_differential.py``
walks the views, this walk aims at the ledger: every view maps each
page to the content key of the same name, so a page *is* a content
key, and two to six views, named ``"t0"`` to ``"t5"``, act on one small
key space.  Shared keys then carry many references at once, and the
private key the first break of a shared key by the ``"t1"`` view takes
can be pinned directly, so breaks collide as well as succeed or are
refused.
Each seed drives both sides through the same random walk of acquires,
releases and copy-on-write breaks over 1 to 12 frames, exhaustion and
unknown pages included, with ``pool.now`` set now and then; acquires
and releases go through the pool's entries, and breaks alternate
between ``cow_break`` and ``note_write``.  After every operation the
two must agree on the answer or the error (``REFUSED`` standing for the
reference's ``OutOfMemory``), the statistics, the events, every
refcount and frame over the whole key space, every frame's owner, the
reclaim order, the counts, every view's maps and the deterministic
telemetry, and both must pass ``check_invariants``.
"""

import random
from collections import Counter

import pytest

from repro.serve import SharedFramePool, TenantView
from tests.pool_reference import SharedFramePool as ReferencePool
from tests.pool_reference import TenantView as ReferenceView
from tests.test_view_differential import Side

SEEDS = range(200)
STEPS = 400


def identity(page):
    return page


def walk(seed, steps=STEPS):
    """Drive both sides through one seeded walk; returns what happened."""
    rng = random.Random(f"pool-differential:{seed}")
    frames = rng.randint(1, 12)
    shared = [("shared", page) for page in range(frames // 2 + 2)]
    # Private content: the keys the first break of each shared key by
    # the "t1" view takes, and a few keys of t0's own.
    private = [("t1", "cow", key, 1) for key in shared]
    private += [("t0", page) for page in range(rng.randint(1, frames + 2))]
    pages = shared + private
    new = Side(SharedFramePool, TenantView, frames)
    old = Side(ReferencePool, ReferenceView, frames)
    for number in range(rng.randint(2, 6)):
        tenant = f"t{number}"
        for side in (new, old):
            side.views.append(
                side.view_cls(side.pool, tenant, share_key=identity))
    views = range(len(old.views))
    seen = Counter()
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.05:
            now = rng.choice((None, rng.randrange(10_000)))
            new.pool.now = old.pool.now = now
            continue
        # Mostly pages a view holds, so the pool drains as well as fills.
        held = [(index, page) for index in views
                for page in old.views[index].resident_pages()]
        if roll >= 0.5 and held and rng.random() < 0.8:
            index, page = rng.choice(held)
        else:
            index, page = rng.choice(views), rng.choice(pages)
        key = old.views[index]._keys.get(page, page)
        if roll < 0.5:
            op = "acquire"
            got = new.fault(index, page, "entry")
            want = old.fault(index, page, "detail")
        elif roll < 0.85:
            op = "release"
            got = new.release(index, page, "entry")
            want = old.release(index, page, "view")
        else:
            op = "cow_break"
            got = new.write(index, page, rng.choice(("entry", "view")))
            want = old.write(index, page, "view")
        assert got == want, (op, index, page)
        new.check()
        old.check()
        keys = set(pages)
        for view in old.views:
            keys.update(view._keys.values())
        keys = sorted(keys, key=repr)
        assert new.ledger(keys, pages) == old.ledger(keys, pages), (op, page)
        if got[0] != "ok":
            kind = ("collision" if "already exists" in got[1]
                    else got[0].__name__)
            seen[f"{op}:{kind}"] += 1
            continue
        if op == "acquire":
            seen[got[1][1] or "miss"] += 1
            continue
        if op == "cow_break" and got[1] is None:
            seen["cow_break:private"] += 1
            continue
        seen[op] += 1
        if old.pool.ref_count(key) == 0:
            seen[f"{op}:last_reference"] += 1
    seen["reclaim"] += old.pool.stats.reclaims
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_pool_matches_the_reference_pool(seed):
    walk(seed)


def test_walks_reach_every_outcome():
    """The walks exercise every way each operation can end."""
    seen = Counter()
    for seed in range(20):
        seen += walk(seed)
    for kind in ("miss", "share", "dedup", "reclaim", "release",
                 "release:last_reference", "cow_break",
                 "cow_break:last_reference", "cow_break:private",
                 "acquire:OutOfMemory", "acquire:ValueError",
                 "release:KeyError", "cow_break:KeyError",
                 "cow_break:collision", "cow_break:OutOfMemory"):
        assert seen[kind] > 0, kind
