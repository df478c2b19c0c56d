"""The shared frame pool pinned to the pool it replaced, op by op.

``SharedFramePool`` keeps its refcounts and its freed-dedup order in
two dicts of its own.  The pool it replaced kept them in two helper
objects, and is kept as the oracle in ``tests/pool_reference.py``.
Each seed drives both pools through the
same random walk of acquires, releases and copy-on-write breaks over
1 to 12 frames, unknown keys, over-releases, exhaustion and refused
breaks included, with ``pool.now`` set now and then.  After every
operation the two must agree on the return value or the error, the
statistics, the events, every refcount and frame over the whole key
space, every frame's owner, the reclaim order, the counts and the
deterministic telemetry, and both must pass ``check_invariants``.
"""

import random
from collections import Counter

import pytest

from repro.errors import OutOfMemory
from repro.observe.sinks import RingBufferSink
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer
from repro.serve import SharedFramePool
from tests.pool_reference import SharedFramePool as ReferencePool

SEEDS = range(200)
STEPS = 400
SPANS = ("serve.acquire_seconds", "serve.cow_break_seconds")


class Side:
    """One pool with its event ring and telemetry registry."""

    def __init__(self, cls, frames):
        self.ring = RingBufferSink(STEPS)
        self.taken = 0          # events already compared
        self.registry = TelemetryRegistry()
        self.pool = cls(frames, tracer=Tracer([self.ring]),
                        telemetry=self.registry)

    def run(self, op, *args, **kwargs):
        """Apply ``op``; returns its value, or its error's type and text."""
        try:
            return "ok", getattr(self.pool, op)(*args, **kwargs)
        except (KeyError, ValueError, OutOfMemory) as error:
            return type(error), str(error)

    def ledger(self, keys):
        """Everything observable about the pool, and its new events."""
        pool = self.pool
        events = self.ring.events()[self.taken:]
        self.taken += len(events)
        return {
            "stats": pool.stats,
            "events": events,
            "keys": [(pool.ref_count(key), pool.frame_of(key),
                      pool.is_cached(key)) for key in keys],
            "owners": [pool.owner(frame) for frame in range(pool.frame_count)],
            "reclaim_order": pool.cached_keys(),
            "counts": (pool.resident_count, pool.cached_count,
                       pool.free_count, pool.ref_total, pool.frame_count),
            "telemetry": self.registry.deterministic_snapshot(),
            "repr": repr(pool),
        }

    def sampled(self):
        """How many calls each wall-clock span timed."""
        histograms = self.registry.snapshot()["histograms"]
        return [histograms[name]["count"] for name in SPANS]


def walk(seed, steps=STEPS):
    """Drive both pools through one seeded walk; returns what happened."""
    rng = random.Random(f"pool-differential:{seed}")
    frames = rng.randint(1, 12)
    shared = [("shared", page) for page in range(frames // 2 + 2)]
    # Copy-on-write targets come from a small set of their own, so a
    # break onto content that already exists happens now and then.
    copies = [("t1", "cow", page) for page in range(frames // 2 + 2)]
    keys = shared + copies
    keys += [("t0", page) for page in range(rng.randint(1, frames + 2))]
    new, old = Side(SharedFramePool, frames), Side(ReferencePool, frames)
    seen = Counter()
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.05:
            now = rng.choice((None, rng.randrange(10_000)))
            new.pool.now = old.pool.now = now
            continue
        if roll < 0.5:
            args = (rng.choice(keys),)
            kwargs = {"program": rng.choice((None, "t0", "t1"))}
            op = "acquire"
        elif roll < 0.85:
            # Mostly pinned content, so the pool drains as well as fills.
            pinned = [key for key in keys if old.pool.ref_count(key)]
            if pinned and rng.random() < 0.8:
                args = (rng.choice(pinned),)
            else:
                args = (rng.choice(keys),)
            kwargs, op = {}, "release"
        else:
            args = (rng.choice(shared), rng.choice(copies))
            kwargs = {"program": rng.choice((None, "t1"))}
            op = "cow_break"
        reclaims = old.pool.stats.reclaims
        got = new.run(op, *args, **kwargs)
        want = old.run(op, *args, **kwargs)
        assert got == want, (op, args)
        new.pool.check_invariants()
        old.pool.check_invariants()
        assert new.ledger(keys) == old.ledger(keys), (op, args)
        if got[0] != "ok":
            seen[f"{op}:{got[0].__name__}"] += 1
            continue
        seen["reclaim"] += old.pool.stats.reclaims - reclaims
        if op == "acquire":
            seen[got[1][1] or "miss"] += 1
            continue
        seen[op] += 1
        if old.pool.ref_count(args[0]) == 0:
            seen[f"{op}:last_reference"] += 1
    assert new.sampled() == old.sampled()
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
                 "cow_break:last_reference", "acquire:OutOfMemory", "release:KeyError",
                 "release:ValueError", "cow_break:KeyError",
                 "cow_break:ValueError", "cow_break:OutOfMemory"):
        assert seen[kind] > 0, kind
