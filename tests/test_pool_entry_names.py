"""Every serving driver reaches the pool through the entries the bench binds.

The layered benchmark's traced passes (``bench/spans.py``) wrap
``SharedFramePool.acquire``, ``release`` and ``cow_break`` by name, and
read each ``acquire`` answer as ``answer[1] is not None``: a fetch the
pool avoided.  A driver that reached the pool some other way would
leave those layers reading 0 calls, and ``serve.pool.fetch_avoided_ratio``
0, with no test failing, since the bench's own suite is not part of
this one.  This module wraps the three entries the same way and runs
the three drivers that reach the pool: a saturated traffic point, a
degree-4 shared replay with writes, and one shard of the benchmark's
sweep.  Each must call every entry and raise nothing, and the traffic
point must see refused acquires, answered ``REFUSED``.
"""

import dataclasses
from collections import Counter

import pytest

from repro.paging.replacement import make_policy
from repro.serve import seeded_writes, simulate_shared, tenant_traces
from repro.serve.pool import REFUSED, SharedFramePool
from repro.sweep import quick_grid
from repro.sweep.shard import run_shard
from repro.traffic.engine import build_points, simulate_traffic

ENTRIES = ("acquire", "release", "cow_break")


@pytest.fixture
def tally(monkeypatch):
    """Count calls, errors, hits and refusals of the three entries."""
    counts = Counter()

    def counting(name, entry):
        def wrapper(*args, **kwargs):
            try:
                answer = entry(*args, **kwargs)
            except BaseException:
                counts[f"{name}.errors"] += 1
                raise
            counts[name] += 1
            if name == "acquire":
                counts["acquire.hits"] += answer[1] is not None
                counts["acquire.refused"] += answer is REFUSED
            return answer
        return wrapper

    for name in ENTRIES:
        monkeypatch.setattr(SharedFramePool, name,
                            counting(name, getattr(SharedFramePool, name)))
    return counts


def saturated_traffic():
    """A quick traffic point whose quota ledger promises twice the pool."""
    (spec,) = build_points(
        loads=(2.5,), seeds=(0,), pool_frames=16, quotas=(3, 4), pages=24,
        session_length=32, shared_pages=8, horizon=48, overcommit=2.0,
        watermark=0.0,
    )
    simulate_traffic(spec)


def shared_replay():
    traces, shared = tenant_traces(4, pages=32, length=1_500, seed=3)
    writes = [seeded_writes(len(trace), fraction=0.2, seed=index)
              for index, trace in enumerate(traces)]
    simulate_shared(traces, 8, lambda _index: make_policy("lru"),
                    shared_pages=shared, writes=writes)


def sweep_shard():
    """The first degree-4 shard of the benchmark's sweep grid."""
    grid = dataclasses.replace(
        quick_grid(), name="bench-sweep", placement=("best_fit", "first_fit"),
        sharing=(1, 4), seeds=tuple(range(4)), base_seed=1967,
    )
    spec = next(shard.spec() for shard in grid.shards()
                if shard.sharing == 4)
    run_shard(spec)


@pytest.mark.parametrize("driver", (saturated_traffic, shared_replay,
                                    sweep_shard))
def test_driver_reaches_every_entry(driver, tally):
    driver()
    for name in ENTRIES:
        assert tally[name] > 0, name
        assert tally[f"{name}.errors"] == 0, name
    assert tally["acquire.hits"] > 0
    if driver is saturated_traffic:
        assert tally["acquire.refused"] > 0
