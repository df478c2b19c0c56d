"""The telemetry-overhead gate: ``python -m repro.bench``, no options.

Times kernel replay and degree-4 shared-pool serving with telemetry
off and on, checks that both arms give the same answers, and exits 1
when telemetry costs more than :data:`MAX_OVERHEAD` (2%).  CI runs it
as ``python -m repro.bench`` (or ``python -m repro bench``).  Every
speed number comes from the layered benchmark in a source checkout
instead: ``python3 bench/run.py`` measures and ``python3
bench/compare.py`` decides between two revisions (``bench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from math import inf
from typing import Callable

from repro.observe.telemetry import TelemetryRegistry
from repro.paging.replacement import make_policy
from repro.paging.simulate import simulate_trace
from repro.serve import seeded_writes, simulate_shared, tenant_traces
from repro.workload.reference import phased_trace

#: The gate's budget: telemetry on may cost this fraction over off.
MAX_OVERHEAD = 0.02

#: Workload sizes for both legs; the serve leg replays ``degree``
#: tenant traces of ``length`` references each.
SIZES = dict(length=15_000, frames=16, pages=128, degree=4)

#: Interleaved off/on pairs timed per leg.
PAIRS = 7


def _paired_ratio(
    off_fn: Callable[[], object],
    on_fn: Callable[[], object],
) -> tuple[object, object, float, float]:
    """``(off_result, on_result, off_s, ratio)`` — robustly timed.

    Measuring a ~1% relative difference through wall clocks needs three
    defences at once: the arms are *interleaved* (off, on, off, on …)
    so load drift hits both sides equally; the collector is paused
    during each timed run so a cycle collection cannot land inside one
    arm; and ``ratio`` is the **median of the per-pair on/off ratios**,
    so a preempted run — which corrupts one pair, not all seven — falls
    out of the estimate instead of becoming it.  ``off_s`` is the off
    arm's fastest run, which weights this leg against the other.
    """
    off_times: list[float] = []
    on_times: list[float] = []
    off_result = on_result = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PAIRS):
            start = time.perf_counter()
            off_result = off_fn()
            off_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            on_result = on_fn()
            on_times.append(time.perf_counter() - start)
            gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    ratios = [
        on / off for off, on in zip(off_times, on_times) if off > 0
    ]
    ratio = statistics.median(ratios) if ratios else 1.0
    return off_result, on_result, min(off_times), ratio


def bench_telemetry(length: int, frames: int, pages: int, degree: int) -> dict:
    """One telemetry-off vs. telemetry-on reading of the instrumented paths.

    Two legs, each an interleaved median-of-pairs measurement (see
    :func:`_paired_ratio`): kernel replay through
    :func:`simulate_trace` (telemetry reads the result after the run —
    the cheap pattern) and shared-pool serving at ``degree`` (sampled
    per-acquire and per-CoW wall spans — the per-event pattern).
    Results are cross-checked identical between the on and off runs,
    so the overhead number can never hide a changed answer; the
    differential tests pin the same property across 100 seeds.

    Returns each leg's median on/off ratio, the replay leg's share of
    the off-arm time (``replay_share``; serve has the rest) and the
    share-weighted ``overhead`` the gate decides on; the last two are
    None when the clock saw no time pass.
    """
    trace = phased_trace(
        pages=pages, length=length, working_set=frames,
        phase_length=max(200, length // 500), locality=0.95, seed=1967,
    )
    # The serve arm carries the per-event spans, so it needs enough
    # work per timed run (hundreds of milliseconds) for a ~1% signal
    # to clear timer and scheduler noise.
    tenant_set, shared_pages = tenant_traces(
        degree, pages=pages, length=length,
        shared_fraction=0.5, working_set=max(4, pages // 4),
        phase_length=max(200, length // 50), seed=1967,
    )
    serve_length = len(tenant_set[0])
    writes = [
        seeded_writes(serve_length, fraction=0.1, seed=1967 + index)
        for index in range(degree)
    ]

    def replay(telemetry):
        return simulate_trace(
            trace, frames, make_policy("lru"), telemetry=telemetry
        )

    def serve(telemetry):
        return simulate_shared(
            tenant_set, frames, lambda _index: make_policy("lru"),
            shared_pages=shared_pages, writes=writes, telemetry=telemetry,
        )

    replay(None)    # warm the fast path before either timed arm
    replay_off, replay_on, replay_off_s, replay_ratio = _paired_ratio(
        lambda: replay(None), lambda: replay(TelemetryRegistry())
    )
    serve_off, serve_on, serve_off_s, serve_ratio = _paired_ratio(
        lambda: serve(None), lambda: serve(TelemetryRegistry())
    )
    if replay_on != replay_off:
        raise AssertionError("telemetry changed the replay result")
    if (
        serve_on.tenants != serve_off.tenants
        or serve_on.shares != serve_off.shares
        or serve_on.cow_breaks != serve_off.cow_breaks
    ):
        raise AssertionError("telemetry changed the serve result")
    off_s = replay_off_s + serve_off_s
    # Weight each leg's median ratio by its share of the off-arm time,
    # so the headline overhead is what a combined run would see while
    # staying robust to a single preempted measurement in either leg.
    replay_share = overhead = None
    if off_s:
        replay_share = replay_off_s / off_s
        overhead = round(
            (replay_ratio - 1.0) * replay_share
            + (serve_ratio - 1.0) * (serve_off_s / off_s),
            4,
        )
    return {
        "replay_ratio": replay_ratio,
        "serve_ratio": serve_ratio,
        "replay_share": replay_share,
        "overhead": overhead,
    }


def _print_reading(reading: dict) -> None:
    if reading["overhead"] is None:
        return
    share = reading["replay_share"]
    print(
        f"telemetry on/off, median of {PAIRS} interleaved pairs: "
        f"replay {reading['replay_ratio']:.4f} x {share:.0%}, "
        f"serve {reading['serve_ratio']:.4f} x {1.0 - share:.0%} "
        f"-> overhead {reading['overhead']:+.2%}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.parse_args(argv)
    # Overhead is one-sided: the instrumentation can only add time, so
    # scheduler noise inflates a measurement but never deflates it
    # below the true cost for long.  A first reading over budget is
    # therefore re-measured (up to twice) and the gate takes the
    # minimum — a genuine regression stays over budget on every try,
    # while a preempted run does not.
    attempts: list[float] = []
    while len(attempts) < 3 and min(attempts, default=inf) > MAX_OVERHEAD:
        if attempts:
            print(
                f"telemetry overhead {attempts[-1]:+.2%} over the "
                f"{MAX_OVERHEAD:.2%} budget; re-measuring"
            )
        reading = bench_telemetry(**SIZES)
        _print_reading(reading)
        if reading["overhead"] is None:
            break
        attempts.append(reading["overhead"])
    if not attempts:
        print("telemetry overhead could not be measured "
              "(runs too fast to time)")
        return 0
    overhead = min(attempts)
    if overhead > MAX_OVERHEAD:
        print(
            f"TELEMETRY OVERHEAD {overhead:+.2%} exceeds the "
            f"{MAX_OVERHEAD:.2%} budget"
        )
        return 1
    print(
        f"telemetry overhead {overhead:+.2%} within the "
        f"{MAX_OVERHEAD:.2%} budget"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
