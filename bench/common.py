"""Paths, statistics, the metric catalogue and the host-speed sampler
shared by the bench scripts.

The bench lives outside ``src/`` so that a change to the simulator
cannot edit the yardstick it is judged by.  Every script here runs from
a source checkout with no install: :func:`use_src` puts the checkout's
``src/`` first on ``sys.path``, ahead of any installed ``repro``, so the
code measured is always the code in this tree.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
BASELINE_FILE = BENCH_DIR / "baseline.json"

#: Scratch space for trace files and checkpoints; removed after each run.
TMP_DIR = ROOT / ".bench_tmp"
#: Span dumps of traced runs land here unless ``--spans`` names a file.
OUT_DIR = ROOT / ".bench_out"

#: Units and directions of the end-to-end metrics.  ``BENCHMARK.json``
#: lists those every workload reports; ``unit_ms_p90`` (only the
#: workloads marked ``p90``) and ``error_rate`` (which must stay 0) are
#: printed and compared too.
END_TO_END = {
    "throughput": ("1/s", "higher"),
    "unit_ms_p50": ("ms", "lower"),
    "unit_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
}

#: Seconds the speed sampler's loop (:func:`sample_loop`) takes on an
#: uncontended development host.  Timings are reported as if the host
#: ran at that speed; see README "Host-speed adjustment".
REFERENCE_PROBE_S = 0.0004


def speed(probe_s: float) -> float:
    """The host's speed relative to the reference speed."""
    return REFERENCE_PROBE_S / probe_s


#: Seconds between two timings of the sample loop while work runs.
SAMPLE_INTERVAL_S = 0.05


def sample_loop() -> float:
    """Seconds a fixed ~0.4 ms pure-Python loop takes now."""
    table: dict[int, list] = {}
    start = time.perf_counter()
    for index in range(4_000):
        key = index & 255
        entry = table.get(key)
        if entry is None:
            entry = table[key] = []
        entry.append(index)
        if len(entry) > 8:
            entry.clear()
    return time.perf_counter() - start


class SpeedSampler(threading.Thread):
    """Times :func:`sample_loop` every ``SAMPLE_INTERVAL_S`` while work runs.

    The development host is a VM whose CPUs flip between a fast and a
    ~1.8x slower state within a second, the slow share drifting over
    minutes (other tenants of the machine).  Sampling the loop all
    through a pass tells the benchmark how fast the host ran during it, so
    that it can scale the pass to a reference speed; the loop touches no
    ``repro`` code, so no change to the simulator can move it.  The
    thread takes the CPUs the work may use in turn (the sweep's workers
    use both) and holds the GIL ~0.4 ms per sample: about 1% of the
    time, the same on every commit.  Used as a context manager, it
    samples once as the work starts and once after it ends, so even a
    short pass gets two samples.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        for index in itertools.count():
            # Pid 0 is this thread alone; the work's threads keep theirs.
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            self.samples.append(sample_loop())
            if self._halt.is_set():
                return
            self._halt.wait(SAMPLE_INTERVAL_S)

    def __enter__(self) -> SpeedSampler:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        self.join()

    @property
    def probe_s(self) -> float:
        """The sample loop's time at the mean speed over the samples."""
        return len(self.samples) / sum(1 / each for each in self.samples)


def use_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, nothing else."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_FILE.read_text())


def digest(payload) -> str:
    """SHA-256 of a JSON-serializable value (or of a str as-is)."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    q1, _, q3 = quartiles(values)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile by linear interpolation between ranks."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_spread(samples: list[float]) -> float:
    """Interquartile range of the samples' median, as a share of it.

    Normal theory: the median of ``n`` samples has a standard error of
    1.2533 sigma / sqrt(n), and a normal quantity's interquartile range
    is 1.349 standard errors.  What ``compare.py`` uses when a side has
    too few runs to measure run-to-run spread directly.
    """
    if len(samples) < 2:
        return 0.0
    median = statistics.median(samples)
    error = 1.2533 * statistics.stdev(samples) / math.sqrt(len(samples))
    return 1.349 * error / median if median else 0.0
