"""The four benchmark workloads: seeded inputs, one timed pass, a digest.

Each workload is a class whose constructor is the set-up (imports and
input generation from the seed; the program receives only the generated
inputs), whose :meth:`run_pass` is one timed pass returning the work it
did, per-unit host times and a digest of its deterministic outputs, and
whose :meth:`oracle` runs the untimed output checks.  Sizes default to
the benchmark's and can be passed as keyword arguments, which is how the
tests run tiny passes.

``work_unit`` names what a workload's ``throughput`` counts: simulated
references, or for the sweep shards (its records carry no reference
count).  ``p90`` marks the workload that reports ``unit_ms_p90``: the
sweep, whose 128 shards leave about 13 units beyond the 90th percentile
(the 12 replay cells or traffic points would leave one).

Sizes are the largest that keep one run of each workload near 20 s at
the reference host speed (``common.REFERENCE_PROBE_S``): a run is three
set-ups, each with a warm-up pass, then at least seven timed passes,
and two sets of ten runs of every workload must fit in under an hour.

Why these four: each stresses a different stack of layers, and each
layer that an optimisation might target is exercised by one workload
and bypassed by another (see ``bench/README.md``).
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from pathlib import Path

from common import digest


@dataclasses.dataclass
class PassResult:
    """What one pass did and produced."""

    work: int
    """What the workload's throughput counts (its ``work_unit``)."""
    units: list[float]
    """Host seconds per unit: replay cell, serve call, traffic point,
    sweep shard (the last two as the records' own ``wall_s``)."""
    digest: str
    attempted: int
    errors: list[str]
    wall_s: float = 0.0
    probe_s: float = 0.0
    """Host-speed probe time around the pass (see ``child.probe``)."""
    info: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Check:
    """One untimed output check."""

    name: str
    ok: bool
    detail: str = ""


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class Replay:
    """Trace ingest and the replay kernels over one ``.rtrc`` trace."""

    name = "replay"
    SIZES = dict(
        length=500_000, pages=1024, working_set=64, phase_length=50_000,
        locality=0.997, frames=(32, 64, 128),
        policies=("lru", "fifo", "clock", "opt"), oracle_prefix=100_000,
    )
    work_unit = "refs"
    p90 = False
    children = False

    def __init__(self, seed: int, workdir: Path, **sizes) -> None:
        from repro.trace import read_trace, stream_trace

        self.sizes = {**self.SIZES, **sizes}
        size = self.sizes
        self.path = Path(workdir) / "replay.rtrc"
        stream_trace(
            self.path, "phased", pages=size["pages"], length=size["length"],
            working_set=size["working_set"],
            phase_length=size["phase_length"], locality=size["locality"],
            seed=seed,
        )
        self.trace = read_trace(self.path)

    @staticmethod
    def _policy(name: str, trace):
        from repro.paging.replacement import BeladyOptimalPolicy, make_policy

        if name == "opt":
            return BeladyOptimalPolicy(trace)
        return make_policy(name)

    def run_pass(self, tracer=None) -> PassResult:
        from repro.paging import simulate_trace

        cells, units = [], []
        for name in self.sizes["policies"]:
            for frames in self.sizes["frames"]:
                with _span(tracer, "bench.cell"):
                    start = time.perf_counter()
                    result = simulate_trace(
                        self.trace, frames, self._policy(name, self.trace)
                    )
                    units.append(time.perf_counter() - start)
                cells.append([name, frames, result.faults, result.cold_faults])
        return PassResult(
            work=len(self.trace) * len(cells), units=units,
            digest=digest(cells), attempted=len(cells), errors=[],
        )

    def oracle(self, first: PassResult) -> list[Check]:
        """The reference loop against the fast dispatch on a prefix."""
        from repro.paging import simulate_trace

        prefix = self.trace[: self.sizes["oracle_prefix"]]
        checks = []
        for name in self.sizes["policies"]:
            for frames in self.sizes["frames"]:
                runs = [
                    simulate_trace(prefix, frames, self._policy(name, prefix),
                                   record_evictions=True, fast=fast)
                    for fast in (True, False)
                ]
                fast, reference = (
                    (run.faults, run.cold_faults, list(run.victims))
                    for run in runs
                )
                checks.append(Check(
                    f"replay.reference_loop.{name}.{frames}",
                    fast == reference,
                    f"fast {fast[:2]} vs reference {reference[:2]}",
                ))
        return checks

    def close(self) -> None:
        self.trace.close()
        self.path.unlink(missing_ok=True)


class Serve:
    """Four tenants over one shared frame pool, hits dominating."""

    name = "serve"
    SIZES = dict(
        tenants=4, length=250_000, pages=256, shared_fraction=0.5,
        working_set=12, phase_length=2_000, locality=0.95, quota=16,
        write_fraction=0.1,
    )
    work_unit = "refs"
    p90 = False
    children = False

    def __init__(self, seed: int, workdir: Path, **sizes) -> None:
        from repro.serve import seeded_writes, tenant_traces

        self.sizes = {**self.SIZES, **sizes}
        size = self.sizes
        self.quota = size["quota"]
        self.traces, self.shared_pages = tenant_traces(
            size["tenants"], pages=size["pages"], length=size["length"],
            shared_fraction=size["shared_fraction"],
            working_set=size["working_set"],
            phase_length=size["phase_length"], locality=size["locality"],
            seed=seed,
        )
        self.writes = [
            seeded_writes(size["length"], fraction=size["write_fraction"],
                          seed=seed * 1_000 + 100 + index)
            for index in range(size["tenants"])
        ]

    def run_pass(self, tracer=None) -> PassResult:
        from repro.paging.replacement import make_policy
        from repro.serve import simulate_shared

        start = time.perf_counter()
        result = simulate_shared(
            self.traces, self.quota, lambda _tenant: make_policy("lru"),
            shared_pages=self.shared_pages, writes=self.writes,
        )
        unit = time.perf_counter() - start
        outputs = {
            "tenants": [
                [tenant.references, tenant.faults, tenant.cold_faults,
                 tenant.evictions]
                for tenant in result.tenants
            ],
            "shares": result.shares,
            "dedup_hits": result.dedup_hits,
            "cow_breaks": result.cow_breaks,
        }
        return PassResult(
            work=result.references, units=[unit], digest=digest(outputs),
            attempted=1, errors=[],
        )

    def oracle(self, first: PassResult) -> list[Check]:
        """Degree-1 ``simulate_shared`` against the reference loop."""
        from repro.paging import simulate_trace
        from repro.paging.replacement import make_policy
        from repro.serve import simulate_shared

        shared = simulate_shared(
            self.traces[:1], self.quota, lambda _tenant: make_policy("lru"),
            writes=self.writes[:1], record_evictions=True,
        ).tenants[0]
        loop = simulate_trace(
            self.traces[0], self.quota, make_policy("lru"),
            writes=self.writes[0], record_evictions=True, fast=False,
        )
        keys = [(run.faults, run.cold_faults, run.evictions, run.victims)
                for run in (shared, loop)]
        return [Check("serve.degree1_matches_reference_loop",
                      keys[0] == keys[1],
                      f"shared {keys[0][:3]} vs loop {keys[1][:3]}")]

    def close(self) -> None:
        pass


class Traffic:
    """An open-arrival campaign: admission, view churn, miss-heavy."""

    name = "traffic"
    SIZES = dict(loads=(0.25, 0.5, 1.0), seeds=4, quick=False)
    work_unit = "refs"
    p90 = False
    children = False

    def __init__(self, seed: int, workdir: Path, **sizes) -> None:
        from repro.traffic import build_points

        self.sizes = {**self.SIZES, **sizes}
        size = self.sizes
        self.points = build_points(
            loads=size["loads"], seeds=range(size["seeds"]),
            quick=size["quick"], base_seed=seed, name="bench-traffic",
        )
        self.results = Path(workdir) / "traffic.jsonl"

    def run_pass(self, tracer=None) -> PassResult:
        from repro.traffic import run_campaign, strip_nondeterministic

        self.results.unlink(missing_ok=True)
        try:
            campaign = run_campaign(self.points, workers=1,
                                    results_path=self.results)
        finally:
            self.results.unlink(missing_ok=True)
        records = campaign.records
        return PassResult(
            work=sum(record["refs"] for record in records),
            units=[record["wall_s"] for record in records],
            digest=digest([strip_nondeterministic(record)
                           for record in records]),
            attempted=len(self.points),
            errors=[failure["error"] for failure in campaign.failures],
        )

    def oracle(self, first: PassResult) -> list[Check]:
        return []   # traffic's oracle is the traced run's digest check

    def close(self) -> None:
        pass


class Sweep:
    """Many small shards over a process pool, checkpointed."""

    name = "sweep"
    SIZES = dict(seeds=4, workers=2, placement=("best_fit", "first_fit"),
                 sharing=(1, 4))
    work_unit = "shards"
    p90 = True
    children = True

    def __init__(self, seed: int, workdir: Path, **sizes) -> None:
        from repro.sweep import quick_grid

        self.sizes = {**self.SIZES, **sizes}
        size = self.sizes
        self.grid = dataclasses.replace(
            quick_grid(), name="bench-sweep", placement=size["placement"],
            sharing=size["sharing"], seeds=tuple(range(size["seeds"])),
            base_seed=seed,
        )
        self.results = Path(workdir) / "sweep.jsonl"

    def run_pass(self, tracer=None, transport: str = "pool") -> PassResult:
        from repro.sweep import canonical_lines, run_sweep
        from repro.sweep.engine import heartbeat_path

        side_files = (self.results, heartbeat_path(self.results))
        for path in side_files:
            path.unlink(missing_ok=True)
        try:
            result = run_sweep(
                self.grid, workers=self.sizes["workers"],
                results_path=self.results, transport=transport,
            )
        finally:
            for path in side_files:
                path.unlink(missing_ok=True)
        records = result.records
        legs = {
            leg: sum(record["telemetry"]["histograms"]
                     [f"sweep.{leg}_seconds"]["sum"] for record in records)
            for leg in ("replay", "mix", "churn", "serve", "traffic")
        }
        return PassResult(
            work=len(records),
            units=[record["wall_s"] for record in records],
            digest=digest("\n".join(canonical_lines(records))),
            attempted=self.grid.size,
            errors=[failure["error"] for failure in result.failures],
            info={"legs": legs, "workers": self.sizes["workers"]},
        )

    def oracle(self, first: PassResult) -> list[Check]:
        return []   # sweep's oracle is the traced run's inline pass

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Replay, Serve, Traffic, Sweep)}
