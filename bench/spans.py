"""Outside-in layer spans: time the simulator's public entry points.

The traced run wraps module functions and class methods of ``repro``
(public names and dunders only) without editing ``src/``.  A wrapper
records how long each call took and how much of that time its wrapped
children took, so a layer's *self time* is

    total − children − calls × c_in − child calls × c_out

where ``c_in`` is the wrapper cost inside a span's own interval and
``c_out`` the part of a child's wrapper cost that lands in its parent.
Both are calibrated on a no-op before every traced run.  The
subtraction is not optional: per-reference entry points such as
``TenantView.__contains__`` run millions of times a pass, and the
wrapper costs several times what they do.

Spans at coarse boundaries (a pass, a replay cell, a ``simulate_*``
call, a shard) are kept whole: name, start, end, parent and pass id.
Every span, coarse or not, also feeds one aggregate per (name, parent)
pair: calls, total ns, child ns, child calls, errors and "hits" (a
per-target outcome, e.g. a non-None return).  Wrappers live only in the
traced process and :meth:`Tracer.uninstall` puts back every original
object.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import statistics
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import common
import ledger

ROOT_NAME = "<root>"

# Aggregate entry layout.
CALLS, TOTAL, CHILD, CHILD_CALLS, ERRORS, HITS = range(6)


class _Probe:
    """The shape of the hot entry points: a method with a keyword."""

    def hit(self, page, now, modified=False):
        return None


class Tracer:
    """Wrappers, the span stack, and the recorded spans of one process."""

    def __init__(self,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        # A frame is [name, child ns, child calls, index of the nearest
        # whole span record (-1 for none)].
        self.stack: list[list] = [[ROOT_NAME, 0, 0, -1]]
        # name -> parent name -> aggregate entry (see CALLS ... HITS).
        self._tables: dict[str, dict[str, list[int]]] = {}
        self.records: list[list] = []
        self.pass_id = 0
        self.c_in = 0.0
        self.c_out = 0.0
        self._inside: list[float] = []
        self._total: list[float] = []
        self._slots: list[tuple] = []

    @property
    def aggregates(self) -> dict[tuple[str, str], list[int]]:
        """``(name, parent) -> [calls, total, child, child calls, errors,
        hits]``, times in ns."""
        return {(name, parent): entry
                for name, table in self._tables.items()
                for parent, entry in table.items()}

    # -- recording -----------------------------------------------------------

    def _close(self, name: str, parent: list, frame: list, elapsed: int,
               failed: bool) -> list[int]:
        parent[1] += elapsed
        parent[2] += 1
        table = self._tables.setdefault(name, {})
        entry = table.get(parent[0])
        if entry is None:
            entry = table[parent[0]] = [0, 0, 0, 0, 0, 0]
        entry[CALLS] += 1
        entry[TOTAL] += elapsed
        entry[CHILD] += frame[1]
        entry[CHILD_CALLS] += frame[2]
        if failed:
            entry[ERRORS] += 1
        return entry

    def wrap(self, fn: Callable, name: str, whole: bool = False,
             outcome: Callable[[object], bool] | None = None) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        A call made while a span of the same name is innermost (a
        ``super()`` chain, or ``acquire`` delegating to
        ``acquire_detail``) passes straight through, so one logical call
        counts once.  Wrappers that share a name must share the ``name``
        object.
        """
        if whole:
            return self._wrap_whole(fn, name, outcome)
        stack = self.stack
        push, pop = stack.append, stack.pop
        clock = self.clock
        close = self._close
        table = self._tables.setdefault(name, {})

        # The per-reference path: every line here is paid millions of
        # times a pass, and calibrated away afterwards.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0, 0, parent[3]]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                elapsed = clock() - start
                pop()
                close(name, parent, frame, elapsed, True)
                raise
            elapsed = clock() - start
            pop()
            parent[1] += elapsed
            parent[2] += 1
            entry = table.get(parent[0])
            if entry is None:
                entry = table[parent[0]] = [0, 0, 0, 0, 0, 0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += frame[1]
            entry[3] += frame[2]
            if outcome is not None and outcome(result):
                entry[5] += 1
            return result

        return wrapper

    def _wrap_whole(self, fn: Callable, name: str,
                    outcome: Callable[[object], bool] | None) -> Callable:
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name) as closed:
                result = fn(*args, **kwargs)
            if outcome is not None and outcome(result):
                closed[0][HITS] += 1
            return result

        return wrapper

    def wrap_waits(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function, timing each ``next()`` on it.

        Used on a transport's ``run``: the time the coordinator spends
        blocked waiting for the next record.
        """
        stack = self.stack
        clock = self.clock
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)

            def timed() -> Iterator:
                try:
                    while True:
                        parent = stack[-1]
                        frame = [name, 0, 0, parent[3]]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            elapsed = clock() - start
                            stack.pop()
                            close(name, parent, frame, elapsed, False)
                        yield item
                finally:
                    iterator.close()

            return timed()

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A whole span: kept as a record as well as aggregated.

        Yields a list that holds, once the span has closed, the
        aggregate entry it was counted in.
        """
        parent = self.stack[-1]
        index = len(self.records)
        self.records.append([name, 0, 0, parent[3], self.pass_id])
        frame = [name, 0, 0, index]
        self.stack.append(frame)
        closed: list[list[int]] = []
        failed = True
        start = self.clock()
        try:
            yield closed
            failed = False
        finally:
            end = self.clock()
            self.stack.pop()
            closed.append(
                self._close(name, parent, frame, end - start, failed))
            self.records[index][1:3] = [start, end]

    # -- calibration ---------------------------------------------------------

    def calibrate(self, rounds: int = 9, calls: int = 20_000) -> None:
        """Measure the wrapper's own cost on a no-op method.

        Each round times ``calls`` bound-method calls with a keyword
        argument — the shape of the hot entry points — unwrapped, then
        wrapped inside a parent span.  ``c_in`` is the wrapped call's
        recorded duration beyond the bare call; ``c_out`` the rest of
        the extra time the caller saw.  Calling this again adds rounds:
        the constants are medians over every round so far, so rounds
        spread over a run outvote a burst of host noise.  Each round is
        scaled to the reference host speed by a timing of
        :func:`common.sample_loop` taken just before it, so the
        constants are reference-speed costs: a tracer whose spans ran at
        another speed takes them divided by that speed.
        """
        plain = _Probe()
        wrapped = type("WrappedProbe", (), {
            "hit": self.wrap(_Probe.hit, "bench.calibrate.noop"),
        })()
        clock = self.clock
        first_record = len(self.records)
        for _ in range(rounds):
            speed = common.speed(common.sample_loop())
            start = clock()
            for _ in range(calls):
                plain.hit(1, 2, modified=False)
            bare = clock() - start
            with self.span("bench.calibrate"):
                start = clock()
                for _ in range(calls):
                    wrapped.hit(1, 2, modified=False)
                traced = clock() - start
            entry = self._tables["bench.calibrate.noop"].pop("bench.calibrate")
            self._total.append((traced - bare) / calls * speed)
            self._inside.append((entry[TOTAL] - bare) / calls * speed)
        del self._tables["bench.calibrate.noop"]
        self._tables["bench.calibrate"].pop(self.stack[-1][0])
        if not self._tables["bench.calibrate"]:
            del self._tables["bench.calibrate"]
        del self.records[first_record:]
        self.c_in = max(0.0, statistics.median(self._inside))
        self.c_out = max(0.0, statistics.median(self._total) - self.c_in)

    # -- installation --------------------------------------------------------

    def install(self, targets: list["Target"]) -> None:
        """Wrap every slot the targets resolve to."""
        for target in targets:
            for slot in target.resolve():
                kind, container, key, original = slot
                if kind == "item":
                    container[key] = dataclasses.replace(
                        original, order=self.wrap(original.order, target.name)
                    )
                elif target.waits:
                    setattr(container, key,
                            self.wrap_waits(original, target.name))
                else:
                    setattr(container, key, self.wrap(
                        original, target.name, whole=target.whole,
                        outcome=target.outcome,
                    ))
                self._slots.append(slot)

    def uninstall(self) -> None:
        """Put every original object back where it was found."""
        while self._slots:
            kind, container, key, original = self._slots.pop()
            if kind == "item":
                container[key] = original
            else:
                setattr(container, key, original)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, errors, hits, total seconds."""
        totals: dict[str, dict] = {}
        for (name, _parent), entry in self.aggregates.items():
            row = totals.setdefault(name, {
                "calls": 0, "self_s": 0.0, "total_s": 0.0,
                "errors": 0, "hits": 0,
            })
            self_ns = (
                entry[TOTAL] - entry[CHILD]
                - entry[CALLS] * self.c_in - entry[CHILD_CALLS] * self.c_out
            )
            row["calls"] += entry[CALLS]
            row["self_s"] += max(0.0, self_ns) / 1e9
            row["total_s"] += entry[TOTAL] / 1e9
            row["errors"] += entry[ERRORS]
            row["hits"] += entry[HITS]
        return totals

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write spans, aggregates and calibration as one JSON file."""
        payload = {
            "calibration": {"c_in_ns": self.c_in, "c_out_ns": self.c_out},
            "spans": [
                {"name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "pass": pass_id}
                for name, start, end, parent, pass_id in self.records
            ],
            "aggregates": [
                {"name": name, "parent": parent, "calls": entry[CALLS],
                 "total_ns": entry[TOTAL], "child_ns": entry[CHILD],
                 "child_calls": entry[CHILD_CALLS],
                 "errors": entry[ERRORS], "hits": entry[HITS]}
                for (name, parent), entry in sorted(self.aggregates.items())
            ],
            **(extra or {}),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# -- what gets wrapped -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Target:
    """One span name and the objects it wraps.

    ``resolve`` returns the slots — ``(kind, container, key, original)``
    — to replace: ``"attr"`` slots are set with ``setattr`` on a module
    or class, ``"item"`` slots are dict entries.
    """

    name: str
    resolve: Callable[[], list[tuple]]
    whole: bool = False
    outcome: Callable[[object], bool] | None = None
    waits: bool = False


def function(module: str, attr: str) -> Callable[[], list[tuple]]:
    """A module function and every module that imported it by name."""

    def resolve() -> list[tuple]:
        original = getattr(importlib.import_module(module), attr)
        return [
            ("attr", holder, attr, original)
            for holder in list(sys.modules.values())
            if isinstance(holder, types.ModuleType)
            and vars(holder).get(attr) is original
        ]

    return resolve


def method(module: str, cls: str, *attrs: str) -> Callable[[], list[tuple]]:
    """Methods defined on one class (inherited ones are not re-wrapped)."""

    def resolve() -> list[tuple]:
        owner = getattr(importlib.import_module(module), cls)
        return [("attr", owner, attr, owner.__dict__[attr]) for attr in attrs]

    return resolve


def policy_method(attr: str) -> Callable[[], list[tuple]]:
    """``attr`` on every replacement policy class that defines it."""

    def resolve() -> list[tuple]:
        from repro.paging.replacement import REPLACEMENT_POLICIES

        seen = {}
        for policy in REPLACEMENT_POLICIES.values():
            for owner in policy.__mro__:
                fn = owner.__dict__.get(attr)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                seen.setdefault((owner, attr), fn)
        return [("attr", owner, name, fn)
                for (owner, name), fn in seen.items()]

    return resolve


def drain_orders() -> list[tuple]:
    """The ``order`` callables of the registered queue-drain policies."""
    from repro.traffic.queueing import DRAIN_POLICIES

    return [("item", DRAIN_POLICIES, name, policy)
            for name, policy in DRAIN_POLICIES.items()]


def _is_admit(decision) -> bool:
    from repro.traffic.admission import ADMIT

    return decision == ADMIT


TARGETS: list[Target] = [
    # trace
    Target("trace.stream_trace", function("repro.trace.generate",
                                          "stream_trace"), whole=True),
    Target("trace.read_trace", function("repro.trace.format", "read_trace"),
           whole=True),
    Target("trace.as_list", method("repro.trace.columnar", "ColumnarTrace",
                                   "as_list"), whole=True),
    # workload generation
    Target("workload.phased_trace", function("repro.workload.reference",
                                             "phased_trace")),
    Target("serve.tenant_traces", function("repro.serve.replay",
                                           "tenant_traces"), whole=True),
    Target("serve.seeded_writes", function("repro.serve.replay",
                                           "seeded_writes")),
    # fastpath
    Target("fastpath.run_fast", function("repro.fastpath.replay", "run_fast"),
           whole=True),
    Target("fastpath.run_columnar", function("repro.fastpath.columnar",
                                             "run_columnar"),
           whole=True, outcome=lambda result: result is not None),
    # paging
    Target("paging.simulate_trace", function("repro.paging.simulate",
                                             "simulate_trace"), whole=True),
    Target("paging.policy.on_access", policy_method("on_access")),
    Target("paging.policy.on_load", policy_method("on_load")),
    Target("paging.policy.choose_victim", policy_method("choose_victim")),
    # serve
    Target("serve.simulate_shared", function("repro.serve.replay",
                                             "simulate_shared"), whole=True),
    Target("serve.view.contains", method("repro.serve.tenant", "TenantView",
                                         "__contains__")),
    Target("serve.view.acquire", method("repro.serve.tenant", "TenantView",
                                        "acquire", "acquire_detail")),
    Target("serve.view.release", method("repro.serve.tenant", "TenantView",
                                        "release")),
    Target("serve.view.note_write", method("repro.serve.tenant",
                                           "TenantView", "note_write")),
    Target("serve.pool.acquire", method("repro.serve.pool",
                                        "SharedFramePool", "acquire"),
           outcome=lambda result: result[1] is not None),
    Target("serve.pool.release", method("repro.serve.pool",
                                        "SharedFramePool", "release")),
    Target("serve.pool.cow_break", method("repro.serve.pool",
                                          "SharedFramePool", "cow_break")),
    Target("serve.pool.register_view", method("repro.serve.pool",
                                              "SharedFramePool",
                                              "register_view")),
    Target("serve.pool.unregister_view", method("repro.serve.pool",
                                                "SharedFramePool",
                                                "unregister_view")),
    # traffic
    Target("traffic.simulate_traffic", function("repro.traffic.engine",
                                                "simulate_traffic"),
           whole=True),
    Target("traffic.admission.decide", method("repro.traffic.admission",
                                              "AdmissionController",
                                              "decide"),
           outcome=_is_admit),
    Target("traffic.session.materialize", method("repro.traffic.session",
                                                 "SessionSpec",
                                                 "materialize")),
    Target("traffic.drain.order", drain_orders),
    Target("traffic.run_campaign", function("repro.traffic.engine",
                                            "run_campaign"), whole=True),
    # alloc
    Target("alloc.allocate", method("repro.alloc.freelist",
                                    "FreeListAllocator", "allocate")),
    Target("alloc.free", method("repro.alloc.freelist", "FreeListAllocator",
                                "free")),
    # sim
    Target("sim.mix.run", method("repro.sim.multiprogramming",
                                 "MultiprogrammingSimulator", "run"),
           whole=True),
    # sweep
    Target("sweep.run_shard", function("repro.sweep.shard", "run_shard"),
           whole=True),
    Target("sweep.checkpoint.append", method("repro.sweep.checkpoint",
                                             "CheckpointWriter", "append")),
    Target("sweep.heartbeat", function("repro.sweep.engine",
                                       "write_heartbeat")),
    Target("sweep.coordinator_wait", method("repro.sweep.transport.local",
                                            "PoolTransport", "run"),
           waits=True),
    # observe
    Target("observe.registry.snapshot", method(
        "repro.observe.telemetry.registry", "TelemetryRegistry", "snapshot")),
    Target("observe.registry.merge_snapshot", method(
        "repro.observe.telemetry.registry", "TelemetryRegistry",
        "merge_snapshot")),
    Target("observe.counters.merge_snapshot", method(
        "repro.observe.counters", "Counters", "merge_snapshot")),
]

#: Spans the sweep's pool pass records in the coordinator.  Everything
#: else comes from the inline traced pass, where worker-side layers run
#: in the traced process.
COORDINATOR = frozenset({
    "sweep.checkpoint.append", "sweep.heartbeat", "sweep.coordinator_wait",
})

#: Entry points reported as ``E.calls`` and ``E.self_s``.
ENTRY_POINTS = [target.name for target in TARGETS
                if not target.waits]


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: unit, direction, layer, and what it should move."""

    name: str
    unit: str
    better: str
    layer: str
    moves: str


def _layer_of(entry: str) -> str:
    if entry in ("serve.tenant_traces", "serve.seeded_writes"):
        return "workload"
    return entry.split(".", 1)[0]


#: The end-to-end metric (on which workload) each layer should move.
MOVES = {
    "trace": "setup_s, peak_rss_mb on replay",
    "workload": "setup_s on replay and serve; throughput on traffic",
    "fastpath": "throughput, unit_ms_p50 on replay; none on serve, traffic",
    "paging": "throughput on replay, serve and traffic",
    "serve": "throughput on serve and traffic",
    "traffic": "throughput, unit_ms_p50 on traffic",
    "alloc": "throughput on sweep",
    "sim": "throughput on sweep",
    "sweep": "throughput, unit_ms_p90 on sweep",
    "observe": "throughput on sweep and traffic",
    "bench": "none (the cost of tracing itself)",
    "ledger": "throughput on serve",
}

#: Ratio metrics: layer and direction.
RATIOS = {
    "fastpath.columnar_accept_ratio": ("fastpath", "higher"),
    "serve.pool.fetch_avoided_ratio": ("serve", "higher"),
    "traffic.admit_ratio": ("traffic", "higher"),
    "alloc.failure_ratio": ("alloc", "lower"),
    "sweep.worker_utilization": ("sweep", "higher"),
}

def layer_metrics() -> list[LayerMetric]:
    """Every per-layer metric a traced run reports, in report order."""
    metrics = []
    for entry in ENTRY_POINTS:
        layer = _layer_of(entry)
        metrics.append(LayerMetric(f"{entry}.calls", "count", "lower", layer,
                                   MOVES[layer]))
        metrics.append(LayerMetric(f"{entry}.self_s", "s", "lower", layer,
                                   MOVES[layer]))
    for leg in ("replay", "mix", "churn", "serve", "traffic"):
        metrics.append(LayerMetric(f"sweep.leg.{leg}_s", "s", "lower",
                                   "sweep", MOVES["sweep"]))
    metrics.append(LayerMetric("sweep.coordinator_wait_s", "s", "lower",
                               "sweep", MOVES["sweep"]))
    for name, (layer, better) in RATIOS.items():
        metrics.append(LayerMetric(name, "ratio", better, layer,
                                   MOVES[layer]))
    metrics.append(LayerMetric("bench.tracing_overhead", "ratio", "lower",
                               "bench", MOVES["bench"]))
    for _, name in ledger.STACKS:
        metrics.append(LayerMetric(name, "ns/ref", "lower", "ledger",
                                   MOVES["ledger"]))
    return metrics


def merge_totals(*all_totals: dict[str, dict]) -> dict[str, dict]:
    """Sum :meth:`Tracer.layer_totals` results field by field."""
    merged: dict[str, dict] = {}
    for totals in all_totals:
        for name, row in totals.items():
            into = merged.setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                into[field] += value
    return merged


def entry_values(totals: dict[str, dict],
                 coordinator: dict[str, dict]) -> dict[str, float]:
    """``E.calls`` / ``E.self_s`` and the ratio metrics of a traced run.

    ``coordinator`` holds the totals of the names in :data:`COORDINATOR`
    when they come from a separate pass (the sweep's pool pass).
    """
    values: dict[str, float] = {}

    def row(name: str) -> dict:
        source = coordinator if name in COORDINATOR and coordinator else totals
        return source.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                 "errors": 0, "hits": 0})

    for entry in ENTRY_POINTS:
        values[f"{entry}.calls"] = row(entry)["calls"]
        values[f"{entry}.self_s"] = row(entry)["self_s"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    columnar = row("fastpath.run_columnar")
    acquire = row("serve.pool.acquire")
    decide = row("traffic.admission.decide")
    allocate = row("alloc.allocate")
    values["fastpath.columnar_accept_ratio"] = ratio(columnar["hits"],
                                                     columnar["calls"])
    values["serve.pool.fetch_avoided_ratio"] = ratio(acquire["hits"],
                                                     acquire["calls"])
    values["traffic.admit_ratio"] = ratio(decide["hits"], decide["calls"])
    values["alloc.failure_ratio"] = ratio(allocate["errors"],
                                          allocate["calls"])
    wait = row("sweep.coordinator_wait")
    values["sweep.coordinator_wait_s"] = wait["total_s"]
    return values
