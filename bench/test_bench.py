"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Tiny passes of every workload (sizes passed as arguments), the span
arithmetic on synthetic nested functions with a fake clock, restoration
of every wrapped object, and the ``compare.py`` decisions.
"""

from __future__ import annotations

import json
import re

import pytest

import common
import compare
import run
import spans
from child import measure, timed_pass
from workloads import WORKLOADS

TINY = {
    "replay": dict(length=8_000, pages=64, working_set=8, phase_length=1_000,
                   frames=(4, 16), oracle_prefix=2_000),
    "serve": dict(tenants=2, length=3_000, pages=32, working_set=4,
                  phase_length=200, quota=6),
    "traffic": dict(loads=(0.5,), seeds=1, quick=True),
    "sweep": dict(seeds=1, sharing=(1,), placement=("best_fit",)),
}

BENCHMARK = common.load_benchmark()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_metrics_and_digests(name, tmp_path):
    workload = WORKLOADS[name](5, tmp_path, **TINY[name])
    try:
        warmup = timed_pass(workload)
        main = measure(workload, seconds=0, repeats=2)
    finally:
        workload.close()
    main.update(setup_s=0.5, setup_probe_s=common.REFERENCE_PROBE_S)
    digests = {warmup.digest} | {each["digest"] for each in main["passes"]}
    assert len(digests) == 1
    assert all(check["ok"] for check in main["checks"]), main["checks"]
    assert all(not each["errors"] for each in main["passes"])

    p90 = WORKLOADS[name].p90
    metrics = run.end_to_end([], main, WORKLOADS[name])
    for metric in BENCHMARK["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics[metric["name"]]["better"] == metric["better"]
        assert metrics[metric["name"]]["value"] > 0
    assert ("unit_ms_p90" in metrics) == p90
    if p90:
        assert metrics["unit_ms_p90"]["n"] == len(main["passes"][0]["units"])
        assert metrics["unit_ms_p90"]["value"] \
            >= metrics["unit_ms_p50"]["value"]

    again = WORKLOADS[name](5, tmp_path, **TINY[name])
    try:
        assert timed_pass(again).digest == warmup.digest
        if name == "sweep":
            inline = timed_pass(again, transport="inline")
            assert inline.digest == warmup.digest
    finally:
        again.close()


def test_p90_workloads_are_those_with_100_units(tmp_path):
    units_per_pass = {"traffic": lambda workload: len(workload.points),
                      "sweep": lambda workload: workload.grid.size}
    for name, count in units_per_pass.items():
        enough = count(WORKLOADS[name](1967, tmp_path)) >= 100
        assert WORKLOADS[name].p90 == enough, name
    assert not WORKLOADS["replay"].p90 and not WORKLOADS["serve"].p90


def test_pinned_digest_mismatch_fails(monkeypatch):
    monkeypatch.setattr(run, "pinned_digest", lambda workload, seed: "0" * 64)
    checks = run.digest_checks("serve", 1967, ["f" * 64, "f" * 64])
    assert [check["ok"] for check in checks] == [True, False]
    checks = run.digest_checks("serve", 1967, ["f" * 64, "e" * 64])
    assert not checks[0]["ok"]


class FakeClock:
    """A clock that moves only when the test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_arithmetic_on_nested_functions():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.now += 5

    def outer():
        clock.now += 10
        traced_inner()
        traced_inner()
        clock.now += 3

    def failing():
        clock.now += 7
        raise ValueError("boom")

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer", whole=True)
    traced_failing = tracer.wrap(failing, "failing",
                                 outcome=lambda result: True)
    traced_outer()
    with pytest.raises(ValueError):
        traced_failing()

    totals = tracer.layer_totals()
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(13e-9)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self_s"] == pytest.approx(10e-9)
    assert totals["failing"]["errors"] == 1
    assert totals["failing"]["hits"] == 0
    assert tracer.records[0][:3] == ["outer", 0, 23]

    # Wrapper cost: c_in per own call, c_out per child call.
    tracer.c_in, tracer.c_out = 1.0, 2.0
    totals = tracer.layer_totals()
    assert totals["outer"]["self_s"] == pytest.approx((13 - 1 - 2 * 2) * 1e-9)
    assert totals["inner"]["self_s"] == pytest.approx((10 - 2 * 1) * 1e-9)


def test_same_name_calls_collapse_and_outcomes_count():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def countdown(n):
        clock.now += 1
        return countdown_traced(n - 1) if n else None

    countdown_traced = tracer.wrap(countdown, "countdown",
                                   outcome=lambda result: result is None)
    countdown_traced(3)
    totals = tracer.layer_totals()
    assert totals["countdown"]["calls"] == 1
    assert totals["countdown"]["self_s"] == pytest.approx(4e-9)
    assert totals["countdown"]["hits"] == 1


def test_wrapped_objects_are_restored_after_a_traced_run(tmp_path):
    slots = [slot for target in spans.TARGETS for slot in target.resolve()]
    assert len(slots) >= len(spans.TARGETS)
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS)
    try:
        for name in ("serve", "traffic"):
            workload = WORKLOADS[name](3, tmp_path, **TINY[name])
            timed_pass(workload, tracer)
            workload.close()
    finally:
        tracer.uninstall()
    for kind, container, key, original in slots:
        current = container[key] if kind == "item" else getattr(container, key)
        assert current is original, (container, key)
    totals = tracer.layer_totals()
    for name in ("serve.simulate_shared", "serve.view.contains",
                 "paging.policy.on_access", "traffic.admission.decide",
                 "traffic.drain.order", "traffic.run_campaign"):
        assert totals[name]["calls"] > 0, name


def test_entry_values_cover_every_layer_metric():
    values = spans.entry_values({}, {})
    names = {metric.name for metric in spans.layer_metrics()}
    computed = set(values) | {f"sweep.leg.{leg}_s" for leg in
                              ("replay", "mix", "churn", "serve", "traffic")}
    computed |= {"sweep.worker_utilization", "bench.tracing_overhead",
                 *(metric for metric in names if metric.startswith("ledger."))}
    assert names == computed


def test_benchmark_file_matches_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert sorted(workload["name"] for workload in BENCHMARK["workloads"]) \
        == sorted(WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [metric["name"] for section in ("end_to_end", "per_layer")
             for metric in BENCHMARK[section]]
    assert all(name.match(each) for each in names)
    assert len(names) == len(set(names))
    assert len(BENCHMARK["per_layer"]) <= 128
    layer = [(metric.name, metric.unit, metric.better)
             for metric in spans.layer_metrics()]
    assert [(metric["name"], metric["unit"], metric["better"])
            for metric in BENCHMARK["per_layer"]] == layer
    bounds = {metric["name"]: metric["bound"]
              for metric in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.10 for bound in bounds.values())
    for metric in BENCHMARK["end_to_end"]:
        assert (metric["unit"], metric["better"]) \
            == common.END_TO_END[metric["name"]]
    json.dumps(BENCHMARK)


def side(values, samples=None):
    return compare.Side(list(values), list(samples or values))


def test_compare_claims_a_gain_from_consistent_pairs():
    parent = side([100, 102, 98, 101, 99, 100, 103, 97, 100, 101])
    change = side([120, 121, 119, 122, 118, 120, 123, 117, 120, 121])
    assert compare.verdict(parent, change, "higher", 0.10) == "gain"


def test_compare_flags_a_regression():
    parent = side([100, 101, 99, 100, 100])
    change = side([80, 81, 79, 80, 80])
    assert compare.verdict(parent, change, "higher", 0.10) == "regression"
    assert compare.verdict(change, parent, "lower", 0.10) == "regression"


def test_compare_reports_wide_spread_as_unresolved():
    parent = side([60, 100, 140, 80, 120])
    change = side([62, 98, 143, 79, 118])
    assert compare.verdict(parent, change, "higher", 0.10) == "unresolved"
    # Unless every change run beats every parent run.
    faster = side([150, 160, 170, 155, 165])
    assert compare.verdict(parent, faster, "higher", 0.10) != "unresolved"


def test_compare_single_runs_use_pass_samples():
    parent = compare.Side([100.0], [99, 100, 101, 100, 99, 101, 100])
    change = compare.Side([101.0], [100, 101, 102, 101, 100, 102, 101])
    assert compare.verdict(parent, change, "higher", 0.10) == "ok"
    noisy = compare.Side([100.0], [60, 140, 100, 70, 130, 90, 110])
    assert compare.verdict(noisy, change, "higher", 0.10) == "unresolved"


def test_compare_single_run_spread_is_that_of_the_median():
    three = compare.Side([2.0], [1.9, 2.0, 2.1])
    assert three.median == 2.0
    # 1.349 * 1.2533 * stdev 0.1 / sqrt(3) / median 2.0
    assert three.spread == pytest.approx(0.0488, abs=1e-4)
    slower = compare.Side([2.3], [2.2, 2.3, 2.4])
    assert compare.verdict(three, slower, "lower", 0.10) == "regression"
    assert compare.verdict(three, compare.Side([2.05], [2.0, 2.05, 2.1]),
                           "lower", 0.10) == "ok"


def test_compare_reports_a_metric_missing_on_one_side():
    def result(metrics):
        return {"workloads": {"sweep": {
            "attempted": 1, "failed": 0,
            "metrics": {name: {"value": 1.0, "samples": [1.0]}
                        for name in metrics}}}}

    parent = [result(["throughput", "unit_ms_p90"])]
    change = [result(["throughput"])]
    lines, failed = compare.compare(parent, change, BENCHMARK)
    assert not failed
    assert any("unit_ms_p90" in line and "missing on the change side" in line
               for line in lines)
