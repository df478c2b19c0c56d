"""One workload in one fresh process: set up, then measure or trace.

``run.py`` starts this script once per set-up sample and once per
measuring or tracing run, so memory, imports and set-up are paid per
workload.  It writes what it measured as JSON to ``--out`` and prints
nothing on stdout.

Modes:

``setup``
    Set up (imports, inputs from the seed, one warm-up pass), report the
    time since the parent started the process, and exit.
``measure``
    Set up, then time passes until ``--repeats`` passes and
    ``--seconds`` seconds have both been reached, then run the untimed
    output checks.
``trace``
    Set up under the span wrappers, time one untraced pass, then one
    traced pass (for sweep: coordinator spans on a pool pass, worker
    spans on an inline pass), and report the per-layer metrics; the
    serve workload adds the layer ledger.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import common

common.use_src()

import ledger    # noqa: E402  (needs src/ on the path first)
import spans     # noqa: E402
from workloads import WORKLOADS, Check, PassResult   # noqa: E402

#: Upper bound on timed passes, whatever ``--repeats`` and ``--seconds``.
MAX_PASSES = 200


def timed_pass(workload, tracer=None, **options) -> PassResult:
    gc.collect()
    with common.SpeedSampler() as sampler:
        start = time.perf_counter()
        if tracer is None:
            result = workload.run_pass(**options)
        else:
            with tracer.span("bench.pass"):
                result = workload.run_pass(tracer, **options)
        result.wall_s = time.perf_counter() - start
    result.probe_s = sampler.probe_s
    return result


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process plus its ``workers`` pool workers.

    On Linux ``RUSAGE_CHILDREN`` gives the peak of the largest child
    waited for, not a sum, so the workers count as that many copies of
    the largest: an estimate, and an upper bound where forked workers
    still share pages with the coordinator.
    """
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        largest = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        kilobytes += workers * largest
    return kilobytes / 1024


def set_up(args, workdir: Path):
    """Build the workload and run its warm-up pass.

    Returns the workload and the set-up record: time since the parent
    started this process, the host speed sampled from input generation
    through the warm-up pass, and the warm-up pass.
    """
    with common.SpeedSampler() as sampler:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        warmup = timed_pass(workload)
    setup = {"setup_s": time.monotonic() - args.spawned_at,
             "setup_probe_s": sampler.probe_s,
             "warmup": dataclasses.asdict(warmup)}
    return workload, setup


def run_setup(args, workdir: Path) -> dict:
    workload, setup = set_up(args, workdir)
    workload.close()
    return setup


def measure(workload, seconds: float, repeats: int) -> dict:
    """Timed passes until both ``repeats`` and ``seconds`` are reached,
    then peak memory and the untimed output checks."""
    passes = []
    started = time.monotonic()
    while len(passes) < MAX_PASSES:
        passes.append(timed_pass(workload))
        if len(passes) >= repeats and time.monotonic() - started >= seconds:
            break
    rss = peak_rss_mb(workload.sizes.get("workers", 0))
    checks = workload.oracle(passes[0])
    return {
        "passes": [dataclasses.asdict(each) for each in passes],
        "peak_rss_mb": rss,
        "checks": [dataclasses.asdict(check) for check in checks],
    }


def run_measure(args, workdir: Path) -> dict:
    workload, setup = set_up(args, workdir)
    try:
        return {**setup, **measure(workload, args.seconds, args.repeats)}
    finally:
        workload.close()


def run_trace(args, workdir: Path) -> dict:
    targets = spans.TARGETS
    slots = [slot for target in targets for slot in target.resolve()]
    # One tracer per phase; the setup tracer also holds the calibration
    # rounds, taken at the start, between passes and at the end.
    setup_tracer = spans.Tracer()
    pass_tracer = spans.Tracer()
    pass_tracer.pass_id = 1
    coordinator_tracer = spans.Tracer()
    setup_tracer.calibrate()

    setup_tracer.install(targets)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
    finally:
        setup_tracer.uninstall()
    warmup = timed_pass(workload)
    untraced = timed_pass(workload)
    setup_tracer.calibrate()
    checks: list[Check] = []
    # Layers a workload never reaches read 0.
    values = {metric.name: 0.0 for metric in spans.layer_metrics()}
    baseline, options, coordinator_speed = untraced, {}, 1.0
    if args.workload == "sweep":
        # Coordinator-side spans come from a pool pass; only the
        # coordinator is wrapped, so workers run at full speed.
        coordinator_tracer.install(
            [target for target in targets if target.name in spans.COORDINATOR]
        )
        try:
            pool = timed_pass(workload, coordinator_tracer)
        finally:
            coordinator_tracer.uninstall()
        coordinator_speed = common.speed(pool.probe_s)
        for leg, seconds in pool.info["legs"].items():
            values[f"sweep.leg.{leg}_s"] = seconds
        values["sweep.worker_utilization"] = (
            sum(pool.units) / (pool.info["workers"] * pool.wall_s)
        )
        # Worker-side layers are visible only inline; the inline
        # untraced pass is both the overhead baseline and the oracle.
        options = {"transport": "inline"}
        baseline = timed_pass(workload, **options)
        checks.append(Check("sweep.inline_equals_pool",
                            baseline.digest == untraced.digest))

    pass_tracer.install(targets)
    try:
        traced = timed_pass(workload, pass_tracer, **options)
    finally:
        pass_tracer.uninstall()
    setup_tracer.calibrate()
    # The calibration is at the reference speed; each pass ran at its own.
    for tracer, speed in ((pass_tracer, common.speed(traced.probe_s)),
                          (coordinator_tracer, coordinator_speed)):
        tracer.c_in = setup_tracer.c_in / speed
        tracer.c_out = setup_tracer.c_out / speed
    unrestored = [f"{getattr(container, '__name__', container)}.{key}"
                  for kind, container, key, original in slots
                  if (container[key] if kind == "item"
                      else getattr(container, key)) is not original]
    checks.append(Check("spans.originals_restored", not unrestored,
                        ", ".join(unrestored)))
    checks.append(Check(f"{args.workload}.traced_digest_equals_untraced",
                        traced.digest == untraced.digest))

    coordinator = coordinator_tracer.layer_totals()
    pass_totals = pass_tracer.layer_totals()
    totals = spans.merge_totals(setup_tracer.layer_totals(), pass_totals)
    values.update(spans.entry_values(totals, coordinator))
    values["bench.tracing_overhead"] = (
        traced.wall_s * common.speed(traced.probe_s)
        / (baseline.wall_s * common.speed(baseline.probe_s)) - 1
    )
    rows = []
    if args.workload == "serve":
        rows, ledger_checks = ledger.measure(
            workload.traces, workload.writes, workload.shared_pages,
            workload.quota,
        )
        checks.extend(ledger_checks)
        values.update(ledger.differences(rows))
        span_s = sum(row["self_s"] for row in pass_totals.values())
        span_ns = span_s * common.speed(traced.probe_s) / traced.work * 1e9
        ratio = span_ns / rows[-1]["ns_per_ref"]
        checks.append(Check(
            "ledger.agrees_with_span_self_time",
            abs(ratio - 1) <= ledger.SPAN_TOLERANCE,
            f"span self {span_ns:.0f} ns/ref vs ledger "
            f"{rows[-1]['ns_per_ref']:.0f} ns/ref (ratio {ratio:.3f})",
        ))
    workload.close()

    spans_path = Path(args.spans) if args.spans else (
        common.OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    setup_tracer.dump(spans_path.with_name(spans_path.stem + "-setup.json"))
    pass_tracer.dump(spans_path, extra={
        "workload": args.workload, "seed": args.seed,
        "coordinator": coordinator, "ledger": rows,
    })
    return {
        "warmup": dataclasses.asdict(warmup),
        "passes": [dataclasses.asdict(untraced)],
        "traced": dataclasses.asdict(traced),
        "layer_metrics": values,
        "calibration": {"c_in_ns": setup_tracer.c_in,
                        "c_out_ns": setup_tracer.c_out},
        "ledger": rows,
        "checks": [dataclasses.asdict(check) for check in checks],
        "spans_file": os.path.relpath(spans_path, common.ROOT),
    }


MODES = {"setup": run_setup, "measure": run_measure, "trace": run_trace}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if not WORKLOADS[args.workload].children:
        # One CPU for a one-process workload: no migrations, and the
        # speed sampler times the CPU the passes run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    common.TMP_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=common.TMP_DIR))
    try:
        result = MODES[args.mode](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
