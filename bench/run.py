"""Run the benchmark: every workload in fresh processes, metrics, checks.

Usage, from the root of a source checkout (no install needed)::

    python bench/run.py [--workload NAME ...] [--seed 1967] [--seconds S]
                        [--repeats 7] [--trace 0|1] [--out FILE] [--spans FILE]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  For
each workload this starts ``bench/child.py`` in fresh processes: two
that only set up (for the ``setup_s`` median), then one that sets up
and measures (``--trace 0``) or one that traces (``--trace 1``).  It
prints every metric by name with its unit, checks every output digest
(equal across passes and processes, and equal to the digest pinned in
``bench/baseline.json`` for the pinned seed), and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 1 when any check fails, and exits nonzero
without a result line when a workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import common
import spans
from common import percentile, summary
from workloads import WORKLOADS

#: Set-up samples per workload; their median is ``setup_s``.
SETUP_SAMPLES = 3

#: One workload's processes must finish within this many seconds.
WORKLOAD_DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    """A workload process crashed or ran out of time."""


def spawn(workload: str, mode: str, args, deadline: float) -> dict:
    """Run ``child.py`` once and return the JSON it wrote."""
    common.TMP_DIR.mkdir(parents=True, exist_ok=True)
    out = common.TMP_DIR / f"{workload}-{mode}-{uuid.uuid4().hex}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(common.TMP_DIR))
    command = [
        sys.executable, str(common.BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--repeats", str(args.repeats),
        "--out", str(out),
    ]
    if args.spans:
        command += ["--spans", args.spans]
    spawned_at = time.monotonic()
    # A session of its own, so a timeout can stop the pool workers too;
    # stdout goes to stderr so nothing can displace the result line.
    process = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        env=env, stdout=sys.stderr.fileno(), start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise ChildFailed(f"{workload} {mode} run exceeded its time budget")
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    try:
        if code != 0:
            raise ChildFailed(f"{workload} {mode} run exited with {code}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def pinned_digest(workload: str, seed: int) -> str | None:
    """The digest ``bench/baseline.json`` pins for this seed, if any."""
    if not common.BASELINE_FILE.exists():
        return None
    baseline = json.loads(common.BASELINE_FILE.read_text())
    if baseline.get("seed") != seed:
        return None
    return baseline.get("workloads", {}).get(workload, {}).get("digest")


def digest_checks(workload: str, seed: int, digests: list[str]) -> list[dict]:
    """Every pass and process produced the first digest; the pin holds."""
    checks = [{
        "name": f"{workload}.digest_stable",
        "ok": len(set(digests)) == 1,
        "detail": f"{len(set(digests))} distinct digests over "
                  f"{len(digests)} passes",
    }]
    pinned = pinned_digest(workload, seed)
    if pinned is not None:
        checks.append({
            "name": f"{workload}.digest_pinned",
            "ok": digests[0] == pinned,
            "detail": f"{digests[0][:16]} vs pinned {pinned[:16]}",
        })
    return checks


def timings(passes: list[dict], factors: list[float]) -> dict:
    """Per-pass throughput and unit times (ms), each pass scaled by its
    host-speed factor (all 1 for the unadjusted values)."""
    times = [[unit * 1e3 * factor for unit in each["units"]]
             for each, factor in zip(passes, factors)]
    return {
        "throughput": [each["work"] / each["wall_s"] / factor
                       for each, factor in zip(passes, factors)],
        "pass_p50": [statistics.median(row) for row in times],
        "pass_p90": [percentile(row, 0.9) for row in times],
        # Unit i's median over the passes: one robust time per unit.
        "unit": [statistics.median(column) for column in zip(*times)],
    }


def end_to_end(setups: list[dict], main: dict, workload) -> dict[str, dict]:
    """Every end-to-end metric: value, quartiles, n and samples.

    Timings are adjusted to the reference host speed: each pass's are
    scaled by :func:`common.speed` of the speed sampled through it, and
    each set-up time by that sampled through the set-up.  ``raw`` keeps
    the unadjusted value.  ``throughput`` is the median over passes.
    ``unit_ms_p50`` is the median over units of each unit's median over
    the passes, and ``unit_ms_p90`` (workloads marked ``p90``) the 90th
    percentile of the same per-unit times; their ``samples``, which
    ``compare.py`` uses for a single run's spread, are the per-pass
    median and 90th percentile.
    """
    passes = main["passes"]
    adjusted = timings(passes, [common.speed(each["probe_s"])
                                for each in passes])
    raw = timings(passes, [1.0] * len(passes))
    runs = [*setups, main]
    setup = [each["setup_s"] * common.speed(each["setup_probe_s"])
             for each in runs]
    rss = [main["peak_rss_mb"]]
    metrics = {
        "throughput": {**summary(adjusted["throughput"]),
                       "samples": adjusted["throughput"],
                       "raw": statistics.median(raw["throughput"])},
        "unit_ms_p50": {**summary(adjusted["unit"]),
                        "samples": adjusted["pass_p50"],
                        "raw": statistics.median(raw["unit"])},
        "setup_s": {**summary(setup), "samples": setup,
                    "raw": statistics.median(run["setup_s"] for run in runs)},
        "peak_rss_mb": {**summary(rss), "samples": rss, "raw": rss[0]},
    }
    if workload.p90:
        metrics["unit_ms_p90"] = {
            "value": percentile(adjusted["unit"], 0.9),
            "n": len(adjusted["unit"]), "samples": adjusted["pass_p90"],
            "raw": percentile(raw["unit"], 0.9),
        }
    for name, data in metrics.items():
        data["unit"], data["better"] = common.END_TO_END[name]
    return metrics


def tally(passes: list[dict], checks: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)``: units run plus checks made."""
    attempted = sum(each["attempted"] for each in passes) + len(checks)
    failed = (sum(len(each["errors"]) for each in passes)
              + sum(not check["ok"] for check in checks))
    return attempted, failed


def run_workload(workload: str, args) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    if args.trace:
        main = spawn(workload, "trace", args, deadline)
        passes = [main["warmup"], *main["passes"], main["traced"]]
        checks = main["checks"] + digest_checks(
            workload, args.seed, [each["digest"] for each in passes])
        attempted, failed = tally(passes, checks)
        metrics = {name: {"value": value}
                   for name, value in main["layer_metrics"].items()}
        for layer_metric in spans.layer_metrics():
            metrics[layer_metric.name].update(
                unit=layer_metric.unit, layer=layer_metric.layer,
                moves=layer_metric.moves)
        extra = {"calibration": main["calibration"], "ledger": main["ledger"],
                 "spans_file": main["spans_file"]}
    else:
        setups = [spawn(workload, "setup", args, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(workload, "measure", args, deadline)
        passes = [each["warmup"] for each in setups] + [main["warmup"],
                                                        *main["passes"]]
        checks = main["checks"] + digest_checks(
            workload, args.seed, [each["digest"] for each in passes])
        attempted, failed = tally(passes, checks)
        metrics = end_to_end(setups, main, WORKLOADS[workload])
        rate = failed / attempted
        metrics["error_rate"] = {**summary([rate]), "samples": [rate],
                                 "unit": "ratio", "better": "lower"}
        extra = {}
    return {
        "digest": passes[0]["digest"],
        "work_unit": WORKLOADS[workload].work_unit,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": [error for each in passes for error in each["errors"]],
        "metrics": metrics,
        **extra,
    }


def print_workload(name: str, result: dict) -> None:
    for metric, data in result["metrics"].items():
        line = f"{name:8} {metric:38} {data['value']:>16.6g} {data['unit']:7}"
        if metric == "throughput":
            line += f" ({result['work_unit']}/s)"
        if "q1" in data:
            line += (f" (q1 {data['q1']:.6g}, q3 {data['q3']:.6g}, "
                     f"n {data['n']})")
        elif "n" in data:
            line += f" (n {data['n']})"
        if "raw" in data:
            line += f" raw {data['raw']:.6g}"
        print(line)
    for check in result["checks"]:
        if not check["ok"]:
            print(f"{name:8} FAILED CHECK {check['name']}: {check['detail']}")
    for error in result["errors"]:
        print(f"{name:8} FAILED OPERATION: {error}")


def result_line(results: dict[str, dict], contract: list[str]) -> dict:
    """The result line: flat metric names when one workload ran."""
    attempted = sum(each["attempted"] for each in results.values())
    failed = sum(each["failed"] for each in results.values())
    metrics = {}
    for workload, result in results.items():
        for name in contract:
            data = result["metrics"][name]
            key = name if len(results) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": data["value"], "unit": data["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the layered benchmark (see bench/README.md).")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1967)
    parser.add_argument("--seconds", type=float,
                        help="minimum measuring time per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="minimum timed passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", help="write the full results as JSON here")
    parser.add_argument("--spans",
                        help="traced run of one workload: write spans here")
    args = parser.parse_args(argv)

    if not (common.SRC / "repro").is_dir():
        print(f"error: no simulator sources at {common.SRC}", file=sys.stderr)
        return 2
    benchmark = common.load_benchmark()
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    known = [workload["name"] for workload in benchmark["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.spans and len(names) != 1:
        parser.error("--spans needs exactly one --workload")
    section = "per_layer" if args.trace else "end_to_end"
    contract = [metric["name"] for metric in benchmark[section]]

    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args)
        except ChildFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print_workload(name, results[name])

    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed,
            "command": ["python", "bench/run.py", *(argv or sys.argv[1:])],
            "trace": args.trace,
            "workloads": results,
        }, indent=1, sort_keys=True) + "\n")
    line = result_line(results, contract)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
