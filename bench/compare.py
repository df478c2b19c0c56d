"""Compare benchmark results of two commits, metric by metric.

Usage::

    python bench/compare.py --parent RESULTS... --change RESULTS...
    python bench/compare.py --pairs N --parent CHECKOUT --change CHECKOUT
                            [--seed S] [--workload NAME ...]

``RESULTS`` are files written by ``bench/run.py --out`` (or directories
of them).  With ``--pairs``, ``--parent`` and ``--change`` are source
checkouts of the two commits instead: their ``bench/run.py`` runs ``N``
times each, alternating which side goes first, and the results are then
compared the same way.

The rule, per workload and end-to-end metric:

- **regression** — the change's median is worse than the parent's by
  more than the metric's bound (``BENCHMARK.json``).
- **unresolved** — otherwise, when either side's spread (interquartile
  range over median) exceeds the bound, unless every change run beats
  every parent run.
- **gain** — with at least ten paired runs, the change wins at least
  nine tenths of the pairs (ties count for neither) and its median beats
  the parent's by more than the parent's interquartile range.
- **ok** — none of the above.

A side's value is the median of its runs' values.  Its spread is the
interquartile range of those values with three or more runs; with
fewer, the spread of the median of the runs' pooled samples (per pass,
or per set-up process), from normal theory.  A metric present on one
side only is reported as missing.  The comparison fails (exit 1) on any
regression or when the error rate rose.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import common
from common import median_spread, quartiles

#: ``unit_ms_p90`` is gated like ``unit_ms_p50``; ``error_rate`` apart.
BOUND_OF = {"unit_ms_p90": "unit_ms_p50"}

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclasses.dataclass
class Side:
    """One side's values for one workload and metric."""

    runs: list[float]
    """Each run's headline value, in run order."""
    samples: list[float]
    """Every sample of every run, pooled."""

    @property
    def values(self) -> list[float]:
        return self.runs if len(self.runs) >= 3 else self.samples

    @property
    def median(self) -> float:
        return statistics.median(self.runs)

    @property
    def spread(self) -> float:
        if len(self.runs) >= 3:
            q1, median, q3 = quartiles(self.runs)
            return (q3 - q1) / median if median else 0.0
        return median_spread(self.samples)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (<0: better)."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: Side, change: Side, better: str, bound: float) -> str:
    """``regression``, ``gain``, ``unresolved`` or ``ok`` (see module doc)."""
    if worse_by(parent.median, change.median, better) > bound:
        return "regression"
    pairs = list(zip(parent.runs, change.runs))
    if len(pairs) >= MIN_PAIRS and len(parent.runs) == len(change.runs):
        wins = sum(beats(new, old, better) for old, new in pairs)
        q1, _, q3 = quartiles(parent.runs)
        gap = abs(change.median - parent.median)
        if (wins >= WIN_SHARE * len(pairs) and gap > q3 - q1
                and beats(change.median, parent.median, better)):
            return "gain"
    all_better = all(beats(new, old, better)
                     for new in change.values for old in parent.values)
    if max(parent.spread, change.spread) > bound and not all_better:
        return "unresolved"
    return "ok"


def load_results(paths: list[str]) -> list[dict]:
    """Result files (or every ``*.json`` in a directory), in name order."""
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    results = [json.loads(path.read_text()) for path in files]
    traced = [str(path) for path, result in zip(files, results)
              if result.get("trace")]
    if traced:
        raise SystemExit(f"traced runs carry no end-to-end metrics: {traced}")
    return results


def side_of(results: list[dict], workload: str, metric: str) -> Side | None:
    """The metric on one side, or None unless every run reports it."""
    runs, samples = [], []
    for result in results:
        data = result["workloads"][workload]["metrics"]
        if metric not in data:
            return None
        runs.append(data[metric]["value"])
        samples.extend(data[metric]["samples"])
    return Side(runs, samples)


def error_rate(results: list[dict], workload: str) -> float:
    attempted = sum(result["workloads"][workload]["attempted"]
                    for result in results)
    failed = sum(result["workloads"][workload]["failed"] for result in results)
    return failed / attempted if attempted else 0.0


def compare(parents: list[dict], changes: list[dict],
            benchmark: dict) -> tuple[list[str], bool]:
    """Report lines and whether the comparison failed."""
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark["end_to_end"]}
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    lines, failed = [], False
    for workload in workloads:
        if not all(workload in result["workloads"]
                   for result in parents + changes):
            continue
        lines.append(f"{workload}  (parent {len(parents)} runs, "
                     f"change {len(changes)} runs)")
        for metric, (unit, better) in common.END_TO_END.items():
            if metric == "error_rate":
                continue
            bound = bounds.get(BOUND_OF.get(metric, metric))
            parent = side_of(parents, workload, metric)
            change = side_of(changes, workload, metric)
            if bound is None or (parent is None and change is None):
                continue
            if parent is None or change is None:
                lines.append(f"  {metric:12} missing on the "
                             f"{'parent' if parent is None else 'change'}"
                             f" side: not compared")
                continue
            outcome = verdict(parent, change, better, bound)
            failed |= outcome == "regression"
            lines.append(
                f"  {metric:12} {describe(parent)}  ->  {describe(change)}"
                f"  {-worse_by(parent.median, change.median, better):+7.1%}"
                f" better  bound {bound:.0%}  {outcome.upper()}"
            )
        before, after = (error_rate(parents, workload),
                         error_rate(changes, workload))
        rose = after > before
        failed |= rose
        lines.append(f"  {'error_rate':12} {before:.4g} -> {after:.4g}"
                     f"  {'ROSE' if rose else 'OK'}")
    return lines, failed


def describe(side: Side) -> str:
    q1, _, q3 = quartiles(side.values)
    return (f"{side.median:.5g} [{q1:.5g}, {q3:.5g}] n={len(side.values)} "
            f"spread {side.spread:.1%}")


def bench_fingerprint(root: Path) -> str:
    """Hash of a checkout's benchmark files, to confirm both sides match."""
    digest = hashlib.sha256()
    for path in sorted((root / "bench").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def drive_pairs(pairs: int, parent: Path, change: Path, seed: int,
                workloads: list[str], out_dir: Path) -> tuple[list, list]:
    """Run both checkouts ``pairs`` times each, alternating the order."""
    if bench_fingerprint(parent) != bench_fingerprint(change):
        print("warning: the two checkouts carry different benchmark code",
              file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for index in range(pairs):
        order = [("parent", parent), ("change", change)]
        if index % 2:
            order.reverse()
        for side, root in order:
            out = out_dir / f"{side}-{index:02d}.json"
            command = [sys.executable, str(root / "bench" / "run.py"),
                       "--seed", str(seed), "--out", str(out)]
            for name in workloads:
                command += ["--workload", name]
            print(f"pair {index + 1}/{pairs}: {side}", file=sys.stderr)
            subprocess.run(command, cwd=root, stdout=subprocess.DEVNULL,
                           check=False)
            if not out.exists():
                raise SystemExit(f"{side} run {index} produced no results")
            results[side].append(json.loads(out.read_text()))
    return results["parent"], results["change"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark results of two commits.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--pairs", type=int,
                        help="run N alternating pairs of two checkouts")
    parser.add_argument("--seed", type=int, default=1967)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--out-dir", default=str(common.OUT_DIR / "compare"),
                        help="--pairs: where the run results go")
    args = parser.parse_args(argv)

    if args.pairs:
        if len(args.parent) != 1 or len(args.change) != 1:
            parser.error("--pairs takes one checkout per side")
        parents, changes = drive_pairs(
            args.pairs, Path(args.parent[0]).resolve(),
            Path(args.change[0]).resolve(), args.seed, args.workload,
            Path(args.out_dir),
        )
    else:
        parents, changes = load_results(args.parent), load_results(args.change)
    lines, failed = compare(parents, changes, common.load_benchmark())
    print("\n".join(lines))
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
