"""Command-line entry point.

``python -m repro``          prints the appendix survey matrix.
``python -m repro survey``   the same, plus hardware facilities.
``python -m repro space``    prints the characteristic design space.
``python -m repro policies`` lists the strategy registries.
``python -m repro bench``    runs the telemetry-overhead gate (see
                             :mod:`repro.bench`).
``python -m repro trace``    replays a workload with event tracing on
                             and writes a JSONL trace plus a summary
                             report (see :mod:`repro.observe.cli`).
``python -m repro analyze``  derives windowed time-series, interval
                             summaries and sparklines from a JSONL
                             trace (see :mod:`repro.observe.analysis`).
``python -m repro trace-diff`` aligns two JSONL traces and reports the
                             divergence point and per-kind deltas;
                             exits 1 when the traces differ.
``python -m repro check``    runs the differential oracle: fast kernels
                             vs. reference loops, free-list churn and
                             checked-mode invariants, fault-injection
                             recovery; exits 1 on any violation (see
                             :mod:`repro.check`).
``python -m repro sweep``    runs a deterministic machine × policy
                             sweep over a pluggable worker transport
                             (inline, process pool, subprocess/SSH
                             stream workers) with a resumable results
                             file and per-axis marginal tables (see
                             :mod:`repro.sweep`; accepts ``--quick``,
                             ``--workers``, ``--resume``, ``--checked``,
                             ``--transport``, ``--canon``).
``python -m repro trace-gen`` streams a workload straight into a binary
                             ``.rtrc`` columnar trace file without
                             materializing it in memory (see
                             :mod:`repro.trace.cli`); replay it with
                             ``trace PATH`` or ``traffic --trace-file``.
``python -m repro top``      renders the live telemetry dashboard —
                             counters, gauges and quantile sketches —
                             from a running sweep's heartbeat file or a
                             built-in demo run (see
                             :mod:`repro.observe.telemetry.cli`).
``python -m repro metrics-export`` writes a telemetry snapshot as
                             OpenMetrics exposition text, validated
                             before it is emitted.
``python -m repro traffic``  runs an open-arrival traffic campaign:
                             seeded session arrivals through admission
                             control and per-tenant quotas over the
                             shared frame pool, reporting steady-state
                             throughput and p50/p99 queue/fault waits
                             along an offered-load axis (see
                             :mod:`repro.traffic`; accepts ``--quick``,
                             ``--live``, ``--resume``, ``--compare``).
"""

from __future__ import annotations

import sys
from itertools import product


def _print_survey(verbose: bool) -> None:
    from repro.machines import all_machines, survey_matrix

    machines = all_machines()
    print(survey_matrix(machines))
    if verbose:
        print()
        for machine in machines:
            print(f"{machine.appendix}  {machine.name}")
            for facility in machine.hardware_facilities:
                print(f"      - {facility}")
            print(f"      notes: {machine.notes}")


def _print_space() -> None:
    from repro.core import (
        AllocationUnit,
        Contiguity,
        NameSpaceKind,
        PredictiveInformation,
        SystemCharacteristics,
    )
    from repro.errors import ConfigurationError

    for axes in product(
        NameSpaceKind, PredictiveInformation, Contiguity, AllocationUnit
    ):
        characteristics = SystemCharacteristics(*axes)
        try:
            characteristics.validate()
            marker = "  "
        except ConfigurationError:
            marker = "x "
        print(f"{marker}{characteristics.describe()}")
    print()
    print("x = invalid (uniform units require artificial contiguity)")


def _print_policies() -> None:
    from repro.alloc import PLACEMENT_POLICIES
    from repro.paging import REPLACEMENT_POLICIES

    print("placement policies :", ", ".join(PLACEMENT_POLICIES),
          "+ two_ends, buddy, boundary_tags, rice")
    print("replacement policies:", ", ".join(sorted(REPLACEMENT_POLICIES)))
    print("fetch timings       : demand, anticipatory (prefetch/advice), "
          "deferred write-back (cleaning)")


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    command = arguments[0] if arguments else "matrix"
    if command == "matrix":
        _print_survey(verbose=False)
    elif command == "survey":
        _print_survey(verbose=True)
    elif command == "space":
        _print_space()
    elif command == "policies":
        _print_policies()
    elif command == "bench":
        from repro.bench import main as bench_main

        return bench_main(arguments[1:])
    elif command == "trace":
        from repro.observe.cli import main as trace_main

        return trace_main(arguments[1:])
    elif command == "analyze":
        from repro.observe.analysis.cli import main_analyze

        return main_analyze(arguments[1:])
    elif command == "trace-diff":
        from repro.observe.analysis.cli import main_diff

        return main_diff(arguments[1:])
    elif command == "check":
        from repro.check.cli import main as check_main

        return check_main(arguments[1:])
    elif command == "sweep":
        from repro.sweep.cli import main as sweep_main

        return sweep_main(arguments[1:])
    elif command == "trace-gen":
        from repro.trace.cli import main as trace_gen_main

        return trace_gen_main(arguments[1:])
    elif command == "top":
        from repro.observe.telemetry.cli import run_top

        return run_top(arguments[1:])
    elif command == "metrics-export":
        from repro.observe.telemetry.cli import run_metrics_export

        return run_metrics_export(arguments[1:])
    elif command == "traffic":
        from repro.traffic.cli import main as traffic_main

        return traffic_main(arguments[1:])
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Output truncated by a pipe (e.g. `| head`): exit quietly.
        import os

        os.close(1)
        raise SystemExit(0)
