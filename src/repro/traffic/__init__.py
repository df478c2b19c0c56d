"""Open-arrival traffic: admission control and tail latency under load.

The closed-loop tiers (``repro.paging``, ``repro.serve``) replay fixed
traces to completion; this tier opens the front door.  Seeded arrival
processes (:mod:`~repro.traffic.arrivals`) generate tenant *sessions*
— spec-only until admitted (:mod:`~repro.traffic.session`) — that an
:class:`~repro.traffic.admission.AdmissionController` admits, queues,
or sheds against the shared pool's watermarks and per-tenant quotas;
queue-drain policies (:mod:`~repro.traffic.queueing`) decide who goes
next, and the engine (:mod:`~repro.traffic.engine`) measures what an
open system is about: queue-wait and fault-wait *distributions* under
an offered-load axis, as mergeable log histograms.  Campaigns of points
run on the sweep engine's coordinator (:func:`repro.sweep.engine.coordinate`),
so checkpoints, resume, heartbeats and the bit-identity form
(``strip_nondeterministic``, ``canonical_lines``) are the sweep's own.
"""

from repro.sweep.checkpoint import strip_nondeterministic
from repro.traffic.admission import (
    ADMIT,
    QUEUE_QUOTA,
    QUEUE_WATERMARK,
    SHED_OVERSIZE,
    AdmissionController,
)
from repro.traffic.arrivals import ARRIVAL_PROCESSES, make_arrivals
from repro.traffic.engine import (
    DEFAULT_LOADS,
    TRAFFIC_SCHEMA,
    TrafficPointResult,
    build_points,
    generate_sessions,
    run_campaign,
    run_traffic_point,
    simulate_traffic,
)
from repro.traffic.queueing import DRAIN_POLICIES, DrainPolicy, make_drain_policy
from repro.traffic.session import ActiveSession, SessionSpec

__all__ = [
    "ADMIT",
    "ARRIVAL_PROCESSES",
    "DEFAULT_LOADS",
    "DRAIN_POLICIES",
    "QUEUE_QUOTA",
    "QUEUE_WATERMARK",
    "SHED_OVERSIZE",
    "TRAFFIC_SCHEMA",
    "ActiveSession",
    "AdmissionController",
    "DrainPolicy",
    "SessionSpec",
    "TrafficPointResult",
    "build_points",
    "generate_sessions",
    "make_arrivals",
    "make_drain_policy",
    "run_campaign",
    "run_traffic_point",
    "simulate_traffic",
    "strip_nondeterministic",
]
