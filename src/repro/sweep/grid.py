"""Declarative sweep grids and deterministic shard seeding.

A :class:`SweepGrid` names the axes of a campaign; :meth:`SweepGrid.shards`
expands the cross product into :class:`Shard` specs in a fixed order.
Every shard carries a stable id built from its axis values, and every
random stream a shard uses is seeded by ``derive_seed(base_seed,
shard_id, channel)`` — a SHA-256 derivation, so shard results depend
only on the grid definition, never on which worker ran them or when.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator

from repro.core.builder import MACHINE_PRESETS

#: Record schema version written into every results line.
SCHEMA = 1

#: Replacement policies a grid may sweep.  ``opt`` is excluded (the
#: Belady policy must be constructed with the trace it will replay) and
#: ``random`` is excluded because an unseeded policy would break the
#: engine's bit-identical-results contract.
SWEEPABLE_REPLACEMENT = ("atlas", "clock", "fifo", "lfu", "lru", "m44")

SWEEPABLE_PLACEMENT = ("first_fit", "best_fit", "worst_fit", "next_fit")


def derive_seed(base_seed: int, shard_id: str, channel: str = "") -> int:
    """A 63-bit seed derived from (base seed, shard id, channel).

    Each shard draws every random stream it needs (replay trace, mix
    traces, allocation requests) from its own derived seeds, so no
    shard's results depend on any other shard having run — the property
    that makes worker count and scheduling order invisible.

    >>> derive_seed(1967, "a") != derive_seed(1967, "b")
    True
    >>> derive_seed(1967, "a", "replay") == derive_seed(1967, "a", "replay")
    True
    """
    material = f"{base_seed}\x1f{shard_id}\x1f{channel}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True, slots=True)
class Shard:
    """One grid cell: the axis values plus the workload sizing."""

    sweep: str
    machine: str
    replacement: str
    placement: str
    frames: int
    capacity: int
    sharing: int
    seed: int
    base_seed: int
    length: int
    pages: int
    requests: int
    mean_lifetime: int
    programs: int
    program_length: int
    offered: float = 1.0

    @property
    def id(self) -> str:
        """The stable shard identifier (axis values only).

        Workload sizing is deliberately not part of the id: the id keys
        resume (``SWEEP_results.jsonl`` matching), and two campaigns
        with different sizings should use different grid *names*.

        The ``offered`` segment appears only at non-default loads: the
        id also roots every :func:`derive_seed` stream, so stamping the
        default into it would silently re-seed — and re-answer — every
        previously recorded campaign.
        """
        base = (
            f"machine={self.machine}/replacement={self.replacement}/"
            f"placement={self.placement}/frames={self.frames}/"
            f"capacity={self.capacity}/sharing={self.sharing}/"
        )
        if self.offered != 1.0:
            base += f"offered={self.offered}/"
        return base + f"seed={self.seed}"

    def spec(self, checked: bool = False) -> dict:
        """The picklable, JSON-safe form handed to worker processes."""
        record = asdict(self)
        record["shard"] = self.id
        record["checked"] = checked
        return record


@dataclass(frozen=True)
class SweepGrid:
    """A declarative campaign: axes × workload sizing × base seed.

    Axes
    ----
    machines:
        Named hardware presets (see
        :data:`repro.core.builder.MACHINE_PRESETS`) supplying page size
        and backing timings — the machine-museum axis.
    replacement / placement:
        Policy names (:data:`SWEEPABLE_REPLACEMENT` /
        :data:`SWEEPABLE_PLACEMENT`).
    frames:
        Working-storage allotments for the replay and the mix — the
        Figure 2 x-axis.
    capacities:
        Allocator capacities in words for the churn leg.
    sharing:
        Sharing degrees (tenant counts) for the storage-service leg —
        how many forked tenants replay over one shared frame pool.
        Degree 1 is the unshared baseline (bit-identical to the plain
        replay path; see ``docs/SERVING.md``).
    offered:
        Offered-load multipliers for the open-arrival traffic leg —
        how far above or below the calibrated service capacity the
        arrival rate sits (see :mod:`repro.traffic`).  The default
        ``(1.0,)`` runs the leg at the knee.
    seeds:
        Workload seeds; each is further derived per shard and channel.

    Sizing fields set how much work each shard does; ``base_seed`` roots
    the seed derivation.  Everything round-trips through
    :meth:`to_dict` / :meth:`from_dict` so grids can live in JSON files.
    """

    name: str = "sweep"
    machines: tuple[str, ...] = ("baseline",)
    replacement: tuple[str, ...] = ("lru",)
    placement: tuple[str, ...] = ("best_fit",)
    frames: tuple[int, ...] = (16,)
    capacities: tuple[int, ...] = (40_000,)
    sharing: tuple[int, ...] = (1,)
    offered: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = (0,)
    base_seed: int = 1967
    length: int = 12_000
    pages: int = 128
    requests: int = 1_500
    mean_lifetime: int = 300
    programs: int = 2
    program_length: int = 1_200

    def __post_init__(self) -> None:
        for axis in ("machines", "replacement", "placement", "frames",
                     "capacities", "sharing", "offered", "seeds"):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"axis {axis!r} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"axis {axis!r} has duplicates: {values}")
        for machine in self.machines:
            if machine not in MACHINE_PRESETS:
                known = ", ".join(sorted(MACHINE_PRESETS))
                raise ValueError(
                    f"unknown machine preset {machine!r}; choose from {known}"
                )
        for policy in self.replacement:
            if policy not in SWEEPABLE_REPLACEMENT:
                raise ValueError(
                    f"replacement policy {policy!r} is not sweepable; "
                    f"choose from {SWEEPABLE_REPLACEMENT}"
                )
        for policy in self.placement:
            if policy not in SWEEPABLE_PLACEMENT:
                raise ValueError(
                    f"placement policy {policy!r} is not sweepable; "
                    f"choose from {SWEEPABLE_PLACEMENT}"
                )
        for frames in self.frames:
            if frames < 2:
                raise ValueError(f"frames must be >= 2, got {frames}")
        for capacity in self.capacities:
            if capacity <= 0:
                raise ValueError(f"capacity must be positive, got {capacity}")
        for degree in self.sharing:
            if degree <= 0:
                raise ValueError(f"sharing degree must be positive, got {degree}")
        for load in self.offered:
            if not 0 < load < math.inf:
                raise ValueError(
                    f"offered load must be finite and positive, got {load}"
                )
        if self.programs <= 0:
            raise ValueError("programs must be positive")
        for field_name in ("length", "pages", "requests", "mean_lifetime",
                           "program_length"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @property
    def size(self) -> int:
        """Number of shards the grid expands to."""
        return (
            len(self.machines) * len(self.replacement) * len(self.placement)
            * len(self.frames) * len(self.capacities) * len(self.sharing)
            * len(self.offered) * len(self.seeds)
        )

    def shards(self) -> Iterator[Shard]:
        """Expand the cross product, in a fixed, documented order.

        Axis order (outermost first): machine, replacement, placement,
        frames, capacity, sharing, offered, seed.  The order only
        affects scheduling and reporting — never results.
        """
        for machine in self.machines:
            for replacement in self.replacement:
                for placement in self.placement:
                    for frames in self.frames:
                        for capacity in self.capacities:
                            for degree in self.sharing:
                                for load in self.offered:
                                    for seed in self.seeds:
                                        yield Shard(
                                            sweep=self.name,
                                            machine=machine,
                                            replacement=replacement,
                                            placement=placement,
                                            frames=frames,
                                            capacity=capacity,
                                            sharing=degree,
                                            seed=seed,
                                            base_seed=self.base_seed,
                                            length=self.length,
                                            pages=self.pages,
                                            requests=self.requests,
                                            mean_lifetime=self.mean_lifetime,
                                            programs=self.programs,
                                            program_length=self.program_length,
                                            offered=load,
                                        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepGrid":
        """Build a grid from a plain dict (tuples may arrive as lists)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown grid fields: {sorted(unknown)}")
        coerced = {}
        for key, value in data.items():
            coerced[key] = tuple(value) if isinstance(value, list) else value
        return cls(**coerced)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepGrid":
        """Load a grid from a JSON file (the ``--grid`` form)."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def quick_grid() -> SweepGrid:
    """The CI smoke grid: 16 shards, seconds of work."""
    return SweepGrid(
        name="quick",
        machines=("baseline", "atlas"),
        replacement=("lru", "fifo"),
        placement=("best_fit",),
        frames=(8, 16),
        capacities=(20_000,),
        seeds=(0, 1),
        length=3_000,
        pages=64,
        requests=500,
        mean_lifetime=400,
        program_length=800,
    )


def default_grid() -> SweepGrid:
    """The default campaign: a machine-museum slice of Figures 2–4."""
    return SweepGrid(
        name="museum",
        machines=("baseline", "atlas", "m44"),
        replacement=("lru", "fifo", "clock"),
        placement=("best_fit", "first_fit"),
        frames=(8, 16, 32),
        capacities=(40_000,),
        seeds=(0, 1, 2),
    )


__all__ = [
    "SCHEMA",
    "SWEEPABLE_PLACEMENT",
    "SWEEPABLE_REPLACEMENT",
    "Shard",
    "SweepGrid",
    "default_grid",
    "derive_seed",
    "quick_grid",
]
