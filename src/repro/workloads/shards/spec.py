"""The shard wire format and the user-UID partition.

A :class:`ShardSpec` is everything one worker process needs to rebuild
its slice of the world from scratch: the *population parameters* (not
the population — regenerating a seeded population in the worker keeps
the pickle a few hundred bytes no matter how many users the run has)
plus the :class:`~repro.config.SystemConfig` and driver knobs.  A
:class:`ShardResult` is everything the merge layer folds back: the
shard's :class:`~repro.workloads.driver.WorkloadReport`, its
``repro.obs/v1`` metric snapshot, and its audit-log summary.

The partition is by *user UID* (the stable ``person`` name), not by
list position: ``assign_shard`` hashes the principal with CRC-32, so a
user lands on the same shard for any population ordering, and the
population a worker regenerates locally is byte-for-byte the slice the
orchestrator would have sent it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.workloads.driver import UserSpec, WorkloadReport


def assign_shard(person: str, n_shards: int) -> int:
    """Stable shard index for one principal (CRC-32 of the name)."""
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if n_shards == 1:
        return 0
    return zlib.crc32(person.encode("utf-8")) % n_shards


def partition_population(
    population: list[UserSpec], n_shards: int
) -> list[list[UserSpec]]:
    """Split a population into per-shard lists by user UID.

    Every user appears in exactly one slice; relative arrival order
    within a slice follows the input order.
    """
    slices: list[list[UserSpec]] = [[] for _ in range(n_shards)]
    for spec in population:
        slices[assign_shard(spec.person, n_shards)].append(spec)
    return slices


@dataclass(frozen=True)
class ShardSpec:
    """One worker's complete, picklable job description.

    ``users`` is normally ``None`` — the worker regenerates the full
    seeded population locally and keeps its own slice.  A pre-built
    population can be passed explicitly (tuple, for pickling) when the
    caller needs a hand-crafted one; it is used as-is, unfiltered.
    """

    shard_id: int
    n_shards: int
    seed: int
    n_users: int
    config: SystemConfig = field(default_factory=SystemConfig)
    # Population parameters (mirror generate_population's signature).
    mix: dict[str, float] | None = None
    process: str = "poisson"
    mean_gap: float = 400.0
    burst_size: int = 32
    mean_lull: float = 20_000.0
    project: str = "Load"
    # Driver knobs (mirror WorkloadDriver's signature).
    n_cpus: int | None = None
    batch_size: int = 64
    quantum: int | None = None
    max_instructions: int = 1_000_000
    #: Explicit population override; bypasses regeneration AND the
    #: shard filter.
    users: tuple[UserSpec, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("need at least one shard")
        if not 0 <= self.shard_id < self.n_shards:
            raise ValueError(
                f"shard_id {self.shard_id} outside [0, {self.n_shards})"
            )
        if self.n_users < 0:
            raise ValueError("n_users cannot be negative")


@dataclass
class ShardResult:
    """What one worker sends back for merging."""

    shard_id: int
    report: WorkloadReport
    #: The shard system's ``repro.obs/v1`` snapshot (deterministic —
    #: simulated values only, no wall-clock numbers).
    snapshot: dict = field(default_factory=dict)
    #: Audit-log summary: seen / denials.
    audit: dict = field(default_factory=dict)
    #: The shard's ``repro.timeline/v1`` document (None when the config
    #: runs without a timeline).  All-simulated values, so it folds
    #: deterministically — see ``shards/merge.merge_timelines``.
    timeline: dict | None = None
    #: Wall seconds this worker spent end to end (boot included).
    #: Lives outside the snapshot so merged documents stay
    #: byte-identical across same-seed runs.
    wall_seconds: float = 0.0
