"""The interpreter's reference leg and its frozen fingerprints.

:meth:`repro.hw.cpu.CPU.stepper` is the only interpreter.  It runs a
code segment's straight-line runs as compiled superblocks
(:class:`repro.hw.cpu.BlockTable`) and everything else through one
per-instruction body.  Two oracles hold the blocks to the
per-instruction semantics:

* :func:`per_instruction` — the same loop with block compilation
  substituted out: every block-table entry is ``()``, so every
  instruction takes the per-instruction body.  A run under it is the
  reference leg of every block-vs-reference comparison (the fuzz in
  ``tests/test_blocks.py``, the equivalence tests, bench E18).
* ``tests/golden/interpreter.json`` — architectural fingerprints
  (:func:`fingerprint`) of the workloads in
  ``tests.test_fast_path.GOLDEN_WORKLOADS``, recorded from the
  per-instruction core before the block-compiling loop became the only
  one.  ``python -m tests.interpreter_oracle`` prints them for the
  current tree; rewrite the fixture only for a change that is meant to
  move a simulated result, and say why.
* ``tests/golden/blocks_fuzz.json`` — digests of fuzz cases recorded
  from the same core (see ``tests.test_blocks.FUZZ_GOLDEN``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib

import repro.hw.cpu as cpu_module
from repro import MulticsSystem, kernel_config
from repro.workloads import WorkloadDriver, generate_population

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "interpreter.json"


class _NoBlocks:
    """A block table in which no instruction can start a block."""

    __slots__ = ("decoded", "blocks")

    def __init__(self, decoded: list) -> None:
        self.decoded = decoded
        self.blocks = [()] * len(decoded)


def _no_blocks(code) -> _NoBlocks:
    return _NoBlocks(cpu_module._decoded_for(code))


@contextlib.contextmanager
def per_instruction():
    """Run every CPU stepper started inside the block one instruction
    at a time.  Nothing is cached on the code segments, so blocks
    compiled before or after are untouched."""
    real = cpu_module.block_table
    cpu_module.block_table = _no_blocks
    try:
        yield
    finally:
        cpu_module.block_table = real


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(system, cpus, ams, result, error) -> dict:
    """The architectural outcome of one run: what it returned or raised,
    what every CPU and AM counted, the final clock, and digests of the
    audit log and the metrics snapshot."""
    return {
        "result": result,
        "error": error,
        "cycles": [cpu.cycles for cpu in cpus],
        "instructions": [cpu.instructions_executed for cpu in cpus],
        "am_hit_cycles": [cpu.am_hit_cycles for cpu in cpus],
        "walk_cycles": [cpu.walk_cycles for cpu in cpus],
        "am": [[am.hits, am.misses, am.invalidations, am.cams,
                am.capacity_evictions] for am in ams],
        "clock": system.clock.now,
        "audit_sha256": _sha256(system.audit.to_json()),
        "metrics_sha256": _sha256(system.metrics.to_json()),
    }


def complex_fingerprint(system, cx, jobs) -> dict:
    """:func:`fingerprint` of an SMP complex run."""
    return fingerprint(
        system, cx.cpus, [cpu.private_am for cpu in cx.cpus],
        [job.result for job in jobs],
        [repr(job.error) if job.error is not None else ""
         for job in jobs],
    )


#: Bench E18's configuration: small pages (the profile strides assume
#: them) and a hierarchy deep enough that 10k users' working sets fit
#: on disk and thrash core; a 2-CPU complex; the seeded population.
WORKLOAD_FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
                       disk_frames=65536)
WORKLOAD_SEED = 1975
WORKLOAD_CPUS = 2


def run_workload(n_users: int, seed: int = WORKLOAD_SEED):
    """Drive ``n_users`` of the seeded E18 population through a fresh
    kernel system; returns ``(system, driver, report)``."""
    system = MulticsSystem(kernel_config(**WORKLOAD_FRAMES)).boot()
    driver = WorkloadDriver(system, n_cpus=WORKLOAD_CPUS)
    report = driver.run(generate_population(n_users, seed=seed))
    return system, driver, report


def workload_fingerprint(system, driver, report) -> dict:
    """:func:`fingerprint` of a :func:`run_workload` run; the result is
    the report without its wall-clock fields."""
    derived = report.to_dict()
    for wall in ("wall_seconds", "users_per_sec", "cycles_per_sec"):
        del derived[wall]
    cpus = driver.complex.cpus
    return fingerprint(system, cpus, [cpu.private_am for cpu in cpus],
                       derived, "")


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    from tests.test_fast_path import GOLDEN_WORKLOADS

    print(json.dumps({name: run() for name, run in GOLDEN_WORKLOADS.items()},
                     indent=1))


if __name__ == "__main__":
    main()
