"""repro — a reproduction of Schroeder, "Engineering a Security Kernel
for Multics" (SOSP 1975).

A complete simulated Multics: a 6180-like hardware substrate
(segments, rings, gates, a three-level memory hierarchy), a
discrete-event process implementation, a two-layer file system with
ACLs and the MITRE compartment lattice — and **two supervisors** on
top: the full legacy supervisor and the paper's minimized security
kernel.  Every engineering claim of the paper is reproduced as a
measured before/after experiment (see DESIGN.md and EXPERIMENTS.md).

Quick start::

    from repro import MulticsSystem, SystemConfig

    system = MulticsSystem(SystemConfig()).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    session = system.login("Alice", "Crypto", "alice-pw")
    segno = session.create_segment("notes", n_pages=2)
    session.write_words(segno, [1, 2, 3])
"""

import dataclasses

from repro.config import (
    BufferKind,
    InitKind,
    InterruptKind,
    PageControlKind,
    RingMode,
    SupervisorKind,
    SystemConfig,
)
from repro.security.mac import SecurityLabel
from repro.security.principal import Principal
from repro.system import MulticsSystem, Session

__version__ = "1.0.0"

__all__ = [
    "MulticsSystem",
    "Session",
    "SystemConfig",
    "SupervisorKind",
    "RingMode",
    "PageControlKind",
    "BufferKind",
    "InitKind",
    "InterruptKind",
    "SecurityLabel",
    "Principal",
    "legacy_config",
    "kernel_config",
    "__version__",
]


def legacy_config(**overrides) -> SystemConfig:
    """The historical 'before' configuration: 645 software rings,
    sequential page control, circular buffers, in-kernel everything.
    An override naming no :class:`SystemConfig` field raises
    ``TypeError``."""
    config = SystemConfig(
        supervisor=SupervisorKind.LEGACY,
        ring_mode=RingMode.SOFTWARE_645,
        page_control=PageControlKind.SEQUENTIAL,
        buffers=BufferKind.CIRCULAR,
        init=InitKind.BOOTSTRAP,
        interrupts=InterruptKind.IN_PROCESS,
        clear_freed_frames=False,
    )
    return dataclasses.replace(config, **overrides)


def kernel_config(**overrides) -> SystemConfig:
    """The paper's 'after' configuration: the security kernel on 6180
    hardware rings with every simplification applied.  An override
    naming no :class:`SystemConfig` field raises ``TypeError``."""
    return SystemConfig(**overrides)
