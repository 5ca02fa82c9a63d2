"""I/O gates: the legacy per-device families and the new network path.

Legacy: one kernel mechanism — a gate family with handler state — per
device class (terminal, tape, card reader, card punch, printer).  All
tagged ``removed_by="device_io"``.

New: the single ARPA network attachment ("Using network technology to
provide the only path for external I/O to Multics appears feasible").
Five gates replace eleven, and four device driver mechanisms leave the
kernel entirely.  Internal I/O (paging) never had gates; it is kernel
machinery either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvalidArgument, NoSuchEntry
from repro.kernel.gates import Gate

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.services import KernelServices


def _device(services, name, expected_class):
    device = services.devices.get(name)
    if device is None:
        raise NoSuchEntry(f"no device {name!r}")
    if device.device_class != expected_class:
        raise InvalidArgument(
            f"{name!r} is a {device.device_class}, not a {expected_class}"
        )
    return device


# -- terminals ---------------------------------------------------------------

def h_tty_attach(services, process, name):
    _device(services, name, "terminal").attach(process.pid)
    return name


def h_tty_detach(services, process, name):
    _device(services, name, "terminal").detach(process.pid)
    return name


def h_tty_read(services, process, name):
    return _device(services, name, "terminal").read_line(process.pid)


def h_tty_write(services, process, name, line):
    _device(services, name, "terminal").write_line(process.pid, line)
    return len(line)


# -- tapes ---------------------------------------------------------------------

def h_tape_attach(services, process, name):
    _device(services, name, "tape").attach(process.pid)
    return name


def h_tape_detach(services, process, name):
    _device(services, name, "tape").detach(process.pid)
    return name


def h_tape_read(services, process, name):
    return _device(services, name, "tape").read_record(process.pid)


def h_tape_write(services, process, name, record):
    _device(services, name, "tape").write_record(process.pid, record)
    return len(record)


# -- unit record -----------------------------------------------------------------

def h_card_read(services, process, name):
    device = _device(services, name, "card_reader")
    device.attach(process.pid)
    try:
        return device.read_card(process.pid)
    finally:
        device.detach(process.pid)


def h_card_punch(services, process, name, card):
    device = _device(services, name, "card_punch")
    device.attach(process.pid)
    try:
        device.punch_card(process.pid, card)
    finally:
        device.detach(process.pid)
    return len(card)


def h_print_line(services, process, name, line):
    device = _device(services, name, "printer")
    device.attach(process.pid)
    try:
        device.print_line(process.pid, line)
    finally:
        device.detach(process.pid)
    return len(line)


# -- the network attachment (new path) ----------------------------------------------

def h_net_send(services, process, host, body):
    """Send a message to the network.

    The attachment is an *unclassified* sink: the *-property forbids a
    cleared subject writing to it, which is what closes the overt
    exfiltration channel the legacy per-device gates leave open
    (experiment E11, attack A5).
    """
    from repro.security.mac import BOTTOM

    if process.principal is not None:
        # A MAC decision in its own right (the gate layer also records
        # the denial of the call itself).
        services.monitor.check_sink_write(
            process.principal, f"net:{host}", BOTTOM,
            "the unclassified network channel",
            time=services.sim.clock.now, ring=process.ring,
        )
    message = services.network.send(host, body)
    return message.seq


def h_net_receive(services, process):
    message = services.network.receive()
    if message is None:
        return None
    return {"seq": message.seq, "host": message.host, "body": message.body}


def h_net_status(services, process):
    return {
        "backlog": services.network.backlog,
        "lost": services.network.messages_lost,
        "received": services.network.received_count,
        "buffer": services.network.buffer.kind,
    }


def h_net_attach(services, process):
    # The attachment is shared; attach is a no-op handle grant kept for
    # interface symmetry with the devices it replaces.
    return "net"


def h_net_detach(services, process):
    return "net"


def legacy_device_gates() -> list[Gate]:
    """The per-device gate families the kernel removes."""
    tag = "device_io"
    return [
        Gate("ios_$tty_attach", "io_device", h_tty_attach, ("str",),
             removed_by=tag, doc="attach a terminal"),
        Gate("ios_$tty_detach", "io_device", h_tty_detach, ("str",),
             removed_by=tag, doc="detach a terminal"),
        Gate("ios_$tty_read", "io_device", h_tty_read, ("str",),
             removed_by=tag, doc="read a typed line"),
        Gate("ios_$tty_write", "io_device", h_tty_write, ("str", "str"),
             removed_by=tag, doc="print a line on a terminal"),
        Gate("ios_$tape_attach", "io_device", h_tape_attach, ("str",),
             removed_by=tag, doc="attach a tape drive"),
        Gate("ios_$tape_detach", "io_device", h_tape_detach, ("str",),
             removed_by=tag, doc="detach a tape drive"),
        Gate("ios_$tape_read", "io_device", h_tape_read, ("str",),
             removed_by=tag, doc="read the next tape record"),
        Gate("ios_$tape_write", "io_device", h_tape_write, ("str", "words"),
             removed_by=tag, doc="write a tape record"),
        Gate("ios_$card_read", "io_device", h_card_read, ("str",),
             removed_by=tag, doc="read a card"),
        Gate("ios_$card_punch", "io_device", h_card_punch, ("str", "str"),
             removed_by=tag, doc="punch a card"),
        Gate("ios_$print_line", "io_device", h_print_line, ("str", "str"),
             removed_by=tag, doc="print a line"),
    ]


def network_gates() -> list[Gate]:
    """The single I/O mechanism the kernel keeps."""
    return [
        Gate("net_$attach", "io_network", h_net_attach, (),
             doc="acquire the network attachment"),
        Gate("net_$detach", "io_network", h_net_detach, (),
             doc="release the network attachment"),
        Gate("net_$send", "io_network", h_net_send, ("str", "str"),
             doc="send a message"),
        Gate("net_$receive", "io_network", h_net_receive, (),
             doc="receive the next buffered message"),
        Gate("net_$status", "io_network", h_net_status, (),
             doc="attachment health"),
    ]
