"""Segmentation hardware: SDWs, descriptor segments, PTWs, translation.

Every reference by the simulated CPU passes through
:func:`translate`, which enforces, in order:

1. a valid SDW exists for the segment number (else segment fault);
2. the reference is inside the segment's bound (else bounds violation);
3. the executing ring and the SDW's access/brackets permit the intent
   (else access violation) — this is the hardware half of the
   reference monitor;
4. the page is in core (else missing-page fault, serviced by page
   control).

Nothing above the hardware can bypass this path; the kernel differs
from user code only in the SDWs its descriptor segment contains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import (
    AccessViolation,
    BoundsViolation,
    MissingPageFault,
    SegmentFault,
)
from repro.hw.assoc import AssociativeMemory
from repro.hw.rings import RingBrackets


class AccessMode:
    """Permission bits recorded in an SDW (and in ACL entries).

    Plain ``int`` bits, as the 6180 held them in the SDW: every check on
    the reference path is a machine-word ``&``.  The class is only a
    namespace; a mode is an ``int`` in ``0..7``.
    """

    NONE = 0
    R = 1
    E = 2
    W = 4
    RW = R | W
    RE = R | E
    REW = R | E | W

    @staticmethod
    def from_string(text: str) -> int:
        """Parse Multics-style mode strings like ``"rw"`` or ``"re"``."""
        mode = 0
        for ch in text.lower():
            bit = _MODE_BITS.get(ch)
            if bit is None:
                raise ValueError(f"unknown access mode character {ch!r}")
            mode |= bit
        return mode

    @staticmethod
    def to_string(mode: int) -> str:
        """The canonical mode string (``"rew"`` order, ``"n"`` for none)."""
        if 0 <= mode <= AccessMode.REW:
            return _MODE_STRINGS[mode]
        raise ValueError(f"access mode {mode!r} outside 0..7")


#: Mode character -> bit (``n`` and blank grant nothing).
_MODE_BITS = {"r": AccessMode.R, "e": AccessMode.E, "w": AccessMode.W,
              "n": 0, " ": 0}
#: Mode -> canonical string, indexed by the bits.
_MODE_STRINGS = ("n", "r", "e", "re", "w", "rw", "ew", "rew")


class Intent(enum.StrEnum):
    """What a reference is trying to do.

    A ``StrEnum`` so that an associative-memory key
    ``(segno, pageno, ring, intent)`` hashes in C (``str.__hash__``);
    members are still compared by identity on the reference path.
    """

    READ = "read"
    WRITE = "write"
    FETCH = "fetch"  #: instruction fetch


@dataclass(slots=True)
class PTW:
    """Page table word: core-residence state of one page.

    ``used`` and ``modified`` are the hardware-maintained bits that
    replacement policies sample (through gates, in the new design — E7).
    Slotted: one PTW exists per page of every active segment, and the
    CPU touches one per reference — the hottest struct in the machine.
    """

    in_core: bool = False
    frame: int | None = None
    used: bool = False
    modified: bool = False

    def place(self, frame: int) -> None:
        self.in_core = True
        self.frame = frame
        self.used = False
        self.modified = False

    def evict(self) -> None:
        self.in_core = False
        self.frame = None


@dataclass
class SDW:
    """Segment descriptor word as seen by one process.

    The access mode and brackets here are *per-process*: the kernel sets
    them from the branch ACL when the segment is added to the process's
    address space, so hardware enforcement and the file-system access
    model coincide.
    """

    segno: int
    access: int  #: AccessMode bits
    brackets: RingBrackets
    page_table: list[PTW] = field(default_factory=list)
    bound: int = 0
    #: Legal gate entry offsets for inward calls, or None if no gates.
    gates: frozenset[int] | None = None
    #: Opaque link back to the owning file-system object (UID).
    uid: int | None = None

    def n_pages(self) -> int:
        return len(self.page_table)


class DescriptorSegment:
    """The per-process table mapping segment numbers to SDWs.

    Carries the process's associative memory: cached results of
    :func:`translate` over these SDWs.  Changing the table fires the
    selective ``cam`` so no cached translation outlives its SDW.
    """

    def __init__(self) -> None:
        self._sdws: dict[int, SDW] = {}
        self.am = AssociativeMemory()
        #: Per-CPU associative memories connected to this table (SMP):
        #: they cache its translations in place of :attr:`am`.  A CPU
        #: stays connected after its job leaves, until it is connected
        #: to another table (see ``CPU._am_for``).  A tuple: the empty
        #: one is shared by the 10k tables no CPU is connected to.
        self.cpu_ams: tuple[AssociativeMemory, ...] = ()

    def add(self, sdw: SDW) -> None:
        if sdw.segno in self._sdws:
            raise ValueError(f"segment number {sdw.segno} already in use")
        self._sdws[sdw.segno] = sdw
        self.invalidate_segno(sdw.segno)

    def remove(self, segno: int) -> SDW:
        try:
            sdw = self._sdws.pop(segno)
        except KeyError:
            raise SegmentFault(segno, f"segment {segno} not in address space") from None
        self.invalidate_segno(segno)
        return sdw

    def invalidate_segno(self, segno: int) -> None:
        """The selective ``cam`` for one segment number, in every AM
        that may hold this table's decisions: an SDW added, removed or
        rewritten (revocation)."""
        self.am.invalidate_segno(segno)
        for am in self.cpu_ams:
            am.invalidate_segno(segno)

    def get(self, segno: int) -> SDW:
        try:
            return self._sdws[segno]
        except KeyError:
            raise SegmentFault(segno) from None

    def maybe(self, segno: int) -> SDW | None:
        return self._sdws.get(segno)

    def __contains__(self, segno: int) -> bool:
        return segno in self._sdws

    def __iter__(self):
        return iter(self._sdws.values())

    def __len__(self) -> int:
        return len(self._sdws)

    def segnos(self) -> list[int]:
        return sorted(self._sdws)


def check_access(sdw: SDW, ring: int, intent: Intent) -> None:
    """Raise :class:`AccessViolation` unless ``ring`` may perform
    ``intent`` on the segment described by ``sdw``."""
    if intent is Intent.READ:
        if not (sdw.access & AccessMode.R and sdw.brackets.may_read(ring)):
            raise AccessViolation(
                f"ring {ring} may not read segment {sdw.segno} "
                f"(access {AccessMode.to_string(sdw.access)}, "
                f"brackets {sdw.brackets!r})"
            )
    elif intent is Intent.WRITE:
        if not (sdw.access & AccessMode.W and sdw.brackets.may_write(ring)):
            raise AccessViolation(
                f"ring {ring} may not write segment {sdw.segno} "
                f"(access {AccessMode.to_string(sdw.access)}, "
                f"brackets {sdw.brackets!r})"
            )
    elif intent is Intent.FETCH:
        if not sdw.access & AccessMode.E:
            raise AccessViolation(
                f"segment {sdw.segno} is not executable"
            )
        # Ring legality of execution is established at CALL time by
        # rings.call_check; a fetch in a ring outside the execute
        # bracket means the call machinery was bypassed.
        if not (
            sdw.brackets.in_execute_bracket(ring)
            or sdw.brackets.in_call_bracket(ring)
        ):
            raise AccessViolation(
                f"ring {ring} may not execute segment {sdw.segno} "
                f"(brackets {sdw.brackets!r})"
            )
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown intent {intent!r}")


def translate(
    dseg: DescriptorSegment,
    segno: int,
    offset: int,
    ring: int,
    intent: Intent,
    page_size: int,
    am: AssociativeMemory | None = None,
) -> tuple[int, int]:
    """Full address translation; returns ``(core_frame, word_offset)``.

    Raises the appropriate hardware fault when translation cannot
    complete.  Marks the PTW used (and modified, for writes) on success.

    With ``am`` (normally ``dseg.am``), a previously checked
    ``(segno, pageno, ring, intent)`` short-circuits the SDW walk and
    access computation to the cached frame — the 6180 associative
    memory.  A hit still marks the PTW bits, so replacement sampling is
    identical with the cache on or off, and the offset stays bounded by
    the cached SDW bound (see :mod:`repro.hw.assoc` for the
    invalidation contract that keeps the cache honest).
    """
    if offset < 0:
        # Reject before the AM is even probed: a negative offset maps
        # to pageno -1, and no cached entry may ever witness it.
        sdw = dseg.get(segno)
        raise BoundsViolation(
            f"offset {offset} outside bound {sdw.bound} of segment {segno}"
        )
    pageno = offset // page_size
    word = offset - pageno * page_size
    if am is not None:
        hit = am.probe(segno, pageno, ring, intent, offset)
        if hit is not None:
            frame, ptw = hit
            ptw.used = True
            if intent is Intent.WRITE:
                ptw.modified = True
            return frame, word
    sdw = dseg.get(segno)
    if offset >= sdw.bound:
        raise BoundsViolation(
            f"offset {offset} outside bound {sdw.bound} of segment {segno}"
        )
    check_access(sdw, ring, intent)
    ptw = sdw.page_table[pageno]
    if not ptw.in_core or ptw.frame is None:
        raise MissingPageFault(segno, pageno)
    ptw.used = True
    if intent is Intent.WRITE:
        ptw.modified = True
    if am is not None:
        am.insert(segno, pageno, ring, intent, ptw.frame, ptw,
                  sdw.bound, sdw.uid)
    return ptw.frame, word
