"""Associative memory: the simulated 6180 SDW/PTW translation cache.

The paper's reference-monitor argument requires *every* reference to
pass SDW access + bracket checks and a PTW residence check
(:func:`repro.hw.segmentation.translate`).  The real 6180 made that
affordable with small associative memories holding recently used SDWs
and PTWs, so the full descriptor walk ran only on an AM miss.  This
module models that cache: a bounded LRU, per process (the simulated
analogue of per-CPU, since a process's descriptor segment defines its
translation context), keyed on ``(segno, pageno, ring, intent)`` and
holding the *result* of a complete check chain — the core frame plus
the PTW that witnessed it.

Security invariant — the cache must never outlive the decision it
caches.  Two mechanisms enforce it:

1. **Explicit invalidation** (the Multics ``cam`` — clear associative
   memory — instruction, and its selective descendants).  Every kernel
   action that changes a translation's inputs clears the affected
   entries: SDW add/remove (:class:`~repro.hw.segmentation.
   DescriptorSegment`), ACL/brackets revocation (``KernelServices.
   revoke_branch_access``), page eviction and placement
   (:mod:`repro.vm.page_control`), and address-space teardown.
   Cross-process events (a page leaving core affects every process
   sharing the segment) broadcast through :func:`cam_uid` /
   :func:`cam_all` to every live AM, exactly as the 6180's connect
   mechanism fired ``cam`` on every CPU.

2. **Witness checks on hit** (:meth:`AssociativeMemory.probe`).  A hit
   is honoured only if the cached PTW is still in core in the cached
   frame and the offset is inside the cached bound.  The *access*
   decision has no such cheap authoritative witness — that is what the
   explicit ``cam`` on revocation exists for — but residence staleness
   can never leak a reused frame even if an invalidation hook were
   missed.

Fetch-legality entries (``pageno == FETCH_PAGENO``) cache the
instruction-fetch access check the CPU otherwise performs per
instruction; they hold no frame and are cleared by the same
invalidations.
"""

from __future__ import annotations

import weakref

#: Default entries per associative memory (the 6180's PTW AM held 16;
#: we default larger because one AM serves a whole process here).
DEFAULT_ENTRIES = 64

#: Pseudo page number keying fetch-legality entries (no frame cached).
FETCH_PAGENO = -1

#: Pseudo intent keying fetch-legality entries, kept private to this
#: module so it can never collide with a real Intent.
_FETCH = object()

#: Every live AM, for the cam broadcast (WeakSet: an AM dies with its
#: descriptor segment and drops out of the broadcast automatically).
_LIVE: "weakref.WeakSet[AssociativeMemory]" = weakref.WeakSet()

#: uid -> the AMs currently caching at least one entry for that object.
#: ``cam_uid`` visits only these instead of every live AM: with a 10k-user
#: population there are 10k+ live AMs but each segment is cached by a
#: handful, and page control fires ``cam_uid`` on *every* page movement.
#: AMs without the uid contributed nothing to the broadcast anyway
#: (``invalidate_uid`` returns 0 before touching any counter), so the
#: restricted walk is observationally identical.
_BY_UID: dict[int, "weakref.WeakSet[AssociativeMemory]"] = {}


def fetch_key(segno: int, ring: int) -> tuple:
    """The cache key of a fetch-legality entry.

    Public so the CPU's interpreter can test membership in the
    entry table directly without reconstructing the private intent
    sentinel.  A fetch check counts as an AM hit or miss; the
    interpreter does that counting itself (:meth:`repro.hw.cpu.CPU.stepper`).
    """
    return (segno, FETCH_PAGENO, ring, _FETCH)


class AssociativeMemory:
    """Bounded cache of checked translations for one descriptor segment.

    Replacement is round-robin (evict in insertion order), like the
    hardware's replacement cursor: a hit is a pure lookup, with no
    recency bookkeeping on the hot path.

    Slotted: a 10k-user population carries one AM per process, and the
    CPU touches the entry table on every reference.  ``__weakref__``
    stays declared so the ``_LIVE`` cam-broadcast WeakSet keeps
    working.
    """

    __slots__ = ("capacity", "_entries", "_by_segno", "_by_uid",
                 "_key_uid", "hits", "misses", "invalidations", "cams",
                 "capacity_evictions", "__weakref__")

    def __init__(self, capacity: int = DEFAULT_ENTRIES) -> None:
        self.capacity = capacity
        #: key -> (frame, ptw, bound) for translations, None for
        #: fetch-legality entries.  Insertion order is eviction order.
        self._entries: dict[tuple, tuple | None] = {}
        #: Secondary indexes for selective invalidation.
        self._by_segno: dict[int, set[tuple]] = {}
        self._by_uid: dict[int, set[tuple]] = {}
        self._key_uid: dict[tuple, int] = {}
        # Accounting (aggregated into am.* metrics by KernelServices).
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.cams = 0
        self.capacity_evictions = 0
        _LIVE.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ----------------------------------------------------------

    def probe(self, segno: int, pageno: int, ring: int, intent,
              offset: int) -> tuple | None:
        """Return ``(frame, ptw)`` for a still-valid cached translation,
        else None.  Counts the hit/miss; drops entries whose witness
        checks fail (see module docstring)."""
        key = (segno, pageno, ring, intent)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        frame, ptw, bound = entry
        if offset >= bound or not ptw.in_core or ptw.frame != frame:
            # Residence or bound witness failed: the mapping moved
            # underneath the cache.  Never honour it.
            self._drop(key)
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return frame, ptw

    # -- insertion -------------------------------------------------------

    def insert(self, segno: int, pageno: int, ring: int, intent,
               frame: int, ptw, bound: int, uid: int | None) -> None:
        """Record one fully checked translation."""
        self._insert((segno, pageno, ring, intent), (frame, ptw, bound),
                     segno, uid)

    def fetch_insert(self, segno: int, ring: int, uid: int | None) -> None:
        """Record one fully checked fetch-legality decision."""
        self._insert(fetch_key(segno, ring), None, segno, uid)

    def _insert(self, key, value, segno, uid) -> None:
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.pop(key)
        while len(self._entries) >= self.capacity:
            self._drop(next(iter(self._entries)))
            self.capacity_evictions += 1
        self._entries[key] = value
        self._by_segno.setdefault(segno, set()).add(key)
        if uid is not None:
            keys = self._by_uid.get(uid)
            if keys is None:
                self._by_uid[uid] = {key}
                index = _BY_UID.get(uid)
                if index is None:
                    index = _BY_UID[uid] = weakref.WeakSet()
                index.add(self)
            else:
                keys.add(key)
            self._key_uid[key] = uid

    # -- invalidation ----------------------------------------------------

    def _drop(self, key) -> None:
        self._entries.pop(key, None)
        segno = key[0]
        keys = self._by_segno.get(segno)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_segno[segno]
        uid = self._key_uid.pop(key, None)
        if uid is not None:
            ukeys = self._by_uid.get(uid)
            if ukeys is not None:
                ukeys.discard(key)
                if not ukeys:
                    del self._by_uid[uid]
                    self._unindex(uid)

    def _unindex(self, uid: int) -> None:
        """Leave the global uid index once nothing is cached for it."""
        index = _BY_UID.get(uid)
        if index is not None:
            index.discard(self)
            if not index:
                del _BY_UID[uid]

    def invalidate_segno(self, segno: int) -> int:
        """Clear every entry for one segment number (SDW add/remove)."""
        keys = self._by_segno.get(segno)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            self._drop(key)
            dropped += 1
        self.invalidations += dropped
        return dropped

    def invalidate_uid(self, uid: int, pageno: int | None = None) -> int:
        """Clear entries for one file-system object: all of them
        (``pageno=None`` — revocation) or one page's translations
        (page eviction/placement; fetch-legality entries are untouched,
        their decision does not depend on residence)."""
        keys = self._by_uid.get(uid)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            if pageno is not None and key[1] != pageno:
                continue
            self._drop(key)
            dropped += 1
        self.invalidations += dropped
        return dropped

    def cam(self) -> int:
        """Clear associative memory — the 6180 instruction: drop
        everything (address-space teardown, descriptor-segment swap)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_segno.clear()
        for uid in list(self._by_uid):
            self._unindex(uid)
        self._by_uid.clear()
        self._key_uid.clear()
        self.cams += 1
        self.invalidations += dropped
        return dropped


# ---------------------------------------------------------------------------
# the cam broadcast (the 6180 "connect": fire cam on every CPU)
# ---------------------------------------------------------------------------

def cam_uid(uid: int | None, pageno: int | None = None) -> int:
    """Invalidate one object's cached translations in *every* live AM.

    Page-control events are expressed in UIDs (a page of segment
    ``uid`` left or entered core) while AM entries are per-process
    segment numbers; the per-AM uid index bridges the two.  Only AMs
    that actually cache the uid are visited (the ``_BY_UID`` index), so
    the broadcast costs O(sharers), not O(live AMs).
    """
    if uid is None:
        return 0
    index = _BY_UID.get(uid)
    if not index:
        if index is not None:
            del _BY_UID[uid]  # every registered AM died; drop the husk
        return 0
    return sum(am.invalidate_uid(uid, pageno) for am in list(index))


def cam_all() -> int:
    """Fire ``cam`` on every live AM (drastic, rarely needed)."""
    return sum(am.cam() for am in list(_LIVE))
