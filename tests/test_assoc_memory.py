"""Tests for the associative memory (repro.hw.assoc): the translation
cache must never outlive the decision it caches.

Unit tests cover the cache mechanics (round-robin bound, witness
checks, selective invalidation, cam); the system-level tests prove the
security invariants end to end: no cached translation survives page
eviction, ACL downgrade, ring-brackets downgrade, segment termination,
or process destruction — and the cache never changes architectural
outcomes, only cost.
"""

import pytest

from repro import MulticsSystem, kernel_config
from repro.errors import AccessViolation, BoundsViolation, MissingPageFault
from repro.hw.assoc import AssociativeMemory, cam_uid, fetch_key
from repro.hw.rings import user_brackets
from repro.hw.segmentation import (
    PTW,
    SDW,
    AccessMode,
    DescriptorSegment,
    Intent,
    translate,
)
from repro.proc.process import Process

PAGE = 16


def make_dseg(n_pages: int = 2, bound: int | None = None,
              access: AccessMode = AccessMode.RW, uid: int = 77,
              segno: int = 5) -> DescriptorSegment:
    dseg = DescriptorSegment()
    ptws = [PTW(in_core=True, frame=10 + i) for i in range(n_pages)]
    dseg.add(SDW(
        segno=segno, access=access, brackets=user_brackets(4),
        page_table=ptws, bound=bound or n_pages * PAGE, uid=uid,
    ))
    return dseg


class TestAssociativeMemoryUnit:
    def test_probe_miss_then_hit(self):
        dseg = make_dseg()
        am = dseg.am
        assert translate(dseg, 5, 3, 4, Intent.READ, PAGE, am=am) == (10, 3)
        assert am.misses == 1 and am.hits == 0
        assert translate(dseg, 5, 7, 4, Intent.READ, PAGE, am=am) == (10, 7)
        assert am.hits == 1  # same page, same ring, same intent
        # Different intent is a different decision: its own entry.
        translate(dseg, 5, 3, 4, Intent.WRITE, PAGE, am=am)
        assert am.misses == 2

    def test_hit_still_marks_ptw_bits(self):
        """Replacement-policy sampling must be identical AM on or off."""
        dseg = make_dseg()
        ptw = dseg.get(5).page_table[0]
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=dseg.am)
        ptw.used = ptw.modified = False
        translate(dseg, 5, 1, 4, Intent.WRITE, PAGE, am=dseg.am)  # hit? no: intent
        translate(dseg, 5, 2, 4, Intent.WRITE, PAGE, am=dseg.am)  # hit
        assert dseg.am.hits >= 1
        assert ptw.used and ptw.modified

    def test_capacity_evicts_in_insertion_order(self):
        am = AssociativeMemory(capacity=2)
        ptw = PTW(in_core=True, frame=1)
        am.insert(1, 0, 4, Intent.READ, 1, ptw, PAGE, uid=None)
        am.insert(2, 0, 4, Intent.READ, 1, ptw, PAGE, uid=None)
        am.insert(3, 0, 4, Intent.READ, 1, ptw, PAGE, uid=None)
        assert len(am) == 2
        assert am.capacity_evictions == 1
        assert am.probe(1, 0, 4, Intent.READ, 0) is None  # oldest gone
        assert am.probe(3, 0, 4, Intent.READ, 0) is not None

    def test_zero_capacity_caches_nothing(self):
        am = AssociativeMemory(capacity=0)
        am.insert(1, 0, 4, Intent.READ, 1, PTW(in_core=True, frame=1),
                  PAGE, uid=None)
        assert len(am) == 0

    def test_witness_rejects_evicted_ptw(self):
        dseg = make_dseg()
        ptw = dseg.get(5).page_table[0]
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=dseg.am)
        ptw.evict()
        # Even with no cam fired, the cached frame must not be honoured.
        assert dseg.am.probe(5, 0, 4, Intent.READ, 0) is None
        assert dseg.am.invalidations == 1
        with pytest.raises(MissingPageFault):
            translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=dseg.am)

    def test_witness_rejects_moved_frame(self):
        dseg = make_dseg()
        ptw = dseg.get(5).page_table[0]
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=dseg.am)
        ptw.place(42)  # page re-landed somewhere else
        assert translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=dseg.am) == (42, 0)

    def test_witness_rejects_offset_past_bound(self):
        # Bound 20 = one full page + 4 words of page 1.
        dseg = make_dseg(n_pages=2, bound=20)
        translate(dseg, 5, 17, 4, Intent.READ, PAGE, am=dseg.am)
        # Offset 21 is on the *cached* page but outside the bound: the
        # cache must not turn a bounds violation into a read.
        with pytest.raises(BoundsViolation):
            translate(dseg, 5, 21, 4, Intent.READ, PAGE, am=dseg.am)

    def test_negative_offset_still_faults(self):
        dseg = make_dseg()
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=dseg.am)
        with pytest.raises(BoundsViolation):
            translate(dseg, 5, -1, 4, Intent.READ, PAGE, am=dseg.am)

    def test_invalidate_segno_on_sdw_add_remove(self):
        dseg = make_dseg()
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=dseg.am)
        dseg.remove(5)
        assert dseg.am.probe(5, 0, 4, Intent.READ, 0) is None

    def test_invalidate_uid_page_filter(self):
        dseg = make_dseg(n_pages=2)
        am = dseg.am
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=am)
        translate(dseg, 5, PAGE, 4, Intent.READ, PAGE, am=am)
        am.fetch_insert(5, 4, uid=77)
        assert am.invalidate_uid(77, pageno=0) == 1
        assert am.probe(5, 0, 4, Intent.READ, 0) is None
        assert am.probe(5, 1, 4, Intent.READ, PAGE) is not None
        assert fetch_key(5, 4) in am._entries  # fetch legality ignores residence
        # Full-uid invalidation (revocation) takes the fetch entry too.
        assert am.invalidate_uid(77) == 2
        assert fetch_key(5, 4) not in am._entries

    def test_cam_clears_everything(self):
        dseg = make_dseg()
        am = dseg.am
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=am)
        am.fetch_insert(5, 4, uid=77)
        dropped = am.cam()
        assert dropped == 2 and len(am) == 0 and am.cams == 1
        assert am.probe(5, 0, 4, Intent.READ, 0) is None

    def test_cam_uid_broadcasts_to_all_live_ams(self):
        a = make_dseg(uid=99, segno=5)
        b = make_dseg(uid=99, segno=8)
        translate(a, 5, 0, 4, Intent.READ, PAGE, am=a.am)
        translate(b, 8, 0, 4, Intent.READ, PAGE, am=b.am)
        assert cam_uid(99, pageno=0) >= 2
        assert a.am.probe(5, 0, 4, Intent.READ, 0) is None
        assert b.am.probe(8, 0, 4, Intent.READ, 0) is None
        assert cam_uid(None) == 0


# ---------------------------------------------------------------------------
# system-level security invariants
# ---------------------------------------------------------------------------

def small_system(**overrides):
    cfg = dict(core_frames=8, bulk_frames=16, disk_frames=512, page_size=16)
    cfg.update(overrides)
    system = MulticsSystem(kernel_config(**cfg)).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    system.register_user("Bob", "Crypto", "bob-pw")
    return system


class TestInvalidationInvariants:
    def test_eviction_never_serves_stale_or_reused_frame(self):
        """After a page is evicted (and its frame reused by another
        segment), a cached translation must fault and re-read the real
        page — never the frame's new tenant."""
        system = small_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        small = alice.create_segment("small", n_pages=1)
        big = alice.create_segment("big", n_pages=16)
        alice.write_words(small, [111] * 16)
        assert alice.read_words(small, 16) == [111] * 16  # now cached
        # Sweep a segment twice the size of core: evicts "small"'s page
        # and reuses its frame for "big"'s very different content.
        alice.write_words(big, [222] * 256)
        faults_before = system.services.page_control.faults_serviced
        assert alice.read_words(small, 16) == [111] * 16
        assert system.services.page_control.faults_serviced > faults_before
        snap = system.metrics.snapshot()
        assert snap["counters"]["am.invalidations"] > 0
        assert snap["counters"]["am.hits"] > 0

    def test_acl_downgrade_revokes_cached_access(self):
        """A cached WRITE translation must not let a process keep
        writing after its ACL entry is downgraded to read-only."""
        system = small_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        shared = alice.create_segment("shared", n_pages=1)
        alice.write_words(shared, [1, 2, 3])
        for path in (">udd>Crypto", ">udd>Crypto>Alice"):
            alice.set_acl(path, "Bob.Crypto", "r")
        alice.set_acl("shared", "Bob.Crypto", "rw")

        bob = system.login("Bob", "Crypto", "bob-pw")
        seg = bob.initiate(f"{alice.home_path}>shared")
        bob.write_words(seg, [9], offset=0)       # caches the WRITE path
        assert bob.read_words(seg, 3) == [9, 2, 3]

        alice.set_acl("shared", "Bob.Crypto", "r")  # the downgrade
        with pytest.raises(AccessViolation):
            bob.write_words(seg, [8], offset=1)
        assert bob.read_words(seg, 3) == [9, 2, 3]  # read survives
        assert not (bob.process.dseg.get(seg).access & AccessMode.W)

    def test_acl_delete_revokes_entirely(self):
        system = small_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        shared = alice.create_segment("shared2", n_pages=1)
        alice.write_words(shared, [5])
        for path in (">udd>Crypto", ">udd>Crypto>Alice"):
            alice.set_acl(path, "Bob.Crypto", "r")
        alice.set_acl("shared2", "Bob.Crypto", "r")
        bob = system.login("Bob", "Crypto", "bob-pw")
        seg = bob.initiate(f"{alice.home_path}>shared2")
        assert bob.read_words(seg, 1) == [5]      # caches the READ path
        dir_segno, name = alice.resolve_parent("shared2")
        alice.call("hcs_$acl_delete", dir_segno, name, "Bob.Crypto")
        with pytest.raises(AccessViolation):
            bob.read_words(seg, 1)

    def test_brackets_downgrade_revokes_cached_read(self):
        """Ring brackets tightened by a privileged (ring-1) caller must
        reach a ring-4 process's cached translations."""
        system = small_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        seg = alice.create_segment("guarded", n_pages=1)
        alice.write_words(seg, [7])
        assert alice.read_words(seg, 1) == [7]    # cached at ring 4

        admin = Process("admin", ring=1, principal=alice.process.principal)
        sup = system.supervisor
        handle = sup.call(admin, "hcs_$get_root")
        for name in ("udd", "Crypto", "Alice"):
            handle = sup.call(admin, "hcs_$initiate", handle, name)
        sup.call(admin, "hcs_$set_ring_brackets", handle, "guarded", 1, 1, 1)

        with pytest.raises(AccessViolation):
            alice.read_words(seg, 1)

    def test_terminate_drops_cached_translations(self):
        system = small_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        seg = alice.create_segment("gone", n_pages=1)
        alice.write_words(seg, [4])
        alice.read_words(seg, 1)
        am = alice.process.dseg.am
        alice.call("hcs_$terminate", seg)
        assert am.probe(seg, 0, 4, Intent.READ, 0) is None
        assert am.probe(seg, 0, 4, Intent.WRITE, 0) is None

    def test_process_destruction_cams_and_keeps_counters(self):
        """Teardown fires cam, and the aggregate am.* counters stay
        monotonic because retired counters are folded in."""
        system = small_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        seg = alice.create_segment("data", n_pages=1)
        alice.write_words(seg, [1] * 8)
        alice.read_words(seg, 8)
        am = alice.process.dseg.am
        before = system.metrics.snapshot()["counters"]
        assert before["am.hits"] > 0
        alice.logout()
        after = system.metrics.snapshot()["counters"]
        assert len(am) == 0 and am.cams >= 1
        assert after["am.hits"] >= before["am.hits"]
        assert after["am.cams"] >= 1


class TestArchitecturalEquivalence:
    def test_am_off_same_faults_same_values(self):
        """Tier-1 smoke: a mixed paging + sharing workload produces
        identical architectural results with the AM on and off."""
        outcomes = []
        for am_enabled in (True, False):
            system = small_system(am_enabled=am_enabled)
            alice = system.login("Alice", "Crypto", "alice-pw")
            seg = alice.create_segment("mix", n_pages=12)
            n = 12 * 16
            alice.write_words(seg, [(5 * i) % 97 for i in range(n)])
            sweeps = [alice.read_words(seg, n) for _ in range(2)]
            hot = alice.create_segment("hot", n_pages=1)
            alice.write_words(hot, list(range(16)))
            hots = [alice.read_words(hot, 16) for _ in range(5)]
            snap = system.metrics.snapshot()["counters"]
            outcomes.append({
                "sweeps": sweeps,
                "hots": hots,
                "faults": snap["pc.faults_serviced"],
            })
            if am_enabled:
                assert snap["am.hits"] > 0
            else:
                assert snap["am.hits"] == 0
        assert outcomes[0] == outcomes[1]

    def test_config_rejects_nonpositive_am_entries(self):
        with pytest.raises(ValueError):
            kernel_config(am_entries=0).validate()


class TestOffsetHandling:
    """Regressions for the word-offset unification: the AM hit path and
    the full walk must agree on ``(frame, word)``, and a negative
    offset must be rejected before the cache is even consulted."""

    def test_negative_offset_never_probes_the_am(self):
        dseg = make_dseg()
        am = dseg.am
        translate(dseg, 5, 0, 4, Intent.READ, PAGE, am=am)  # prime page 0
        hits, misses = am.hits, am.misses
        with pytest.raises(BoundsViolation):
            translate(dseg, 5, -1, 4, Intent.READ, PAGE, am=am)
        # A negative offset maps to pageno -1; no probe may witness it.
        assert (am.hits, am.misses) == (hits, misses)

    def test_negative_offset_faults_identically_with_am_off(self):
        dseg = make_dseg()
        with pytest.raises(BoundsViolation):
            translate(dseg, 5, -7, 4, Intent.READ, PAGE, am=None)
        with pytest.raises(BoundsViolation):
            translate(dseg, 5, -7, 4, Intent.READ, PAGE, am=dseg.am)

    def test_hit_and_walk_agree_on_word_offset(self):
        dseg = make_dseg(n_pages=2)
        walk = translate(dseg, 5, PAGE + 5, 4, Intent.READ, PAGE, am=dseg.am)
        hit = translate(dseg, 5, PAGE + 5, 4, Intent.READ, PAGE, am=dseg.am)
        assert dseg.am.hits == 1
        assert walk == hit == (11, 5)
