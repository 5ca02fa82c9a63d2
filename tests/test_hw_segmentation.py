"""Tests for segmentation: SDWs, PTWs, translation, access checks."""

import pytest

from repro.errors import (
    AccessViolation,
    BoundsViolation,
    MissingPageFault,
    SegmentFault,
)
from repro.hw.rings import RingBrackets, kernel_gate_brackets, user_brackets
from repro.hw.segmentation import (
    SDW,
    PTW,
    AccessMode,
    DescriptorSegment,
    Intent,
    check_access,
    translate,
)

PAGE = 16


def make_sdw(segno=1, access=AccessMode.RW, brackets=None, pages=2, in_core=True):
    ptws = [PTW() for _ in range(pages)]
    if in_core:
        for i, ptw in enumerate(ptws):
            ptw.place(frame=i)
    return SDW(
        segno=segno,
        access=access,
        brackets=brackets or user_brackets(4),
        page_table=ptws,
        bound=pages * PAGE,
    )


class TestAccessMode:
    @pytest.mark.parametrize(
        "text,mode",
        [
            ("r", AccessMode.R),
            ("rw", AccessMode.RW),
            ("re", AccessMode.RE),
            ("rew", AccessMode.REW),
            ("n", AccessMode.NONE),
            ("", AccessMode.NONE),
        ],
        # Modes are ints; keep the ids naming the constant.
        ids=["r-AccessMode.R", "rw-AccessMode.RW", "re-AccessMode.RE",
             "rew-AccessMode.REW", "n-AccessMode.NONE", "-AccessMode.NONE"],
    )
    def test_from_string(self, text, mode):
        assert AccessMode.from_string(text) == mode

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            AccessMode.from_string("rx")

    def test_roundtrip(self):
        for text in ("r", "re", "rw", "rew", "n"):
            assert AccessMode.to_string(AccessMode.from_string(text)) == text


class TestDescriptorSegment:
    def test_add_get(self):
        dseg = DescriptorSegment()
        sdw = make_sdw(segno=5)
        dseg.add(sdw)
        assert dseg.get(5) is sdw
        assert 5 in dseg
        assert len(dseg) == 1

    def test_duplicate_segno_rejected(self):
        dseg = DescriptorSegment()
        dseg.add(make_sdw(segno=5))
        with pytest.raises(ValueError):
            dseg.add(make_sdw(segno=5))

    def test_missing_segno_faults(self):
        dseg = DescriptorSegment()
        with pytest.raises(SegmentFault):
            dseg.get(9)
        with pytest.raises(SegmentFault):
            dseg.remove(9)

    def test_remove(self):
        dseg = DescriptorSegment()
        dseg.add(make_sdw(segno=5))
        dseg.remove(5)
        assert 5 not in dseg

    def test_maybe(self):
        dseg = DescriptorSegment()
        assert dseg.maybe(1) is None

    def test_segnos_sorted(self):
        dseg = DescriptorSegment()
        for n in (9, 2, 5):
            dseg.add(make_sdw(segno=n))
        assert dseg.segnos() == [2, 5, 9]


class TestCheckAccess:
    def test_read_allowed(self):
        check_access(make_sdw(), ring=4, intent=Intent.READ)

    def test_read_denied_by_mode(self):
        sdw = make_sdw(access=AccessMode.W)
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.READ)

    def test_read_denied_by_bracket(self):
        sdw = make_sdw(brackets=RingBrackets(0, 3, 3))
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.READ)

    def test_write_denied_outside_write_bracket(self):
        """Ring 4 can read but not write a segment with r1=1: the
        fundamental kernel-data protection."""
        sdw = make_sdw(access=AccessMode.RW, brackets=RingBrackets(1, 4, 4))
        check_access(sdw, 4, Intent.READ)
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.WRITE)
        check_access(sdw, 1, Intent.WRITE)

    def test_fetch_requires_execute(self):
        sdw = make_sdw(access=AccessMode.RW)
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.FETCH)

    def test_fetch_in_execute_bracket(self):
        sdw = make_sdw(access=AccessMode.RE, brackets=user_brackets(4))
        check_access(sdw, 4, Intent.FETCH)

    def test_fetch_outside_brackets_denied(self):
        sdw = make_sdw(access=AccessMode.RE, brackets=RingBrackets(0, 0, 0))
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.FETCH)


class TestTranslate:
    def make_dseg(self, **kwargs):
        dseg = DescriptorSegment()
        dseg.add(make_sdw(**kwargs))
        return dseg

    def test_translation_returns_frame_and_offset(self):
        dseg = self.make_dseg()
        frame, off = translate(dseg, 1, PAGE + 3, 4, Intent.READ, PAGE)
        assert (frame, off) == (1, 3)

    def test_missing_sdw_is_segment_fault(self):
        with pytest.raises(SegmentFault):
            translate(DescriptorSegment(), 1, 0, 4, Intent.READ, PAGE)

    def test_bounds_enforced(self):
        dseg = self.make_dseg(pages=2)
        with pytest.raises(BoundsViolation):
            translate(dseg, 1, 2 * PAGE, 4, Intent.READ, PAGE)
        with pytest.raises(BoundsViolation):
            translate(dseg, 1, -1, 4, Intent.READ, PAGE)

    def test_missing_page_fault(self):
        dseg = self.make_dseg(in_core=False)
        with pytest.raises(MissingPageFault) as info:
            translate(dseg, 1, PAGE, 4, Intent.READ, PAGE)
        assert info.value.segno == 1
        assert info.value.pageno == 1

    def test_access_checked_before_paging(self):
        """An access violation is detected even when the page is out of
        core — permission checking must not depend on residence."""
        dseg = self.make_dseg(access=AccessMode.R, in_core=False)
        with pytest.raises(AccessViolation):
            translate(dseg, 1, 0, 4, Intent.WRITE, PAGE)

    def test_used_and_modified_bits(self):
        dseg = self.make_dseg()
        ptw = dseg.get(1).page_table[0]
        assert not ptw.used and not ptw.modified
        translate(dseg, 1, 0, 4, Intent.READ, PAGE)
        assert ptw.used and not ptw.modified
        translate(dseg, 1, 0, 4, Intent.WRITE, PAGE)
        assert ptw.modified

    def test_ptw_place_and_evict(self):
        ptw = PTW()
        ptw.place(7)
        assert ptw.in_core and ptw.frame == 7
        ptw.evict()
        assert not ptw.in_core and ptw.frame is None
