"""File-system and address-space gates (kept by both supervisors).

These are the gates the minimized kernel retains: per-directory
operations addressed by *segment number* plus the minimal address-space
management.  Note what is **not** here: no tree-name walking, no
reference names, no search rules — those are the naming gates the
legacy supervisor adds (:mod:`repro.kernel.naming_kernel`) and the
kernel deliberately lacks (experiments E2/E3).

Every handler takes ``(services, process, *args)`` — arguments already
type-validated by the gate table — performs its own reference-monitor
checks, and acts through the shared services.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import NUM_RINGS
from repro.errors import AccessDenied, InvalidArgument, NoSuchEntry, QuotaExceeded
from repro.fs.acl import Acl
from repro.fs.directory import Branch, Directory
from repro.hw.rings import RingBrackets
from repro.hw.segmentation import SDW, AccessMode
from repro.kernel.gates import Gate, PRIVILEGED_GATE
from repro.security.mac import BOTTOM, SecurityLabel

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.services import KernelServices
    from repro.proc.process import Process


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _principal(process: "Process"):
    if process.principal is None:
        raise AccessDenied(f"process {process.name} has no principal")
    return process.principal


def _check_dir(services: "KernelServices", process: "Process",
               directory: Directory, mode: int) -> None:
    """Directory operations go through the same reference monitor."""
    services.monitor.check(
        _principal(process), directory, mode, time=services.sim.clock.now,
        ring=process.ring,
    )


def _owner_acl(process: "Process") -> Acl:
    p = _principal(process)
    return Acl.make((f"{p.person}.{p.project}.*", "rew"))


def _used_pages(services: "KernelServices", directory: Directory) -> int:
    """Segment pages charged against ``directory``'s quota.

    Memoized on the directory (a segment's page count never changes
    after creation): the full branch scan runs only after a structural
    mutation invalidated the memo, so bulk creation is O(1) per segment
    instead of O(entries)."""
    cached = directory.used_pages_cache
    if cached is not None:
        return cached
    total = 0
    for branch in directory.list_branches():
        if not branch.is_directory and services.ufs.exists(branch.uid):
            total += services.ufs.record(branch.uid).n_pages
    directory.used_pages_cache = total
    return total


# ---------------------------------------------------------------------------
# file-system handlers
# ---------------------------------------------------------------------------

def h_create_segment(services, process, dir_segno, name, n_pages, label):
    """Create a segment branch in the directory held as ``dir_segno``."""
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    if not label.dominates(directory.label):
        raise AccessDenied(
            f"segment label {label} must dominate directory label "
            f"{directory.label}"
        )
    used = _used_pages(services, directory)
    if used + n_pages > directory.quota_pages:
        raise QuotaExceeded(
            f"directory {directory.name} quota of "
            f"{directory.quota_pages} pages exceeded"
        )
    uid = services.ufs.create_segment(
        n_pages, label=label, created_at=services.sim.clock.now
    )
    branch = Branch(
        name=name,
        uid=uid,
        is_directory=False,
        acl=_owner_acl(process),
        label=label,
        author=str(_principal(process)),
    )
    try:
        directory.add(branch)
    except Exception:
        services.ufs.delete_segment(uid)
        raise
    # add() invalidated the memo; re-seed it with what we just charged.
    directory.used_pages_cache = used + n_pages
    return uid


def h_create_directory(services, process, dir_segno, name, label):
    parent = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, parent, AccessMode.W)
    uid = services.ufs.create_segment(
        1, label=label, is_directory=True, created_at=services.sim.clock.now
    )
    # One ACL per entry: the Directory object and its branch share it,
    # so hcs_$acl_add on the branch governs traversal too.
    acl = _owner_acl(process)
    try:
        services.tree.register_directory(
            uid, parent, label, acl=acl, name=name
        )
        parent.add(
            Branch(
                name=name,
                uid=uid,
                is_directory=True,
                acl=acl,
                label=label,
                author=str(_principal(process)),
            )
        )
    except Exception:
        if services.tree.is_directory_uid(uid):
            services.tree.drop_directory(uid)
        services.ufs.delete_segment(uid)
        raise
    return uid


def h_delete_entry(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    branch = directory.get(name)
    if branch.safety_switch:
        raise InvalidArgument(f"{name!r}: safety switch is on")
    if branch.is_directory:
        child = services.tree.directory(branch.uid)
        if len(child):
            raise InvalidArgument(f"directory {name!r} is not empty")
        services.tree.drop_directory(branch.uid)
    directory.remove(name)
    if services.ufs.exists(branch.uid):
        services.ufs.delete_segment(branch.uid)
    return branch.uid


def h_list_directory(services, process, dir_segno):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    return [
        {
            "name": b.name,
            "names": sorted(b.all_names()),
            "type": "directory" if b.is_directory else "segment",
            "uid": b.uid,
        }
        for b in directory.list_branches()
    ]


def h_status(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    branch = directory.get(name)
    status = {
        "name": branch.name,
        "uid": branch.uid,
        "type": "directory" if branch.is_directory else "segment",
        "label": str(branch.label),
        "author": branch.author,
        "brackets": (branch.brackets.r1, branch.brackets.r2, branch.brackets.r3),
        "safety_switch": branch.safety_switch,
        "bit_count": branch.bit_count,
    }
    if not branch.is_directory and services.ufs.exists(branch.uid):
        status["n_pages"] = services.ufs.record(branch.uid).n_pages
    return status


def _modify_branch_acl_check(services, process, directory, branch):
    """Changing a branch's ACL requires write on the containing
    directory (Multics: 'm' on the directory; we fold m into w)."""
    _check_dir(services, process, directory, AccessMode.W)


def h_acl_add(services, process, dir_segno, name, pattern, mode):
    directory = services.directory_by_segno(process, dir_segno)
    branch = directory.get(name)
    _modify_branch_acl_check(services, process, directory, branch)
    branch.acl.add(pattern, mode)
    # An ACL change (including a downgrade) must reach every live SDW
    # for the segment, or processes that initiated it earlier keep the
    # old hardware rights.
    services.revoke_branch_access(branch)
    return len(branch.acl)


def h_acl_delete(services, process, dir_segno, name, pattern):
    directory = services.directory_by_segno(process, dir_segno)
    branch = directory.get(name)
    _modify_branch_acl_check(services, process, directory, branch)
    if not branch.acl.remove(pattern):
        raise NoSuchEntry(f"no acl entry {pattern!r} on {name!r}")
    services.revoke_branch_access(branch)
    return len(branch.acl)


def h_acl_list(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    branch = directory.get(name)
    return [(str(e.pattern), AccessMode.to_string(e.mode))
            for e in branch.acl.entries()]


def h_rename(services, process, dir_segno, old, new):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    directory.rename(old, new)
    return new


def h_add_name(services, process, dir_segno, name, new_name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    directory.add_name(name, new_name)
    return new_name


def h_delete_name(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    directory.remove_name(name)
    return name


def h_get_label(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    return str(directory.get(name).label)


def h_set_ring_brackets(services, process, dir_segno, name, r1, r2, r3):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    branch = directory.get(name)
    try:
        brackets = RingBrackets(r1, r2, r3)
    except ValueError as exc:
        raise InvalidArgument(str(exc)) from None
    if brackets.r1 < process.ring:
        raise AccessDenied(
            "cannot grant a write bracket more privileged than the caller"
        )
    branch.brackets = brackets
    services.revoke_branch_access(branch)
    return (r1, r2, r3)


def h_get_ring_brackets(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    b = directory.get(name).brackets
    return (b.r1, b.r2, b.r3)


def h_get_author(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    return directory.get(name).author


def h_set_safety_switch(services, process, dir_segno, name, on):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    directory.get(name).safety_switch = bool(on)
    return bool(on)


def h_set_bit_count(services, process, dir_segno, name, bits):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.W)
    directory.get(name).bit_count = bits
    return bits


def h_get_bit_count(services, process, dir_segno, name):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    return directory.get(name).bit_count


def h_get_quota(services, process, dir_segno):
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    return {
        "quota_pages": directory.quota_pages,
        "used_pages": _used_pages(services, directory),
    }


def h_set_quota(services, process, dir_segno, pages):
    # Privileged: only trusted rings reach this gate (brackets below).
    directory = services.directory_by_segno(process, dir_segno)
    directory.quota_pages = pages
    return pages


def h_truncate(services, process, segno, from_page):
    """Zero a known segment's pages from ``from_page`` on."""
    state = services.pstate(process)
    uid = state.kst.uid_of(segno)
    branch = services.branch_by_segno(process, segno)
    services.monitor.check(
        _principal(process), branch, AccessMode.W,
        time=services.sim.clock.now, ring=process.ring,
    )
    aseg = services.ast.get(uid)
    if from_page < 0 or from_page > aseg.n_pages:
        raise InvalidArgument(f"page {from_page} outside segment")
    core = services.hierarchy.core
    page_size = services.config.page_size
    for pageno in range(from_page, aseg.n_pages):
        ptw = aseg.ptws[pageno]
        if ptw.in_core and ptw.frame is not None:
            core.write_page(ptw.frame, [0] * page_size)
        else:
            home = aseg.homes[pageno]
            if home is not None:
                services.hierarchy.level(home.level).write_page(
                    home.frame, [0] * page_size
                )
    return aseg.n_pages - from_page


def h_get_root(services, process):
    """Initiate the root directory; the bootstrap handle for the new
    segno-based interface."""
    state = services.pstate(process)
    segno, _ = state.kst.make_known(services.tree.root.uid, is_directory=True)
    return segno


# ---------------------------------------------------------------------------
# address-space handlers (the minimal KST interface, E3's "after")
# ---------------------------------------------------------------------------

def initiate_branch(services, process, branch) -> int:
    """Shared initiation logic: KST entry + SDW construction.

    The SDW's access is the reference monitor's largest safe mode, so
    all later references are checked by hardware alone.  Used by the
    minimal ``hcs_$initiate`` and by the legacy naming gates.
    """
    state = services.pstate(process)
    if branch.is_directory:
        # Directories may be initiated (to use as handles) but carry no
        # data access: their contents are kernel structures.
        segno, _ = state.kst.make_known(branch.uid, is_directory=True)
        return segno
    mode = services.monitor.sdw_mode(_principal(process), branch)
    if mode == AccessMode.NONE:
        services.monitor.check(  # produce the audited denial
            _principal(process), branch, AccessMode.R,
            time=services.sim.clock.now, ring=process.ring,
        )
    segno, already = state.kst.make_known(branch.uid)
    if not already:
        aseg = services.ast.get(branch.uid)
        process.dseg.add(
            SDW(
                segno=segno,
                access=mode,
                brackets=branch.brackets,
                page_table=aseg.ptws,
                bound=aseg.n_pages * services.config.page_size,
                uid=branch.uid,
            )
        )
    return segno


def h_initiate(services, process, dir_segno, name):
    """Map a branch into the address space; returns the segment number.

    This is the whole of the new address-space interface: one
    directory handle, one entry name.
    """
    directory = services.directory_by_segno(process, dir_segno)
    _check_dir(services, process, directory, AccessMode.R)
    branch = directory.get(name)
    return initiate_branch(services, process, branch)


def h_terminate(services, process, segno):
    state = services.pstate(process)
    uid = state.kst.terminate(segno)
    if segno in process.dseg:
        process.dseg.remove(segno)
    return uid


def h_terminate_all(services, process):
    state = services.pstate(process)
    count = 0
    for entry in list(state.kst.entries()):
        state.kst.terminate(entry.segno)
        if entry.segno in process.dseg:
            process.dseg.remove(entry.segno)
        count += 1
    return count


def h_get_uid(services, process, segno):
    return services.pstate(process).kst.uid_of(segno)


def h_list_kst(services, process):
    return [
        (e.segno, e.uid, e.is_directory)
        for e in services.pstate(process).kst.entries()
    ]


# ---------------------------------------------------------------------------
# the gate list
# ---------------------------------------------------------------------------

def fs_gates() -> list[Gate]:
    """The file-system + address-space gates both supervisors export."""
    return [
        Gate("hcs_$create_segment", "fs", h_create_segment,
             ("segno", "name", "uint", "label"),
             doc="create a segment branch in a directory"),
        Gate("hcs_$create_directory", "fs", h_create_directory,
             ("segno", "name", "label"),
             doc="create a subdirectory"),
        Gate("hcs_$delete_entry", "fs", h_delete_entry, ("segno", "name"),
             doc="delete a branch (and its storage)"),
        Gate("hcs_$list_directory", "fs", h_list_directory, ("segno",),
             doc="enumerate a directory's branches"),
        Gate("hcs_$status", "fs", h_status, ("segno", "name"),
             doc="branch status"),
        Gate("hcs_$acl_add", "fs", h_acl_add,
             ("segno", "name", "pattern", "mode"),
             doc="add or replace an ACL entry"),
        Gate("hcs_$acl_delete", "fs", h_acl_delete,
             ("segno", "name", "pattern"),
             doc="remove an ACL entry"),
        Gate("hcs_$acl_list", "fs", h_acl_list, ("segno", "name"),
             doc="read a branch ACL"),
        Gate("hcs_$rename", "fs", h_rename, ("segno", "name", "name"),
             doc="rename a branch"),
        Gate("hcs_$add_name", "fs", h_add_name, ("segno", "name", "name"),
             doc="add an alternate name"),
        Gate("hcs_$delete_name", "fs", h_delete_name, ("segno", "name"),
             doc="remove an alternate name"),
        Gate("hcs_$get_label", "fs", h_get_label, ("segno", "name"),
             doc="read a branch's security label"),
        Gate("hcs_$set_ring_brackets", "fs", h_set_ring_brackets,
             ("segno", "name", "uint", "uint", "uint"),
             doc="set a branch's ring brackets"),
        Gate("hcs_$get_ring_brackets", "fs", h_get_ring_brackets,
             ("segno", "name"), doc="read ring brackets"),
        Gate("hcs_$get_author", "fs", h_get_author, ("segno", "name"),
             doc="read the branch author"),
        Gate("hcs_$set_safety_switch", "fs", h_set_safety_switch,
             ("segno", "name", "int"), doc="guard a branch from deletion"),
        Gate("hcs_$set_bit_count", "fs", h_set_bit_count,
             ("segno", "name", "uint"), doc="record meaningful length"),
        Gate("hcs_$get_bit_count", "fs", h_get_bit_count, ("segno", "name"),
             doc="read meaningful length"),
        Gate("hcs_$get_quota", "fs", h_get_quota, ("segno",),
             doc="read directory quota"),
        Gate("hcs_$set_quota", "fs", h_set_quota, ("segno", "uint"),
             brackets=PRIVILEGED_GATE,
             doc="set directory quota (administrative)"),
        Gate("hcs_$truncate_segment", "fs", h_truncate, ("segno", "uint"),
             doc="zero a segment's pages from a page onward"),
        Gate("hcs_$get_root", "fs", h_get_root, (),
             doc="initiate the root directory"),
        Gate("hcs_$initiate", "address_space", h_initiate, ("segno", "name"),
             doc="map a branch into the address space"),
        Gate("hcs_$terminate", "address_space", h_terminate, ("segno",),
             doc="unmap a segment number"),
        Gate("hcs_$terminate_all", "address_space", h_terminate_all, (),
             doc="unmap everything"),
        Gate("hcs_$get_uid", "address_space", h_get_uid, ("segno",),
             doc="segment number to UID"),
        Gate("hcs_$list_kst", "address_space", h_list_kst, (),
             doc="enumerate the known segment table"),
    ]
