"""Memory-image initialization (the paper's proposal, experiment E10).

"The idea is to produce on a system tape a bit pattern which, when
loaded into memory, manifests a fully initialized system, rather than
letting the system bootstrap itself in a complex way each time it is
loaded ...  One pattern of operation may be much simpler to certify
than the other."

:class:`ImageBuilder` runs the very same initialization steps as the
bootstrap — but in a *user environment of a previous system* (here: an
ordinary Python context against a scratch services instance), then
captures the result as a :class:`SystemImage`.  Booting the real system
is then two privileged steps: load the image, verify its seal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.fs.acl import Acl
from repro.fs.directory import Branch, Directory
from repro.hw.segmentation import AccessMode
from repro.init.bootstrap import InitStep, standard_steps
from repro.security.mac import SecurityLabel
from repro.security.principal import KERNEL_PRINCIPAL


@dataclass
class ImageDirEntry:
    """One directory captured into the image."""

    path: list[str]          #: name components from the root
    label: str
    acl: list[tuple[str, str]]
    quota_pages: int
    segments: list[dict] = field(default_factory=list)


@dataclass
class SystemImage:
    """The distilled 'bit pattern' of an initialized system."""

    directories: list[ImageDirEntry]
    users: list[dict]
    seal: str = ""

    def compute_seal(self) -> str:
        """A content hash standing in for the image's checksum — the
        thing the loading kernel verifies instead of re-deriving the
        whole structure."""
        payload = json.dumps(
            {
                "dirs": [
                    {
                        "path": d.path,
                        "label": d.label,
                        "acl": d.acl,
                        "quota": d.quota_pages,
                        "segments": d.segments,
                    }
                    for d in self.directories
                ],
                "users": self.users,
            },
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    def sealed(self) -> "SystemImage":
        self.seal = self.compute_seal()
        return self


class ImageBuilder:
    """Runs the initialization steps in an unprivileged scratch
    environment and captures the resulting state."""

    strategy = "image"

    def __init__(self, steps: list[InitStep] | None = None) -> None:
        self.steps = steps if steps is not None else standard_steps()

    def build(self, config: SystemConfig) -> SystemImage:
        """Generate the image (the once-per-release, user-ring work)."""
        from repro.kernel.services import KernelServices

        scratch = KernelServices(_clone_config(config))
        for step in self.steps:
            step.action(scratch)
        return _capture(scratch).sealed()


def _clone_config(config: SystemConfig) -> SystemConfig:
    import copy

    return copy.deepcopy(config)


def _capture(services) -> SystemImage:
    directories: list[ImageDirEntry] = []

    def walk(directory: Directory, path: list[str]) -> None:
        entry = ImageDirEntry(
            path=path,
            label=str(directory.label),
            acl=[
                (str(e.pattern), AccessMode.to_string(e.mode))
                for e in directory.acl.entries()
            ],
            quota_pages=directory.quota_pages,
        )
        for branch in directory.list_branches():
            if branch.is_directory:
                walk(services.tree.directory(branch.uid), path + [branch.name])
            else:
                entry.segments.append(
                    {
                        "name": branch.name,
                        "n_pages": services.ufs.record(branch.uid).n_pages,
                        "label": str(branch.label),
                        "acl": [
                            (str(e.pattern), AccessMode.to_string(e.mode))
                            for e in branch.acl.entries()
                        ],
                    }
                )
        directories.append(entry)

    walk(services.tree.root, [])
    users = [
        {
            "person": r.person,
            "projects": list(r.projects),
            "password_hash": r.password_hash,
            "clearance": str(r.clearance),
        }
        for r in services.users.values()
    ]
    return SystemImage(directories=directories, users=users)


def boot_from_image(services, image: SystemImage) -> int:
    """The whole privileged boot path: verify the seal, manifest the
    image.  Returns the number of privileged steps executed (2)."""
    # Privileged step 1: verify the seal.
    if image.seal != image.compute_seal():
        raise RuntimeError("system image seal mismatch; refusing to boot")
    # Privileged step 2: manifest the image (one mechanical load loop —
    # no decisions, no conditional setup logic).
    _manifest(services, image)
    return 2


def _manifest(services, image: SystemImage) -> None:
    from repro.kernel.services import UserRecord

    for record in image.users:
        services.users[record["person"]] = UserRecord(
            person=record["person"],
            projects=list(record["projects"]),
            password_hash=record["password_hash"],
            clearance=SecurityLabel.parse(record["clearance"]),
        )
    # Directories arrive leaf-first from the capture walk; sort by depth
    # so parents are created before children.
    for entry in sorted(image.directories, key=lambda d: len(d.path)):
        directory = _ensure_dir(services, entry)
        directory.quota_pages = entry.quota_pages
        for seg in entry.segments:
            if seg["name"] in directory:
                continue
            uid = services.ufs.create_segment(
                seg["n_pages"], label=SecurityLabel.parse(seg["label"])
            )
            directory.add(
                Branch(
                    name=seg["name"],
                    uid=uid,
                    is_directory=False,
                    acl=Acl.make(*seg["acl"]) if seg["acl"] else Acl(),
                    label=SecurityLabel.parse(seg["label"]),
                    author=str(KERNEL_PRINCIPAL),
                )
            )


def _ensure_dir(services, entry: ImageDirEntry) -> Directory:
    current = services.tree.root
    for i, name in enumerate(entry.path):
        if name in current:
            current = services.tree.directory(current.get(name).uid)
            continue
        is_leaf = i == len(entry.path) - 1
        label = SecurityLabel.parse(entry.label) if is_leaf else current.label
        acl = Acl.make(*entry.acl) if (is_leaf and entry.acl) else None
        uid = services.ufs.create_segment(1, label=label, is_directory=True)
        directory = services.tree.register_directory(
            uid, current, label, acl=acl, name=name
        )
        current.add(
            Branch(
                name=name, uid=uid, is_directory=True,
                acl=directory.acl,  # one shared ACL per entry
                label=label, author=str(KERNEL_PRINCIPAL),
            )
        )
        current = directory
    return current
