"""Access decisions in machine words.

``AccessMode`` is plain ``int`` R/E/W bits and ``Intent`` a ``StrEnum``.
These tests pin the int representation to an independent model of the
set semantics the modes had as an ``enum.Flag`` — a mode is the set of
letters it grants — exhaustively over every mode, request, MAC outcome,
bracket triple, ring and intent, and guard the representation itself:
ints and str hashes on the reference path, no ``enum.py`` calls.
"""

import itertools
import sys

import pytest

from repro import MulticsSystem
from repro.errors import AccessDenied, AccessViolation
from repro.faults.harness import harness_config
from repro.fs.acl import Acl
from repro.fs.directory import Branch
from repro.hw.assoc import FETCH_PAGENO, AssociativeMemory, fetch_key
from repro.hw.rings import RingBrackets
from repro.hw.segmentation import PTW, SDW, AccessMode, Intent, check_access
from repro.security.mac import SecurityLabel
from repro.security.principal import Principal
from repro.security.reference_monitor import ReferenceMonitor
from repro.workloads.profiles import PROFILES, build_program

# ---------------------------------------------------------------------------
# the model: a mode is a frozenset of letters
# ---------------------------------------------------------------------------

LETTERS = "rew"
#: Every mode of the model, in bit order (r=1, e=2, w=4).
MODEL_MODES = [frozenset(c for i, c in enumerate(LETTERS) if bits >> i & 1)
               for bits in range(8)]


def model_string(mode: frozenset) -> str:
    return "".join(c for c in LETTERS if c in mode) or "n"


def model_parse(text: str) -> frozenset:
    return frozenset(text.lower()) - {"n", " "}


def as_bits(mode: frozenset) -> int:
    return MODEL_MODES.index(mode)


# ---------------------------------------------------------------------------
# strings
# ---------------------------------------------------------------------------

class TestStrings:
    @pytest.mark.parametrize("bits", range(8))
    def test_to_string_all_valid(self, bits):
        assert AccessMode.to_string(bits) == model_string(MODEL_MODES[bits])

    @pytest.mark.parametrize("bad", [-5, 8, -1, 9])
    def test_to_string_out_of_range_raises(self, bad):
        """No silent wrap (a tuple index maps -5 to "e") or mask (8 to
        "n"): ``~AccessMode.W == -5`` can be written with int modes."""
        assert ~AccessMode.W == -5
        with pytest.raises(ValueError, match="outside 0..7"):
            AccessMode.to_string(bad)

    def test_every_permutation_round_trips(self):
        for mode in MODEL_MODES:
            for perm in itertools.permutations(sorted(mode)):
                for text in ("".join(perm), "".join(perm).upper(),
                             " ".join(perm)):
                    bits = AccessMode.from_string(text)
                    assert bits == as_bits(model_parse(text))
                    assert AccessMode.to_string(bits) == model_string(mode)

    @pytest.mark.parametrize("text,expected", [
        ("wr", "rw"), ("ewr", "rew"), ("n", "n"), ("", "n"), ("N", "n"),
        ("rn", "r"),
    ])
    def test_canonical_form(self, text, expected):
        assert AccessMode.to_string(AccessMode.from_string(text)) == expected

    @pytest.mark.parametrize("text", ["x", "rx", "a", "r-w", "rwx"])
    def test_garbage_rejected(self, text):
        with pytest.raises(ValueError, match="unknown access mode"):
            AccessMode.from_string(text)

    def test_named_combinations(self):
        assert (AccessMode.NONE, AccessMode.R, AccessMode.E, AccessMode.W) \
            == (0, 1, 2, 4)
        assert AccessMode.RW == AccessMode.from_string("rw")
        assert AccessMode.RE == AccessMode.from_string("re")
        assert AccessMode.REW == AccessMode.from_string("rew")


# ---------------------------------------------------------------------------
# the reference monitor against the model
# ---------------------------------------------------------------------------

SUBJECT = Principal("Alice", "Crypto",
                    clearance=SecurityLabel(1, frozenset({"a"})))
#: Branch label -> (may read, may write) for SUBJECT.
LABELS = {
    SecurityLabel(1, frozenset({"a"})): (True, True),      # equal
    SecurityLabel(0): (True, False),                        # below
    SecurityLabel(2, frozenset({"a"})): (False, True),      # above
    SecurityLabel(1, frozenset({"b"})): (False, False),     # incomparable
}


def model_permitted(acl: frozenset, may_read: bool, may_write: bool):
    permitted = set(acl)
    if not may_read:
        permitted -= {"r", "e"}
    if not may_write:
        permitted -= {"w"}
    return frozenset(permitted)


def model_category(acl, requested, may_read, may_write) -> str:
    if requested - acl:
        return "acl"
    if requested & {"r", "e"} and not may_read:
        return "mac"
    assert "w" in requested and not may_write
    return "mac"


@pytest.mark.parametrize("label", list(LABELS), ids=str)
def test_reference_monitor_matches_model(label):
    may_read, may_write = LABELS[label]
    for acl_mode, requested in itertools.product(MODEL_MODES, MODEL_MODES):
        rm = ReferenceMonitor()
        branch = Branch(name="data", uid=1, is_directory=False, label=label,
                        acl=Acl.make(("Alice.Crypto.*", model_string(acl_mode))))
        permitted = model_permitted(acl_mode, may_read, may_write)
        assert rm.permitted_modes(SUBJECT, branch) == as_bits(permitted)
        assert rm.sdw_mode(SUBJECT, branch) == as_bits(permitted)
        granted = requested <= permitted
        if granted:
            rm.check(SUBJECT, branch, as_bits(requested), ring=4)
        else:
            with pytest.raises(AccessDenied):
                rm.check(SUBJECT, branch, as_bits(requested), ring=4)
        assert (rm.checks, rm.denials) == (1, 0 if granted else 1)
        [record] = rm.audit.records
        assert record.action == model_string(requested)
        assert record.outcome == ("granted" if granted else "denied")
        assert record.ring == 4
        if granted:
            assert record.category == "acl"
        else:
            category = model_category(acl_mode, requested, may_read,
                                       may_write)
            assert record.category == category
            if category == "acl":
                assert record.detail == \
                    f"acl grants only {model_string(acl_mode)!r}"


# ---------------------------------------------------------------------------
# the hardware check against the model
# ---------------------------------------------------------------------------

RINGS = range(8)
BRACKETS = [RingBrackets(r1, r2, r3)
            for r1, r2, r3 in itertools.product(RINGS, repeat=3)
            if r1 <= r2 <= r3]


def model_allows(access: frozenset, b: RingBrackets, ring: int,
                 intent: Intent) -> bool:
    """The CACM 1972 bracket rules, written out independently."""
    if intent.value == "read":
        return "r" in access and ring <= b.r2
    if intent.value == "write":
        return "w" in access and ring <= b.r1
    return "e" in access and b.r1 <= ring <= b.r3


def test_check_access_matches_model():
    assert len(BRACKETS) == 120
    checked = 0
    for access, brackets in itertools.product(MODEL_MODES, BRACKETS):
        sdw = SDW(segno=3, access=as_bits(access), brackets=brackets)
        for ring, intent in itertools.product(RINGS, Intent):
            try:
                check_access(sdw, ring, intent)
                allowed = True
            except AccessViolation:
                allowed = False
            assert allowed == model_allows(access, brackets, ring, intent), \
                (model_string(access), brackets, ring, intent)
            checked += 1
    assert checked == 8 * 120 * 8 * 3


# ---------------------------------------------------------------------------
# representation guards
# ---------------------------------------------------------------------------

class TestRepresentation:
    def test_modes_are_ints(self):
        for mode in (AccessMode.NONE, AccessMode.R, AccessMode.E,
                     AccessMode.W, AccessMode.RW, AccessMode.RE,
                     AccessMode.REW, AccessMode.from_string("rw")):
            assert type(mode) is int

    def test_intents_hash_as_strings(self):
        assert hash(Intent.READ) == hash("read")
        for intent in Intent:
            assert hash(intent) == hash(intent.value)
            assert Intent(intent.value) is intent

    def test_fetch_entries_and_fetch_intent_never_alias(self):
        ptw = PTW()
        ptw.place(5)
        am = AssociativeMemory()
        am.fetch_insert(3, 4, uid=None)
        assert fetch_key(3, 4) != (3, FETCH_PAGENO, 4, Intent.FETCH)
        assert am.probe(3, FETCH_PAGENO, 4, Intent.FETCH, 0) is None
        am = AssociativeMemory()
        am.insert(3, FETCH_PAGENO, 4, Intent.FETCH, 5, ptw, 16, uid=None)
        assert fetch_key(3, 4) not in am._entries
        assert am.probe(3, FETCH_PAGENO, 4, Intent.FETCH, 0) == (5, ptw)


#: enum.py functions the reference path must never reach: the Flag
#: operators and Enum's pure-Python hash.
ENUM_HOT = {"__and__", "__rand__", "__or__", "__ror__", "__xor__",
            "__rxor__", "__invert__", "__bool__", "__contains__",
            "__hash__"}


def _gate_and_cpu_run():
    """Boot two sessions and load a program; return a run of gate
    calls, a shared read, a hardware-refused write and a compiled-block
    CPU job.

    Loading is done here, outside the run: encoding and decoding an
    object segment look up ``Op``-keyed tables once per program, which
    is not the reference path.
    """
    system = MulticsSystem(harness_config()).boot()
    system.register_user("Alice", "Crypto", "pw")
    system.register_user("Bob", "Crypto", "pw")
    alice = system.login("Alice", "Crypto", "pw")
    bob = system.login("Bob", "Crypto", "pw")
    data = alice.create_segment("data", n_pages=2)
    program = alice.install_object("io", build_program(
        PROFILES["io"], data, system.config.page_size))

    def job():
        cpu_job = alice.program_job(program)
        system.cpu_complex(n_cpus=1).run_jobs([cpu_job], quantum=500)
        assert cpu_job.error is None and cpu_job.instructions > 0

    job()

    def run():
        segno = alice.create_segment("notes", n_pages=2)
        alice.write_words(segno, list(range(10)))
        alice.set_acl("notes", "Bob.Crypto", "r")
        shared = bob.initiate(">udd>Crypto>Alice>notes")
        assert bob.read_words(shared, 3) == [0, 1, 2]
        with pytest.raises(AccessViolation):
            bob.write_words(shared, [1])
        job()

    return run


def test_reference_path_makes_no_enum_calls():
    run = _gate_and_cpu_run()
    hot: list[str] = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name in ENUM_HOT
                and code.co_filename.endswith("enum.py")):
            hot.append(code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    assert hot == []
