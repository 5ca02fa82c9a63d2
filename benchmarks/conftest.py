"""Shared reporting for the experiment benches.

Each bench computes its experiment's paper-vs-measured comparison and
registers it with :func:`report`; the rows are printed in the terminal
summary (so they survive pytest's output capture) in experiment order.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

# Bench E18 takes its per-instruction reference leg and the golden
# fingerprints from tests.interpreter_oracle, so the repository root
# must be importable however pytest was started.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

_REPORTS: dict[str, list[str]] = {}


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker, so
    tier-1 runs (testpaths = tests) and explicit ``-m "not bench"``
    selections stay fast without per-file boilerplate."""
    for item in items:
        item.add_marker(pytest.mark.bench)

#: Where benches export their metrics snapshots as JSON.  The schema
#: guard (scripts/check_bench_schema.py) validates everything here.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Register a report block: ``report("E1", ["row", ...])``."""

    def _report(experiment: str, lines: list[str]) -> None:
        _REPORTS[experiment] = list(lines)

    return _report


@pytest.fixture
def export():
    """Write a bench's metrics snapshot to ``results/<experiment>.json``.

    The document is the registry snapshot (schema-validated before it
    is written) plus an optional ``bench`` section of derived numbers.
    """

    def _export(experiment: str, snapshot: dict, extra: dict | None = None):
        from repro.obs import validate_snapshot

        errors = validate_snapshot(snapshot)
        assert errors == [], f"{experiment}: invalid snapshot: {errors}"
        doc = dict(snapshot)
        if extra is not None:
            doc["bench"] = extra
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment.lower()}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")

    return _export


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 74)
    write("EXPERIMENT RESULTS (paper claim vs measured)")
    write("=" * 74)
    for experiment in sorted(_REPORTS):
        write("")
        for line in _REPORTS[experiment]:
            write(line)
    write("")


def fmt_row(label: str, *values: object) -> str:
    return f"  {label:<44}" + "  ".join(f"{v!s:>10}" for v in values)
