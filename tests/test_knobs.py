"""Knob inventory: every environment variable the package reads is listed.

Collects each ``REPRO_*`` name that appears anywhere under ``src/repro``
(code, docstrings and comments alike) and requires the set to equal the
knob table in ARCHITECTURE.md ("Execution variants").  Adding, renaming or
retiring a knob therefore changes this file and the table together.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The knob table, as ARCHITECTURE.md states it.
KNOBS = {
    "REPRO_PLATFORM",
    "REPRO_DISABLE_BURST",
    "REPRO_SWEEP_CACHE",
    "REPRO_SWEEP_STRICT",
    "REPRO_CHECKPOINT_EVERY",
    "REPRO_SWEEP_FAULT_RATE",
    "REPRO_SWEEP_FAULT_SEED",
    "REPRO_SWEEP_FAULT_KINDS",
    "REPRO_SWEEP_PROGRESS",
    "REPRO_SWEEP_HOST",
}

_NAME = re.compile(r"REPRO_[A-Z_]+")


def test_source_names_exactly_the_knob_table():
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        found.update(_NAME.findall(path.read_text(encoding="utf-8")))
    assert found == KNOBS, (
        f"unlisted: {sorted(found - KNOBS)}; stale: {sorted(KNOBS - found)}")


def test_architecture_table_matches():
    text = (ROOT / "ARCHITECTURE.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", text, flags=re.MULTILINE)
    assert len(rows) == len(set(rows)) == 10
    assert set(rows) == KNOBS
