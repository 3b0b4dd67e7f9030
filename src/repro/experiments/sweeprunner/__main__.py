"""``python -m repro.experiments.sweeprunner status <dir>``: sweep progress.

Reads only ``<dir>/ledger/`` and ``<dir>/claims/`` and writes nothing, so
it reports on a live sweep and on one whose driver died alike.  Prints one
JSON line per sweep journal in the directory:

* ``fn`` — the sweep's point function, null once the journal is
  compacted (compaction keeps per-key state only);
* ``keys`` — per key, its state (``queued``, ``leased``, ``done``,
  ``failed`` or ``exhausted``), its attempts (the higher of the journal's
  leases and the key's claimed epochs) and the kind of each failure;
* ``totals`` — keys per state;
* ``done_per_s`` — done records per second from the journal's first lease
  to its last done record, null once the journal is compacted (that drops
  the timestamps), and ``eta_s`` — the keys left to run at that rate.

A ``leased`` key has a lease with no outcome yet: it is running, or its
driver died mid-point, which only the next run of the sweep can tell.  An
``exhausted`` key has no attempt left, counted by claims too: a driver
killed between claiming an attempt and journaling it still spent it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.sweeprunner.claims import claimed_epochs
from repro.experiments.sweeprunner.ledger import read_events, replay

STATES = ("queued", "leased", "done", "failed", "exhausted")


def _stamps(events: List[Dict[str, Any]], kind: str) -> List[float]:
    return [event["t"] for event in events if event.get("event") == kind
            and isinstance(event.get("t"), (int, float))]


def sweep_status(directory: Path) -> List[Dict[str, Any]]:
    """One report per sweep journal under ``directory``, in name order."""
    directory = Path(directory)
    epochs = claimed_epochs(directory / "claims")
    reports = []
    for path in sorted((directory / "ledger").glob("sweep-*.jsonl")):
        events = read_events(path)[0]
        meta = next((event for event in events
                     if event.get("event") == "queued"), {})
        budget: Optional[int] = (1 + int(meta["max_retries"])
                                 if "max_retries" in meta else None)
        keys: Dict[str, Dict[str, Any]] = {}
        totals = dict.fromkeys(STATES, 0)
        for key, record in replay(events).items():
            attempts = max(record.leases, epochs.get(key, 0))
            if record.done:
                state = "done"
            elif record.leases > len(record.failures):
                state = "leased"
            elif budget is not None and attempts >= budget:
                state = "exhausted"
            elif record.failures:
                state = "failed"
            else:
                state = "queued"
            totals[state] += 1
            keys[key] = {"state": state, "attempts": attempts,
                         "failures": [f.get("kind") for f in record.failures]}
        leased, done = _stamps(events, "leased"), _stamps(events, "done")
        rate = None
        if leased and done and max(done) > min(leased):
            rate = len(done) / (max(done) - min(leased))
        left = totals["queued"] + totals["leased"] + totals["failed"]
        reports.append({
            "ledger": path.name, "fn": meta.get("fn"), "totals": totals,
            "done_per_s": rate,
            "eta_s": left / rate if rate else (0.0 if not left else None),
            "keys": keys})
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweeprunner", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    status = sub.add_parser("status", help="per-key state, throughput, ETA")
    status.add_argument("directory", type=Path,
                        help="the sweep's cache directory")
    args = parser.parse_args(argv)
    reports = sweep_status(args.directory)
    if not reports:
        print(f"no sweep journal under {args.directory / 'ledger'}",
              file=sys.stderr)
        return 1
    for report in reports:
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
