"""Run digests: the benchmark's output check for scenario workloads.

The digest is the one the serial-fingerprint tests pin (issued /
completed / dropped counts, every repair record, every trace event and
every sample of every series), computed here so the benchmark does not
import the test suite.  ``pins.json`` holds the digests for the default
seed (copied from the tests, plus ``multi_tenant_sharded``, which the
tests do not pin) and for one held-out seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

__all__ = ["fingerprint", "load_pins"]

PINS = Path(__file__).resolve().parent / "pins.json"


def fingerprint(result) -> str:
    """A platform-stable sha256 of everything a run produced."""
    payload = {
        "issued": result.issued,
        "completed": result.completed,
        "dropped": result.dropped,
        "history": [
            [
                repr(float(r.started)),
                r.strategy,
                r.invariant,
                r.scope,
                repr(float(r.ended)) if r.ended is not None else None,
                r.committed,
                r.tactic_applied,
                r.abort_reason,
                [str(i) for i in r.intents],
            ]
            for r in result.history
        ],
        "trace": [[repr(float(rec.time)), rec.category] for rec in result.trace],
        "series": {
            name: [
                [repr(float(t)) for t in ts.times],
                [repr(float(v)) for v in ts.values],
            ]
            for name, ts in sorted(result.series.items())
        },
    }
    blob = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_pins() -> Dict[int, Dict[str, str]]:
    """seed -> scenario -> pinned digest."""
    data = json.loads(PINS.read_text())
    return {int(seed): digests for seed, digests in data["digests"].items()}
