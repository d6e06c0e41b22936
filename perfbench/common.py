"""Shared pieces of the benchmark: paths, the run outcome, percentiles."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Sequence

__all__ = ["ROOT", "SRC", "Outcome", "percentile", "use_source_tree"]

#: the checkout the benchmark runs in (``perfbench/..``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Make the package importable from the checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Outcome:
    """What one workload run measured and how many operations failed."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: Dict[str, Any] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
