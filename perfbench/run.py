"""End-to-end benchmark of the adaptation loop, split by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_grid --seed 2002 --seconds 16 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``paper_grid``  — the paper's client/server experiment, adapted, 1800 s;
* ``style_suite`` — the six other registered scenarios, back to back;
* ``serve_ingest`` — ``repro serve`` over a live realtime driver, driven
  over loopback HTTP by an open-loop generator.

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
wraps every layer's entry points and reports the per-layer split.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, use_source_tree  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"


def _declared(trace: bool):
    spec = json.loads(SPEC.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]], [
        w["name"] for w in spec["workloads"]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    declared, workloads = _declared(bool(args.trace))
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads}")

    if args.workload == "serve_ingest":
        from serve_bench import run_serve

        outcome = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        from scenario_bench import run_scenarios

        outcome = run_scenarios(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    measured = dict(outcome.metrics)
    if args.trace:
        measured["error_ratio"] = outcome.failed / outcome.attempted
    missing = [name for name, _ in declared if name not in measured]
    if missing:
        raise SystemExit(f"workload {args.workload} did not measure {missing}")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"error_ratio={outcome.failed / outcome.attempted:.4f}")
    for name, unit in declared:
        print(f"{name:40s} {measured[name]:>14.6g} {unit}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {json.dumps(value)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(measured[name]), "unit": unit}
            for name, unit in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
