"""Cold set-up of scenario workloads, timed inside a fresh process.

Usage: ``python perfbench/setup_probe.py <seed> <scenario>[,<scenario>...]``

Times importing the package plus building each named scenario (its
application, network and adaptation runtime), up to the point where the
first event would run, then reads the host-speed reference loop in the
same process, and prints ``{"setup_s": ..., "loop_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiment.config import RunConfig  # noqa: E402
from repro.experiment.scenarios import scenario_entry  # noqa: E402


def main() -> None:
    seed = int(sys.argv[1])
    for name in sys.argv[2].split(","):
        scenario_entry(name).builder(RunConfig.adapted(name, seed=seed).resolved())
    setup_s = time.perf_counter() - t0

    from speed import loop_seconds

    print(json.dumps({"setup_s": setup_s, "loop_s": loop_seconds()}))


if __name__ == "__main__":
    main()
