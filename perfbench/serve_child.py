"""Server side of ``serve_ingest``: a live control plane behind HTTP.

Usage: ``python perfbench/serve_child.py --trace 0|1``

Builds a :class:`~repro.realtime.driver.RealtimeDriver` over a stand-in
worker-pool application (the live-pool spec from ``repro.realtime.demo``),
serves it with :class:`~repro.serve.app.ServeApp` behind
:class:`~repro.serve.http.ReproHTTPServer` on a loopback port, and prints
``{"port": ...}``.  A line on stdin (or EOF) stops it: the server shuts
down, the driver stops once every accepted sample has been published,
and one JSON report goes to stdout: the ingest probe's ``samples``, the
driver's ``ingested`` count, the scheduler's counters and, with
``--trace 1``, the per-layer split.
"""

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_source_tree  # noqa: E402

use_source_tree()

from tracer import Tracer, derived, install_layers  # noqa: E402

#: the stand-in pool's backlog cycle: a burst every period (wall seconds)
BURST_PERIOD = 5.0
BURST_LENGTH = 1.0
BURST_DEPTH = 40.0
#: longest wait for accepted samples to reach the probe before stopping
DRAIN_TIMEOUT = 5.0


class StandInPool:
    """A live application whose load follows a fixed wall-clock cycle.

    It exposes exactly what the live-pool spec samples and actuates:
    ``queue_depth``, ``utilization()``, ``pool_size`` and
    ``request_resize``.  For the first ``BURST_LENGTH`` seconds of every
    ``BURST_PERIOD`` the backlog is high and the pool saturated, so the
    plane grows the pool, then shrinks it again while the HTTP edge is
    being read and written.
    """

    def __init__(self, pool_size: int = 2):
        self.pool_size = pool_size
        self.resizes = 0
        self._origin = time.monotonic()

    def _bursting(self) -> bool:
        return (time.monotonic() - self._origin) % BURST_PERIOD < BURST_LENGTH

    @property
    def queue_depth(self) -> float:
        return BURST_DEPTH if self._bursting() else 0.0

    def utilization(self) -> float:
        return 1.0 if self._bursting() else 1.0 / max(1, self.pool_size)

    def request_resize(self, size: int) -> None:
        self.pool_size = int(size)
        self.resizes += 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layers(tracer)  # before anything binds a method

    from repro.monitoring.probes import IngestProbe
    from repro.realtime.demo import LivePoolManagedApplication, build_live_pool_spec
    from repro.realtime.driver import RealtimeDriver
    from repro.serve.app import ServeApp
    from repro.serve.http import ReproHTTPServer

    app = StandInPool(pool_size=2)
    driver = RealtimeDriver(
        LivePoolManagedApplication(app, min_workers=2),
        build_live_pool_spec(app, max_workers=8),
    )
    probes = [p for p in driver.runtime.probes if isinstance(p, IngestProbe)]
    driver.start()
    server = ReproHTTPServer("127.0.0.1", 0, ServeApp(driver=driver))
    print(json.dumps({"port": server.bound_port}), flush=True)

    def stop_on_stdin() -> None:
        sys.stdin.readline()
        server.shutdown()

    threading.Thread(target=stop_on_stdin, daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()

    deadline = time.monotonic() + DRAIN_TIMEOUT
    while (
        sum(p.samples for p in probes) < driver.ingested
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    driver.stop()
    if tracer is not None:
        tracer.restore()

    scheduler = driver.scheduler
    history = driver.history
    report = {
        "samples": sum(p.samples for p in probes),
        "ingested": driver.ingested,
        "executed": scheduler.executed,
        "max_lag_s": scheduler.max_lag,
        "repairs": len(history),
        "committed": len(history.committed),
        "resizes": app.resizes,
    }
    if tracer is not None:
        stats = driver.stats()
        constraints = stats.constraints
        reuse_base = constraints.get("scopes_reused", 0) + constraints.get(
            "scopes_evaluated", 0
        )
        report["split"] = tracer.split()
        report["split"].update(derived(tracer))
        report["split"].update({
            "gauge.reports": int(stats.bus["gauge_published"]),
            "constraints.reuse_ratio": (
                constraints.get("scopes_reused", 0) / reuse_base
                if reuse_base else 0.0
            ),
        })
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
