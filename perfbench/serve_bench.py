"""The wall-clock workload: ``serve_ingest``.

An open-loop generator in this process drives the server child
(``serve_child.py``) over loopback HTTP with a seeded mix of 80%
``POST /ingest`` and 20% ``GET /stats``, on at most two keep-alive
connections (one thread each, never more than the host's cores).
Requests are due on a fixed schedule; each is timed from its due time,
so a stall also charges the requests queued behind it.

Phases against one server, after a short warm-up:

1. **base** — the fixed base rate; gives ``ingest_p50_ms``,
   ``ingest_p95_ms``, ``stats_p50_ms`` and ``loadgen.max_late_ms``;
2. **ladder** — geometric rate steps up from the base rate, climbed
   three times; a climb stops at the first step whose ingest p95 misses
   the latency limit, or fails a request, or whose lateness grows.  The
   server is overloaded there, so the rate it answered requests at over
   that step is its capacity: the climb's rate.  ``max_rps`` is the
   median climb;
3. **batch** — a fixed batch sent closed-loop (each connection sends
   its next request when the last one answered); its duration is
   ``wall_s``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import ROOT, Outcome, percentile
from speed import REFERENCE_S, loop_seconds

__all__ = ["run_serve"]

HOST = "127.0.0.1"
#: the fixed base rate (requests/s), below today's knee
BASE_RATE = 25.0
#: requests sent at the base rate before measuring, to warm both ends
WARMUP_REQUESTS = 60
#: fewest base-phase requests (so ingest p95 has >= 10 samples beyond it)
BASE_MIN_REQUESTS = 250
#: share of requests that are ``POST /ingest`` (the rest ``GET /stats``)
INGEST_SHARE = 0.8
#: closed-loop batch size for ``wall_s``
BATCH_REQUESTS = 200
#: ladder: the base rate times powers of this factor, up to the top rate
LADDER_FACTOR = 2 ** 0.5
LADDER_TOP = 1700.0
#: climbs of the ladder per run; ``max_rps`` is their median
LADDER_CLIMBS = 3
#: each ladder step sends at least this many requests, for at least this long
STEP_MIN_REQUESTS = 200
STEP_MIN_SECONDS = 1.5
#: ingest p95 limit for a ladder step (ms), and the lateness growth allowed
LATENCY_LIMIT_MS = 50.0
LATE_GROWTH_MS = 10.0
#: per-request socket timeout (s); a timeout is a failed request
REQUEST_TIMEOUT = 10.0
#: spawns for ``setup_s``; the first one is discarded
SETUP_SPAWNS = 6


def _connections() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cores = os.cpu_count() or 1
    return max(1, min(2, cores))


@dataclass
class _Record:
    kind: str  # "ingest" or "stats"
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def from_due_ms(self) -> float:
        return 1e3 * (self.done - self.due)

    @property
    def late_ms(self) -> float:
        return 1e3 * max(0.0, self.sent - self.due)


class _Server:
    """One server child: spawned, health-checked, stopped with a report."""

    def __init__(self, trace: bool):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_child.py"),
             "--trace", str(int(trace))],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server child exited before binding a port")
            self.port = int(json.loads(line)["port"])
            self._await_health()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server child never answered /health")

    def stop(self) -> Dict:
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class _Plan:
    """The seeded request mix: kind and ingested value per request."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def take(self, n: int) -> List[Tuple[str, Optional[bytes]]]:
        out = []
        for _ in range(n):
            if self._rng.random() < INGEST_SHARE:
                value = round(self._rng.uniform(0.01, 0.25), 6)
                body = json.dumps(
                    {"kind": "latency", "target": "pool", "value": value}
                ).encode()
                out.append(("ingest", body))
            else:
                out.append(("stats", None))
        return out


class _Client:
    """Keep-alive connections and the request loop on each of them."""

    def __init__(self, port: int):
        self.conns = [
            http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT)
            for _ in range(_connections())
        ]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    @staticmethod
    def _send(conn, kind: str, body: Optional[bytes]) -> bool:
        try:
            if kind == "ingest":
                conn.request("POST", "/ingest", body=body,
                             headers={"Content-Type": "application/json"})
            else:
                conn.request("GET", "/stats")
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()  # the next request reconnects
            return False
        if response.status != 200:
            return False
        if kind == "stats":
            try:
                return "telemetry" in json.loads(payload)
            except ValueError:
                return False
        return True

    def run(self, requests, rate: Optional[float]) -> Tuple[List[_Record], float]:
        """Send ``requests``: open loop at ``rate``, or closed loop if None.

        Returns the records (in request order) and the phase's duration.
        """
        n = len(requests)
        records: List[Optional[_Record]] = [None] * n
        counter = itertools.count()
        start = time.perf_counter() + 0.02

        def worker(conn) -> None:
            perf = time.perf_counter
            while True:
                i = next(counter)
                if i >= n:
                    return
                kind, body = requests[i]
                if rate is None:
                    due = perf()
                else:
                    due = start + i / rate
                    wait = due - perf()
                    if wait > 0:
                        time.sleep(wait)
                sent = perf()
                ok = self._send(conn, kind, body)
                records[i] = _Record(kind, due, sent, perf(), ok)

        threads = [threading.Thread(target=worker, args=(c,)) for c in self.conns]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT * n)
            if thread.is_alive():
                raise RuntimeError("load generator thread did not finish")
        return records, time.perf_counter() - t0


def _latencies(records: List[_Record], kind: str) -> List[float]:
    """Due-time latencies (ms); a failed request counts as the timeout."""
    return [
        r.from_due_ms if r.ok else 1e3 * REQUEST_TIMEOUT
        for r in records
        if r.kind == kind
    ]


def _ingest_p95(records: List[_Record]) -> float:
    return percentile(_latencies(records, "ingest"), 95)


def _step_passes(records: List[_Record]) -> bool:
    """No failed request, ingest p95 within the limit, lateness not growing."""
    if not all(r.ok for r in records):
        return False
    if _ingest_p95(records) > LATENCY_LIMIT_MS:
        return False
    quarter = max(1, len(records) // 4)
    first = statistics.median(r.late_ms for r in records[:quarter])
    last = statistics.median(r.late_ms for r in records[-quarter:])
    return last - first <= LATE_GROWTH_MS


def _achieved_rate(records: List[_Record]) -> float:
    """Requests answered 200 per second over a step, first due to last done.

    On a step the server cannot keep up with, this is its capacity, read
    as a rate rather than as which rung the overload began on: near
    today's delayed-ACK knee whether a rung passes is a coin toss (the
    connection's ACK mode), but the overloaded server's rate is steady.
    """
    span = max(r.done for r in records) - min(r.due for r in records)
    return sum(1 for r in records if r.ok) / span


def _base_phase(port: int, plan: _Plan, n: int):
    """The warm-up, then ``n`` requests at the base rate, on one client."""
    client = _Client(port)
    try:
        warm, _ = client.run(plan.take(WARMUP_REQUESTS), BASE_RATE)
        base, _ = client.run(plan.take(n), BASE_RATE)
    finally:
        client.close()
    return warm, base


def _phase(port: int, requests, rate: Optional[float]):
    """Send ``requests`` on fresh keep-alive connections, then close them."""
    client = _Client(port)
    try:
        return client.run(requests, rate)
    finally:
        client.close()


def _climb(port: int, plan: _Plan):
    """One climb of the rate ladder above the (passing) base phase.

    Every step opens fresh connections, so no step inherits the TCP
    acknowledgement mode the previous one left behind.  Returns the
    climb's ``max_rps`` (the rate achieved on the first failing step, or
    on the top step when every step passes), every record it sent, and
    per step ``[offered rate, achieved rate, ingest p95 ms, passed]``.
    """
    sent: List[_Record] = []
    steps = []
    rate = BASE_RATE
    while rate * LADDER_FACTOR <= LADDER_TOP:
        rate *= LADDER_FACTOR
        n = max(STEP_MIN_REQUESTS, int(rate * STEP_MIN_SECONDS))
        records, _ = _phase(port, plan.take(n), rate)
        sent += records
        passed = _step_passes(records)
        steps.append([round(rate, 2), round(_achieved_rate(records), 3),
                      round(_ingest_p95(records), 3), passed])
        if not passed:
            break
    return _achieved_rate(records), sent, steps


def _base_requests(seconds: float) -> int:
    """Base-phase size: the run's measuring time at the base rate."""
    return max(BASE_MIN_REQUESTS, int(BASE_RATE * seconds))


def _shortfall(report: Dict, accepted: int) -> int:
    """Ingests answered 200 that the probe never published: failed operations.

    Every 200 on ``/ingest`` follows the driver accepting the sample, so a
    scheduler thread that died (or dropped injected work) shows up here.
    """
    samples = int(report["samples"])
    if samples != accepted:
        print(
            f"ingest probe published {samples} samples; clients saw "
            f"{accepted} ingests answered 200 (driver accepted "
            f"{report['ingested']})",
            file=sys.stderr,
        )
    return max(0, accepted - samples)


def _accepted(records: List[_Record]) -> int:
    return sum(1 for r in records if r.kind == "ingest" and r.ok)


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    plan = _Plan(seed)
    if trace:
        return _traced(plan, seconds)

    setup = []  # reference seconds (speed.py), each by the reading before it
    for _ in range(SETUP_SPAWNS):
        loop_s = loop_seconds()
        server = _Server(trace=False)
        setup.append(server.setup_s * REFERENCE_S / loop_s)
        server.stop()

    server = _Server(trace=False)
    try:
        warm, base = _base_phase(server.port, plan, _base_requests(seconds))
        climbs = []
        if _step_passes(base):
            climbs = [_climb(server.port, plan) for _ in range(LADDER_CLIMBS)]
        batch, batch_s = _phase(server.port, plan.take(BATCH_REQUESTS), None)
        report = server.stop()
    except BaseException:
        server.kill()
        raise

    ladder = [r for _rate, sent, _steps in climbs for r in sent]
    records = warm + base + ladder + batch
    failed = sum(1 for r in records if not r.ok)
    failed += _shortfall(report, _accepted(records))
    # Latencies, the batch and the ladder stay in host units: scaling the
    # latencies by loop readings taken around the base phase widened
    # their run-to-run spread (12% and 33% against 4% and 21% raw, over
    # two ten-run sets), as the readings could not follow the host during
    # the phase.  Only set-up, which is CPU-bound, is in reference seconds.
    metrics = {
        "setup_s": statistics.median(setup[1:]),
        "wall_s": batch_s,
        "max_rps": statistics.median(c[0] for c in climbs) if climbs else 0.0,
        "ingest_p50_ms": percentile(_latencies(base, "ingest"), 50),
        "stats_p50_ms": percentile(_latencies(base, "stats"), 50),
    }
    return Outcome(
        attempted=len(records), failed=failed, metrics=metrics,
        notes={
            # not bounded: see README, "ingest_p95_ms"
            "ingest_p95_ms": round(_ingest_p95(base), 4),
            "base_requests": len(base),
            "ladder_requests": len(ladder),
            "climbs": [[round(c[0], 3), c[2]] for c in climbs],
            "base_max_late_ms": round(max(r.late_ms for r in base), 3),
            "server": report,
        },
    )


def _serve_phases(server: _Server, plan: _Plan, n_base: int):
    """Base and batch phases against ``server``, then stop it."""
    try:
        warm, base = _base_phase(server.port, plan, n_base)
        batch, batch_s = _phase(server.port, plan.take(BATCH_REQUESTS), None)
        report = server.stop()
    except BaseException:
        server.kill()
        raise
    records = warm + base + batch
    failed = sum(1 for r in records if not r.ok) + _shortfall(
        report, _accepted(records)
    )
    return base, batch_s, report, records, failed


def _traced(plan: _Plan, seconds: float) -> Outcome:
    n_base = _base_requests(seconds)
    bare_base, bare_s, _bare, bare_records, failed = _serve_phases(
        _Server(trace=False), plan, n_base
    )
    traced_server = _Server(trace=True)
    base, traced_s, report, records, traced_failed = _serve_phases(
        traced_server, plan, n_base
    )
    failed += traced_failed
    split = report["split"]
    if split["net.recompute.calls"] or split["net.start_transfer.calls"]:
        print("serve_ingest must bypass repro.net", file=sys.stderr)
        failed += 1

    ingest = [r for r in base if r.kind == "ingest" and r.ok]
    round_trip_ms = statistics.median(1e3 * (r.done - r.sent) for r in ingest)
    # server-side handle time of /ingest: the route's self time plus its
    # one wrapped child, the hop onto the scheduler thread
    handled = split["serve.ingest.calls"]
    handle_s = (
        split["serve.ingest.self_s"] + split["realtime.call_soon_threadsafe.self_s"]
    )
    handle_ms = 1e3 * handle_s / handled if handled else 0.0
    metrics = dict(split)
    metrics.update({
        "repair.commit_ratio": (
            report["committed"] / report["repairs"] if report["repairs"] else 0.0
        ),
        "realtime.executed": report["executed"],
        "realtime.max_lag_ms": 1e3 * report["max_lag_s"],
        "serve.wire_ms": round_trip_ms - handle_ms,
        "loadgen.max_late_ms": max(r.late_ms for r in bare_base),
        "ingest_p95_ms": _ingest_p95(bare_base),
        "trace.overhead": traced_s / bare_s,
    })
    return Outcome(
        attempted=len(bare_records) + len(records), failed=failed, metrics=metrics,
        notes={"bare_batch_s": bare_s, "traced_batch_s": traced_s},
    )
