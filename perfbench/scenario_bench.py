"""The discrete-event workloads: ``paper_grid`` and ``style_suite``.

Each pass builds the workload's scenarios (adapted, full horizon)
through the scenario registry and runs them to their horizon; the
result cache is never involved, so every pass simulates from scratch.
Every pass's run digest is checked against ``pins.json`` when the seed
is pinned, and against the first pass's digest otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

from common import ROOT, Outcome, percentile
from fingerprint import fingerprint, load_pins
from speed import REFERENCE_S, Sampler, loop_seconds
from tracer import Tracer, derived, install_layers

__all__ = ["SUITES", "run_scenarios"]

SUITES = {
    "paper_grid": ("client_server",),
    "style_suite": (
        "grid_site",
        "map_reduce",
        "master_worker",
        "multi_tenant",
        "multi_tenant_sharded",
        "pipeline",
    ),
}

#: fresh processes spawned for ``setup_s``; the first one is discarded
#: (it may compile bytecode), the median of the rest is reported
SETUP_SPAWNS = 6
#: passes measured even when ``--seconds`` is shorter
MIN_PASSES = 3
#: horizon of the warm-up run of each scenario (simulated seconds)
WARMUP_HORIZON = 300.0


def _build(name: str, seed: int, horizon: Optional[float] = None):
    from repro.experiment.config import RunConfig
    from repro.experiment.scenarios import scenario_entry

    config = RunConfig.adapted(name, seed=seed)
    if horizon is not None:
        config = config.but(horizon=horizon)
    return scenario_entry(name).builder(config.resolved())


class _TickSamples:
    """Per-scenario timings, each tagged with the sampler tick that follows it.

    Each timing is scaled by the chunk of that tick, the host-speed
    reading nearest after it (within one ``speed.PERIOD``), not by the
    run's mean chunk: these operations take microseconds, so each one
    lands inside a single short fast or slow spell of the host.  Over
    ten ``paper_grid`` runs, the report-handling median spread 10%
    between quartiles scaled by the mean chunk and 4% scaled this way.
    """

    def __init__(self, sampler: Sampler) -> None:
        self._sampler = sampler
        self._samples: Dict[str, List[Tuple[float, int]]] = {}
        self._name = ""

    def scenario(self, name: str) -> None:
        """File the timings that follow under scenario ``name``."""
        self._name = name

    def add(self, seconds: float) -> None:
        self._samples.setdefault(self._name, []).append(
            (seconds, len(self._sampler.chunks))
        )

    def reference_s(self) -> Dict[str, List[float]]:
        """Each scenario's timings in reference seconds."""
        chunks = self._sampler.chunks
        last = len(chunks) - 1
        return {
            name: [s * REFERENCE_S / chunks[min(tick, last)] for s, tick in samples]
            for name, samples in self._samples.items()
        }


class _ReportTimer(_TickSamples):
    """Times each gauge report's handling (updater -> model -> check -> repair).

    Two work-clock reads per report: the telemetry-ingest latency of the
    simulated plane, measured in host time and kept per scenario.
    """

    def __init__(self, sampler: Sampler) -> None:
        from repro.monitoring.consumers import ModelUpdater
        from repro.runtime.updater import PropertyUpdater

        super().__init__(sampler)
        self._originals = []
        for cls in (ModelUpdater, PropertyUpdater):
            original = cls.__dict__["_on_report"]
            self._originals.append((cls, original))
            setattr(cls, "_on_report", self._timed(original))

    def _timed(self, fn):
        clock = self._sampler.now

        def on_report(updater, message):
            t0 = clock()
            try:
                return fn(updater, message)
            finally:
                self.add(clock() - t0)

        return on_report

    def restore(self) -> None:
        for cls, original in self._originals:
            setattr(cls, "_on_report", original)


class _StatsReads(_TickSamples):
    """Times an in-process ``GET /stats`` on the running scenario.

    The sampler's probe: one timed read per tick, just before the tick's
    chunk, so the reads are spread over the whole run beside the
    simulation's writes.
    """

    def __init__(self, sampler: Sampler) -> None:
        from repro.serve.app import ServeApp

        super().__init__(sampler)
        self._serve_app = ServeApp
        self.errors: List[str] = []
        self._app = None

    def scenario(self, name: str, runtime=None) -> None:
        """Read ``runtime`` (None: stop reading) and file reads under ``name``."""
        super().scenario(name)
        self._app = None if runtime is None else self._serve_app(runtime=runtime)

    def __call__(self) -> None:
        if self._app is None:
            return
        try:
            # an untimed read first: a read straight after the interrupt
            # ran cold, and its cost jumped by a fifth between the host's
            # spells; the warm read moved by a few percent
            self._app.handle("GET", "/stats")
            t0 = time.perf_counter()
            status, _payload = self._app.handle("GET", "/stats")
            self.add(time.perf_counter() - t0)
        except Exception as exc:  # never raise into the interrupted run
            status = repr(exc)
        if status != 200:
            self.errors.append(f"{self._name}: GET /stats answered {status}")


def _suite_ms(samples: Dict[str, List[float]], q: float) -> float:
    """Each scenario's ``q``-th percentile, in ms, averaged by sample count.

    Per scenario, because pooled, the suite's samples form separate
    clusters (cheap suppressed reports in one scenario, full checks in
    another) and a pooled percentile jumps between them from seed to
    seed.  Weighted by each scenario's (seed-fixed) sample count, so a
    scenario with few samples and a percentile on a steep tail moves the
    result little.
    """
    total = sum(len(values) for values in samples.values())
    return 1e3 * sum(
        len(values) * percentile(values, q) for values in samples.values()
    ) / total


class _Pass:
    """One run of every scenario of a workload."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.digests: Dict[str, str] = {}
        self.errors: List[str] = []
        self.gauge_reports = 0
        self.scopes_reused = 0
        self.scopes_evaluated = 0
        self.repairs = 0
        self.committed = 0


def _run_pass(
    names, seed: int, timer=None, reads=None, clock=time.perf_counter
) -> _Pass:
    """Run every scenario once; spans are read from ``clock``."""
    out = _Pass()
    for name in names:
        if timer is not None:
            timer.scenario(name)
        try:
            experiment = _build(name, seed)
            if reads is not None:
                reads.scenario(name, experiment.runtime)
            t0 = clock()
            try:
                result = experiment.run()
            finally:
                if reads is not None:
                    reads.scenario(name, None)
                experiment.runtime.stop()
            out.wall_s += clock() - t0
        except Exception:  # a failing scenario is a failed operation
            out.errors.append(f"{name}: {traceback.format_exc()}")
            continue
        out.digests[name] = fingerprint(result)
        stats = result.stats
        out.gauge_reports += int(stats.bus["gauge_published"])
        out.scopes_reused += int(stats.constraints.get("scopes_reused", 0))
        out.scopes_evaluated += int(stats.constraints.get("scopes_evaluated", 0))
        out.repairs += len(result.history)
        out.committed += len(result.history.committed)
    return out


def _check(one: _Pass, expected: Dict[str, str], names) -> int:
    """Failed scenario runs of one pass: raised, or digest mismatch."""
    failed = 0
    for name in names:
        digest = one.digests.get(name)
        if digest is None:
            failed += 1
        elif name in expected and digest != expected[name]:
            print(
                f"digest mismatch for {name}: {digest} != {expected[name]}",
                file=sys.stderr,
            )
            failed += 1
        else:
            expected.setdefault(name, digest)
    for error in one.errors:
        print(error, file=sys.stderr)
    return failed


def _setup_s(names, seed: int) -> float:
    """Median cold set-up, in reference seconds, over fresh processes."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             str(seed), ",".join(names)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"] * REFERENCE_S / probe["loop_s"])
    return statistics.median(samples[1:])


def _warm_up(names, seed: int) -> None:
    """Short runs of each scenario, so lazy set-up is not timed."""
    for name in names:
        experiment = _build(name, seed, horizon=WARMUP_HORIZON)
        try:
            experiment.run()
        finally:
            experiment.runtime.stop()


def run_scenarios(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    names = SUITES[workload]
    pins = load_pins().get(seed, {})
    expected = {name: pins[name] for name in names if name in pins}
    if trace:
        return _traced(workload, names, seed, expected)

    setup_s = _setup_s(names, seed)
    _warm_up(names, seed)
    passes: List[_Pass] = []
    failed = 0
    start = time.perf_counter()
    with Sampler() as sampler:
        timer = _ReportTimer(sampler)
        reads = sampler.probe = _StatsReads(sampler)
        try:
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                one = _run_pass(
                    names, seed, timer=timer, reads=reads,
                    clock=sampler.reference_now,
                )
                failed += _check(one, expected, names)
                passes.append(one)
        finally:
            timer.restore()

    # CPU-bound timings in reference seconds (speed.py): passes on the
    # sampler's reference clock, each report and read by its tick's chunk.
    # Pass time is a mean: it integrates the host's speed over the run.
    wall_s = statistics.fmean(p.wall_s for p in passes)
    reports_s = timer.reference_s()
    stats_s = reads.reference_s()
    for error in reads.errors:
        print(error, file=sys.stderr)
    failed += len(reads.errors)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "max_rps": statistics.fmean(p.gauge_reports for p in passes) / wall_s,
        "ingest_p50_ms": _suite_ms(reports_s, 50),
        "stats_p50_ms": _suite_ms(stats_s, 50),
    }
    n_reads = sum(len(v) for v in stats_s.values())
    return Outcome(
        attempted=len(passes) * len(names) + n_reads, failed=failed,
        metrics=metrics,
        notes={
            "ingest_p95_ms": round(_suite_ms(reports_s, 95), 6),
            "passes": len(passes),
            "pass_s": [round(p.wall_s, 4) for p in passes],
            "chunks": len(sampler.chunks),
            "chunk_ms": round(1e3 * statistics.fmean(sampler.chunks), 5),
            "gauge_reports_timed": sum(len(v) for v in reports_s.values()),
            "stats_reads": n_reads,
            "pinned": [name for name in names if name in pins],
        },
    )


def _reference_pass(names, seed: int) -> Tuple[_Pass, float]:
    """One pass, and its time in reference seconds by readings around it.

    Only for ``trace.overhead``: a ratio of two single passes in host
    time read below 1 when the host slowed during the bare pass.
    """
    before = loop_seconds()
    one = _run_pass(names, seed)
    reading = statistics.fmean((before, loop_seconds()))
    return one, one.wall_s * REFERENCE_S / reading


def _traced(workload: str, names, seed: int, expected: Dict[str, str]) -> Outcome:
    _warm_up(names, seed)
    bare, bare_s = _reference_pass(names, seed)
    failed = _check(bare, expected, names)
    tracer = Tracer()
    install_layers(tracer)
    try:
        traced, traced_s = _reference_pass(names, seed)
    finally:
        tracer.restore()
    # the wrappers must not perturb the simulation: same digests as bare
    failed += _check(traced, dict(bare.digests), names)
    net_calls = tracer.calls("net.recompute") + tracer.calls("net.start_transfer")
    if workload != "paper_grid" and net_calls:
        print(f"{workload} must bypass repro.net, saw {net_calls} calls",
              file=sys.stderr)
        failed += 1

    reuse_base = traced.scopes_reused + traced.scopes_evaluated
    metrics = dict(tracer.split())
    metrics.update(derived(tracer))
    metrics.update({
        "gauge.reports": traced.gauge_reports,
        "constraints.reuse_ratio": (
            traced.scopes_reused / reuse_base if reuse_base else 0.0
        ),
        "repair.commit_ratio": (
            traced.committed / traced.repairs if traced.repairs else 0.0
        ),
        "trace.overhead": traced_s / bare_s,
        # the live plane's layers: not exercised by a simulated run
        "realtime.executed": 0,
        "realtime.max_lag_ms": 0.0,
        "serve.wire_ms": 0.0,
        "loadgen.max_late_ms": 0.0,
        "ingest_p95_ms": 0.0,
    })
    return Outcome(
        attempted=2 * len(names), failed=failed, metrics=metrics,
        notes={
            "bare_wall_s": bare.wall_s, "traced_wall_s": traced.wall_s,
            "bare_reference_s": bare_s, "traced_reference_s": traced_s,
        },
    )
