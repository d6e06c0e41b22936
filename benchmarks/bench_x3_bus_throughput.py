"""X3 — event-bus publish-path throughput: linear scan vs trie index.

The adaptation runtime multiplies bus traffic across scenarios, so the
publish path must not pay O(subscriptions) per message.  This bench
deploys a client/server-shaped subscription population (per-entity
probe/gauge subjects plus wildcard consumers), publishes >= 100k messages
through the trie-indexed bus and a linear-scan subclass, and reports both
throughputs.
The trie must deliver *identically* (same match counts, same statistics)
while publishing at least 5x faster at 500 subscriptions.

Output: the usual text artifact plus ``out/BENCH_bus_throughput.json``
with the raw numbers for tooling.  ``BENCH_FAST=1`` trims the message
count so the CI smoke job exercises the emitter and the speedup
assertion cheaply.
"""

import json
import os
import pathlib
import time

from repro.bus import EventBus, FixedDelay
from repro.sim import Simulator
from repro.util.tables import render_table

FAST = os.environ.get("BENCH_FAST", "") == "1"
SUBSCRIPTIONS = 500
MESSAGES = 20_000 if FAST else 100_000

OUT_DIR = pathlib.Path(__file__).parent / "out"


class LinearScanBus(EventBus):
    """The unindexed publish path: every subscription tested per message."""

    def _matches(self, msg):
        return [sub for sub in list(self._subs.values()) if sub.wants(msg)]


def build_bus(bus_type):
    """One bus with a monitoring-shaped subscription population.

    Per entity ``i``: an exact ``probe.latency.E<i>`` consumer (a gauge)
    and a ``gauge.*.E<i>`` consumer (a model updater's per-entity view);
    plus a handful of firehose ``probe.>`` subscribers.  Totals
    ``SUBSCRIPTIONS`` subscriptions.
    """
    sim = Simulator()
    bus = bus_type(sim, delivery=FixedDelay(0.0))
    counts = {"delivered": 0}

    def handler(_message):
        counts["delivered"] += 1

    firehose = 4
    per_entity = (SUBSCRIPTIONS - firehose) // 2
    for i in range(per_entity):
        bus.subscribe(f"probe.latency.E{i}", handler)
        bus.subscribe(f"gauge.*.E{i}", handler)
    for _ in range(SUBSCRIPTIONS - firehose - 2 * per_entity):
        bus.subscribe("probe.remainder.pad", handler)
    for _ in range(firehose):
        bus.subscribe("probe.>", handler)
    assert len(bus.subscriptions) == SUBSCRIPTIONS
    return sim, bus, counts, per_entity


def publish_loop(bus, per_entity):
    """Publish MESSAGES subjects round-robin; returns (seconds, matches)."""
    matches = 0
    start = time.perf_counter()
    for n in range(MESSAGES):
        entity = n % per_entity
        if n % 2:
            matches += bus.publish_subject(f"probe.latency.E{entity}", latency=1.0)
        else:
            matches += bus.publish_subject(f"gauge.latency.E{entity}", value=2.0)
    return time.perf_counter() - start, matches


def run_comparison():
    results = {}
    for label, bus_type in (("linear", LinearScanBus), ("trie", EventBus)):
        sim, bus, counts, per_entity = build_bus(bus_type)
        seconds, matches = publish_loop(bus, per_entity)
        sim.run()  # drain deliveries outside the timed publish window
        results[label] = {
            "indexed": bus_type is EventBus,
            "publish_seconds": seconds,
            "messages_per_second": MESSAGES / seconds,
            "matches": matches,
            "published": bus.published,
            "delivered": counts["delivered"],
        }
    return results


def test_x3_bus_throughput(benchmark, artifact):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    linear, trie = results["linear"], results["trie"]
    speedup = trie["messages_per_second"] / linear["messages_per_second"]

    rows = [
        ["publish wall time (s)",
         round(linear["publish_seconds"], 3), round(trie["publish_seconds"], 3)],
        ["publish throughput (msg/s)",
         int(linear["messages_per_second"]), int(trie["messages_per_second"])],
        ["matches", linear["matches"], trie["matches"]],
        ["messages delivered", linear["delivered"], trie["delivered"]],
        ["speedup (x)", 1.0, round(speedup, 1)],
    ]
    text = render_table(
        ["metric", "linear scan", "trie index"],
        rows,
        title=(
            f"X3: publish path at {SUBSCRIPTIONS} subscriptions, "
            f"{MESSAGES} messages"
        ),
    )
    print(text)
    artifact("x3_bus_throughput", text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_bus_throughput.json").write_text(
        json.dumps(
            {
                "bench": "x3_bus_throughput",
                "fast": FAST,
                "subscriptions": SUBSCRIPTIONS,
                "messages": MESSAGES,
                "results": results,
                "speedup": speedup,
            },
            indent=2,
        )
        + "\n"
    )

    # Identical delivery semantics...
    assert trie["matches"] == linear["matches"] > 0
    assert trie["delivered"] == linear["delivered"] == trie["matches"]
    # ...and the indexed publish path is >= 5x faster at 500 subscriptions.
    assert speedup >= 5.0, f"trie speedup only {speedup:.1f}x"
