"""Per-layer spans, installed from outside the program.

The tracer wraps the entry points of each ``src/repro`` layer with a
timing shim: every call records its span, and a span's *self time* is
its duration minus the wrapped child spans inside it.  Nothing in
``src/`` changes; :func:`install_layers` patches class attributes and
:meth:`Tracer.restore` puts the originals back.

Install before the scenario (or driver) is built: subscriptions and
scheduled callbacks bind methods at construction, so a wrapper
installed later would miss them.

Spans are kept per thread (the serve process runs handler threads and
the realtime scheduler thread side by side) and merged on read.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install_layers", "derived", "LAYER_SPANS"]

#: span names every workload reports (0 where a layer is not exercised)
LAYER_SPANS = (
    "sim.step",
    "app.resume",
    "net.recompute",
    "net.start_transfer",
    "bus.publish",
    "bus.sharded_publish",
    "bus.deliver",
    "bus.drain",
    "monitoring.probe_sample",
    "monitoring.probe_publish",
    "monitoring.probe_publish_batch",
    "monitoring.gauge_consume",
    "updater.on_report",
    "constraints.check_all",
    "repair.evaluate",
    "repair.coordinator_evaluate",
    "repair.strategy_run",
    "translation.execute",
    "realtime.call_soon_threadsafe",
    "serve.ingest",
    "serve.stats",
    "serve.health",
)


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "edges")

    def __init__(self) -> None:
        #: open spans, innermost last: [name, seconds spent in children]
        self.stack: List[List[Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (parent span, child span) -> calls, for spans that ask for it
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)


class Tracer:
    """Wraps callables in spans and accumulates calls and self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[type, str, Any]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        name_of: Optional[Callable[..., str]] = None,
        count_parent: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name`` (or ``name_of(*args)``)."""
        perf = time.perf_counter
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            label = name_of(*args, **kwargs) if name_of is not None else name
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                state.calls[label] += 1
                state.self_s[label] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    if count_parent:
                        state.edges[(parent[0], label)] += 1

        return traced

    def patch(self, owner: type, attr: str, name: str, **kwargs: Any) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by a span."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, **kwargs))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def calls(self, name: str) -> int:
        with self._lock:
            return sum(state.calls.get(name, 0) for state in self._states)

    def self_s(self, name: str) -> float:
        with self._lock:
            return sum(state.self_s.get(name, 0.0) for state in self._states)

    def edge(self, parent: str, child: str) -> int:
        with self._lock:
            return sum(state.edges.get((parent, child), 0) for state in self._states)

    def split(self) -> Dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every layer span."""
        out: Dict[str, float] = {}
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_s(name)
        return out


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _own(classes: List[type], attr: str) -> List[type]:
    """The classes among ``classes`` that define ``attr`` themselves."""
    return [cls for cls in classes if attr in cls.__dict__]


def _route(app: Any, method: str, path: str, body: Any = None) -> str:
    return "serve." + (path.split("?", 1)[0].strip("/") or "root")


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports.

    Imports every built-in scenario first, so subclass discovery sees
    the scenario-local probes, strategies and translators.
    """
    import repro.experiment.scenarios  # noqa: F401  (registers all scenarios)
    import repro.realtime.demo  # noqa: F401
    from repro.bus.bus import EventBus
    from repro.bus.sharding import ShardedEventBus
    from repro.constraints.invariants import ConstraintChecker
    from repro.faults.plane import FaultyTranslator
    from repro.monitoring.consumers import ModelUpdater
    from repro.monitoring.gauges import Gauge
    from repro.monitoring.probes import _Probe
    from repro.net.flows import FlowNetwork
    from repro.realtime.scheduler import RealtimeScheduler
    from repro.repair.engine import ArchitectureManager
    from repro.repair.sharding import ShardCoordinator
    from repro.repair.strategy import RepairStrategy
    from repro.runtime.app import IntentExecutor
    from repro.runtime.updater import PropertyUpdater
    from repro.serve.app import ServeApp
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

    patch = tracer.patch
    patch(Simulator, "step", "sim.step")
    patch(Process, "_resume", "app.resume")
    patch(Process, "_throw", "app.resume")
    patch(FlowNetwork, "recompute", "net.recompute")
    patch(FlowNetwork, "start_transfer", "net.start_transfer")
    patch(EventBus, "publish", "bus.publish")
    patch(ShardedEventBus, "publish", "bus.sharded_publish")
    patch(ShardedEventBus, "publish_subject", "bus.sharded_publish")
    patch(EventBus, "_deliver", "bus.deliver")
    patch(EventBus, "_drain", "bus.drain")
    for cls in _own(_subclasses(_Probe), "sample"):
        patch(cls, "sample", "monitoring.probe_sample")
    patch(_Probe, "publish", "monitoring.probe_publish")
    patch(_Probe, "publish_batch", "monitoring.probe_publish_batch")
    patch(Gauge, "_on_probe", "monitoring.gauge_consume")
    patch(ModelUpdater, "_on_report", "updater.on_report")
    patch(PropertyUpdater, "_on_report", "updater.on_report")
    patch(ConstraintChecker, "check_all", "constraints.check_all")
    patch(ArchitectureManager, "evaluate", "repair.evaluate", count_parent=True)
    # a shard's updater wakes its loop through the coordinator
    patch(
        ShardCoordinator, "evaluate_shard", "repair.coordinator_evaluate",
        count_parent=True,
    )
    for cls in _own(_subclasses(RepairStrategy), "run"):
        patch(cls, "run", "repair.strategy_run")
    for cls in _own(_subclasses(IntentExecutor) + [FaultyTranslator], "execute"):
        patch(cls, "execute", "translation.execute")
    patch(
        RealtimeScheduler, "call_soon_threadsafe", "realtime.call_soon_threadsafe"
    )
    patch(ServeApp, "handle", "serve", name_of=_route)


def derived(tracer: Tracer) -> Dict[str, float]:
    """Counts the spans give beyond calls/self time."""
    reports = tracer.calls("updater.on_report")
    wakeups = tracer.edge("updater.on_report", "repair.evaluate") + tracer.edge(
        "updater.on_report", "repair.coordinator_evaluate"
    )
    return {"updater.wake_ratio": wakeups / reports if reports else 0.0}
