"""Fluid-flow transfers with max-min fair bandwidth allocation.

Every active transfer is a *fluid flow* along its routed path.  Whenever the
flow set or a demand changes, the engine re-solves a two-tier allocation:

1. **priority (cross-traffic) flows** take their demanded rate first, up to
   link capacity.  The paper's competition program could starve application
   traffic to ~10 Kbps on a 10 Mbps network, so competition must *not*
   yield fairly — it behaves like unresponsive UDP blasting;
2. **elastic flows** (application transfers) then share the residual
   capacity of every link max-min fairly (progressive filling, honoring
   optional per-flow caps).

Between recomputations rates are constant, so completion times are exact and
the whole simulation stays deterministic.  This reproduces what the paper's
testbed provides to the adaptation loop: path transfer times and available
bandwidth under competition.

Every re-solve is global: progressive filling picks each increment over
*all* links, so a component-local re-solve would round differently.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.net.routing import RoutingTable
from repro.net.topology import Link, Topology
from repro.sim.kernel import Event, Simulator
from repro.util.ids import IdGenerator

__all__ = ["Flow", "FlowNetwork"]

_EPS_BW = 1e-9  # bits/s below which a share is considered zero
_EPS_BITS = 1e-3  # residual bits considered "transferred"


class Flow:
    """One fluid flow.

    ``cap`` is ``None`` for elastic flows; cross traffic sets a demand cap.
    ``persistent`` flows never complete (competition sources).
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "links",
        "size_bits",
        "remaining_bits",
        "rate",
        "cap",
        "persistent",
        "priority",
        "done",
        "started_at",
        "_last_advance",
    )

    def __init__(
        self,
        fid: str,
        src: str,
        dst: str,
        links: List[Link],
        size_bits: float,
        done: Optional[Event],
        cap: Optional[float] = None,
        persistent: bool = False,
        priority: bool = False,
        now: float = 0.0,
    ):
        self.fid = fid
        self.src = src
        self.dst = dst
        self.links = links
        self.size_bits = float(size_bits)
        self.remaining_bits = float(size_bits)
        self.rate = 0.0
        self.cap = cap
        self.persistent = persistent
        self.priority = priority
        self.done = done
        self.started_at = now
        self._last_advance = now

    def advance(self, now: float) -> None:
        """Account for bits moved since the last advance at current rate."""
        dt = now - self._last_advance
        if dt > 0 and not self.persistent:
            self.remaining_bits = max(0.0, self.remaining_bits - dt * self.rate)
        self._last_advance = now

    @property
    def finished(self) -> bool:
        return not self.persistent and self.remaining_bits <= _EPS_BITS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "xtraffic" if self.persistent else "xfer"
        return (
            f"<Flow {self.fid} {kind} {self.src}->{self.dst} "
            f"rate={self.rate:.0f}bps remaining={self.remaining_bits:.0f}b>"
        )


def _waterfill(flows: Sequence[Flow]) -> List[float]:
    """Two-tier allocation: priority demands first, then max-min fill.

    Returns each flow's rate, in the order given (which matters only to
    the priority tier).  Links are numbered in first-use order; each keeps
    an integer count of the unfrozen elastic flows crossing it.
    """
    slot: Dict[int, int] = {}  # Link.index -> position in the lists below
    residual: List[float] = []
    count: List[int] = []
    paths: List[List[int]] = []
    rates = [0.0] * len(flows)
    elastic: List[int] = []
    for i, f in enumerate(flows):
        path = []
        for link in f.links:
            j = slot.get(link.index)
            if j is None:
                j = slot[link.index] = len(residual)
                residual.append(link.capacity)
                count.append(0)
            path.append(j)
        paths.append(path)
        if not f.priority:
            elastic.append(i)
            for j in path:
                count[j] += 1
            continue
        # Tier 1: unresponsive competition takes its demand up front.
        take = min(
            f.cap if f.cap is not None else math.inf,
            min([residual[j] for j in path]),
        )
        take = max(0.0, take)
        rates[i] = take
        for j in path:
            residual[j] -= take

    # Tier 2: progressive filling of elastic flows over the residual.
    headroom = {i: flows[i].cap for i in elastic if flows[i].cap is not None}
    live = [j for j, n in enumerate(count) if n]
    unfrozen = elastic
    while unfrozen:
        # Largest uniform increment every unfrozen flow can take.
        inc = math.inf
        for j in live:
            share = residual[j] / count[j]
            if share < inc:
                inc = share
        for h in headroom.values():
            if h < inc:
                inc = h
        if not math.isfinite(inc):
            break  # unconstrained (cannot happen: flows have links)
        if inc > _EPS_BW:
            for i in unfrozen:
                rates[i] += inc
            for i in headroom:
                headroom[i] -= inc
            for j in live:
                residual[j] -= inc * count[j]

        # Freeze exactly the flows whose constraint binds (a saturated
        # link or exhausted cap) and keep filling the others — a flow
        # pinned at zero must not stall its peers.
        full = {j for j in live if residual[j] <= _EPS_BW}
        frozen = {i for i in unfrozen if not full.isdisjoint(paths[i])}
        frozen.update(i for i, h in headroom.items() if h <= _EPS_BW)
        if not frozen:
            break  # numerically stuck; accept current allocation
        for i in frozen:
            headroom.pop(i, None)
            for j in paths[i]:
                count[j] -= 1
        unfrozen = [i for i in unfrozen if i not in frozen]
        live = [j for j in live if count[j]]
    return rates


class FlowNetwork:
    """Manages flows over a topology and keeps allocations max-min fair.

    Each re-solve opens an epoch whose projected completions hold tie-break
    numbers reserved at solve time; only the earliest sits in the simulator.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        local_bps: float = 1e9,
    ):
        self.sim = sim
        self.topology = topology
        self.routing = RoutingTable(topology)
        self.local_bps = float(local_bps)  # co-located endpoints (same machine)
        self._flows: Dict[str, Flow] = {}
        self._xtraffic: Dict[str, Flow] = {}  # name -> persistent flow
        self._ids = IdGenerator()
        self._epoch = 0
        self._due: List[Tuple[float, int, str]] = []  # this epoch's completions
        self._loads: Optional[Dict[int, float]] = None  # Link.index -> bits/s
        self.completed_transfers = 0
        self.total_bits_delivered = 0.0

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Start moving ``nbytes`` from ``src`` to ``dst``.

        Returns an event that succeeds (value = the Flow) on completion.
        Co-located endpoints use a fast local channel instead of the net.
        """
        return self.start_transfer(src, dst, nbytes)[0]

    def start_transfer(
        self, src: str, dst: str, nbytes: float
    ) -> Tuple[Event, Optional[Flow]]:
        """Like :meth:`transfer` but also returns the Flow handle.

        The handle supports :meth:`cancel` (used when a moved client's
        pending responses are purged); it is None for co-located endpoints
        and zero-byte transfers, which cannot be cancelled.
        """
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        done = Event(self.sim)
        links = self.routing.links_on_path(src, dst)
        fid = self._ids.next("flow")
        flow = Flow(fid, src, dst, links, nbytes * 8.0, done, now=self.sim.now)
        if not links:
            # Same machine: constant local bandwidth, not part of fair sharing.
            flow.rate = self.local_bps
            delay = flow.remaining_bits / self.local_bps if nbytes else 0.0
            self.sim.schedule(delay, self._complete_local, flow)
            return done, None
        if nbytes == 0:
            self.sim.schedule(0.0, self._complete, flow)
            return done, None
        self._flows[fid] = flow
        self.recompute()
        return done, flow

    def cancel(self, flow: Flow) -> bool:
        """Abort an in-flight transfer; its done-event fails.

        Returns False if the flow already completed or was cancelled.
        """
        if self._flows.pop(flow.fid, None) is None:
            return False
        self._loads = None
        if flow.done is not None and not flow.done.triggered:
            flow.done.fail(NetworkError(f"transfer {flow.fid} cancelled"))
        self.recompute()
        return True

    def _complete_local(self, flow: Flow) -> None:
        flow.remaining_bits = 0.0
        self._finish(flow)

    def _complete(self, flow: Flow) -> None:
        self._flows.pop(flow.fid, None)
        self._loads = None
        self._finish(flow)
        self.recompute()

    def _finish(self, flow: Flow) -> None:
        self.completed_transfers += 1
        if not flow.persistent and math.isfinite(flow.size_bits):
            self.total_bits_delivered += flow.size_bits
        if flow.done is not None and not flow.done.triggered:
            flow.done.succeed(flow)

    # ------------------------------------------------------------------
    # Cross traffic (competition)
    # ------------------------------------------------------------------
    def set_cross_traffic(self, name: str, src: str, dst: str, rate_bps: float) -> None:
        """Create/update a persistent competing flow demanding ``rate_bps``.

        A rate of 0 removes the competitor.  Competition is *unresponsive*
        (priority tier): it takes its full demand before elastic application
        flows share what remains — matching the paper's competition program,
        which could drive residual path bandwidth down to ~10 Kbps.
        """
        if rate_bps < 0:
            raise NetworkError(f"negative cross-traffic rate {rate_bps}")
        existing = self._xtraffic.get(name)
        if rate_bps == 0:
            if existing is not None:
                del self._xtraffic[name]
                self._flows.pop(existing.fid, None)
                self.recompute()
            return
        if existing is not None:
            if existing.src != src or existing.dst != dst:
                raise NetworkError(
                    f"cross-traffic {name!r} endpoints changed; remove it first"
                )
            existing.cap = float(rate_bps)
        else:
            links = self.routing.links_on_path(src, dst)
            if not links:
                raise NetworkError("cross traffic requires distinct endpoints")
            fid = self._ids.next("xtraffic")
            flow = Flow(
                fid,
                src,
                dst,
                links,
                math.inf,
                None,
                cap=float(rate_bps),
                persistent=True,
                priority=True,
                now=self.sim.now,
            )
            self._flows[fid] = flow
            self._xtraffic[name] = flow
        self.recompute()

    def cross_traffic_rate(self, name: str) -> float:
        flow = self._xtraffic.get(name)
        return flow.cap if flow is not None else 0.0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Re-solve the max-min allocation and reschedule completions."""
        now = self.sim.now
        finished: List[Flow] = []
        for flow in self._flows.values():
            flow.advance(now)
            if flow.finished:
                finished.append(flow)
        for flow in finished:
            self._flows.pop(flow.fid, None)
        order = self.flows
        for flow, rate in zip(order, _waterfill(order)):
            flow.rate = rate
        self._loads = None
        self._epoch += 1
        epoch = self._epoch
        due = [f for f in self._flows.values() if not f.persistent and f.rate > _EPS_BW]
        seqs = enumerate(due, self.sim.reserve_seq(len(due)))
        self._due = [(now + f.remaining_bits / f.rate, seq, f.fid) for seq, f in seqs]
        heapq.heapify(self._due)
        # Fire completions after rates settle (callbacks may add new flows).
        for flow in finished:
            self._finish(flow)
        if epoch == self._epoch:  # no callback re-solved
            self._queue_next(epoch)

    def _queue_next(self, epoch: int) -> None:
        """Queue this epoch's earliest projected completion, if any."""
        if self._due:
            time, seq, _ = self._due[0]
            self.sim.schedule_reserved(time, seq, self._maybe_complete, epoch)

    def _maybe_complete(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # allocation changed since this completion was projected
        _, _, fid = heapq.heappop(self._due)
        flow = self._flows.get(fid)
        if flow is not None:
            now = self.sim.now
            flow.advance(now)
            if flow.finished or flow.rate <= _EPS_BW:
                self._complete(flow)
                return
            # float drift: the residual sliver is a new completion, numbered now
            eta = now + flow.remaining_bits / flow.rate
            heapq.heappush(self._due, (eta, self.sim.reserve_seq(1), fid))
        self._queue_next(epoch)

    # ------------------------------------------------------------------
    # Measurement (ground truth for Remos and the figures)
    # ------------------------------------------------------------------
    @property
    def flows(self) -> List[Flow]:
        return [self._flows[k] for k in sorted(self._flows)]

    @property
    def active_transfers(self) -> List[Flow]:
        return [f for f in self.flows if not f.persistent]

    def _load_table(self) -> Dict[int, float]:
        """Per-link sum of current rates, in flow insertion order.

        Summed with ``sum`` over each link's rates, as the per-call scan it
        replaces did: from Python 3.12 ``sum`` compensates float rounding,
        so a running ``+=`` would not give the same bits there.
        """
        if self._loads is None:
            rates: Dict[int, List[float]] = {}
            for f in self._flows.values():
                for link in f.links:
                    rates.setdefault(link.index, []).append(f.rate)
            self._loads = {index: sum(r) for index, r in rates.items()}
        return self._loads

    def link_load(self, a: str, b: str) -> float:
        """Sum of current flow rates crossing link (a, b), bits/s."""
        return self._load_table().get(self.topology.link(a, b).index, 0.0)

    def link_utilization(self, a: str, b: str) -> float:
        link = self.topology.link(a, b)
        return self._load_table().get(link.index, 0.0) / link.capacity

    def residual_bandwidth(self, src: str, dst: str) -> float:
        """Unused capacity along the path (min over links)."""
        links = self.routing.links_on_path(src, dst)
        if not links:
            return self.local_bps
        loads = self._load_table()
        return max(
            0.0,
            min(link.capacity - loads.get(link.index, 0.0) for link in links),
        )

    def predicted_bandwidth(self, src: str, dst: str) -> float:
        """Rate a *new* elastic flow would receive (hypothetical max-min).

        This is Remos's "predicted bandwidth" semantics: it accounts both
        for idle capacity and for the fair share a newcomer would squeeze
        out of existing elastic flows — never zero on a live path.
        """
        links = self.routing.links_on_path(src, dst)
        if not links:
            return self.local_bps
        probe = Flow("__probe__", src, dst, links, math.inf, None, persistent=True)
        # "__probe__" sorts before every generated "flow-N"/"xtraffic-N" id.
        return _waterfill([probe] + self.flows)[0]
