"""Reference max-min solver: the test oracle for ``repro.net.flows``.

This is the original, dictionary-based two-tier solver and link-load
scan, kept verbatim as methods of a small stand-in for ``FlowNetwork``.
The production solver in ``repro.net.flows`` must produce exactly
(``==``, not approximately) the same rates, link loads and predicted
bandwidths; ``tests/test_net_solver_oracle.py`` checks that.

It lives under ``tests/`` on purpose: nothing in ``src/`` may import it.
Its methods mutate ``Flow.rate`` in place, so give it its own ``Flow``
objects, never a live network's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.net.flows import Flow
from repro.net.routing import RoutingTable
from repro.net.topology import Topology

_EPS_BW = 1e-9  # bits/s below which a share is considered zero


class OracleNetwork:
    """The solver state of a ``FlowNetwork``: a topology and a flow dict."""

    def __init__(self, topology: Topology, flows: List[Flow]):
        self.topology = topology
        self.routing = RoutingTable(topology)
        self.local_bps = 1e9
        self._flows: Dict[str, Flow] = {f.fid: f for f in flows}

    def _waterfill(self) -> None:
        """Two-tier allocation: priority demands first, then max-min fill."""
        flows = [self._flows[k] for k in sorted(self._flows)]
        if not flows:
            return
        residual: Dict[Tuple[str, str], float] = {}
        on_link: Dict[Tuple[str, str], List[Flow]] = {}
        for f in flows:
            f.rate = 0.0
            for link in f.links:
                residual.setdefault(link.key, link.capacity)
                on_link.setdefault(link.key, []).append(f)

        # Tier 1: unresponsive competition takes its demand up front.
        elastic: List[Flow] = []
        for f in flows:
            if not f.priority:
                elastic.append(f)
                continue
            take = min(
                f.cap if f.cap is not None else math.inf,
                min(residual[link.key] for link in f.links),
            )
            take = max(0.0, take)
            f.rate = take
            for link in f.links:
                residual[link.key] -= take

        # Tier 2: progressive filling of elastic flows over the residual.
        unfrozen = {f.fid: f for f in elastic}
        headroom = {f.fid: (f.cap if f.cap is not None else math.inf) for f in elastic}

        while unfrozen:
            # Largest uniform increment every unfrozen flow can take.
            inc = math.inf
            for key, members in on_link.items():
                n = sum(1 for m in members if m.fid in unfrozen)
                if n:
                    inc = min(inc, residual[key] / n)
            for fid in unfrozen:
                inc = min(inc, headroom[fid])
            if not math.isfinite(inc):
                break  # unconstrained (cannot happen: flows have links)
            if inc > _EPS_BW:
                for fid, f in unfrozen.items():
                    f.rate += inc
                    headroom[fid] -= inc
                for key, members in on_link.items():
                    n = sum(1 for m in members if m.fid in unfrozen)
                    residual[key] -= inc * n

            # Freeze exactly the flows whose constraint binds (a saturated
            # link or exhausted cap) and keep filling the others — a flow
            # pinned at zero must not stall its peers.
            frozen_now: List[str] = []
            for key, members in on_link.items():
                if residual[key] <= _EPS_BW:
                    frozen_now.extend(m.fid for m in members if m.fid in unfrozen)
            for fid in list(unfrozen):
                if headroom[fid] <= _EPS_BW:
                    frozen_now.append(fid)
            if not frozen_now:
                break  # numerically stuck; accept current allocation
            for fid in frozen_now:
                unfrozen.pop(fid, None)

    def link_load(self, a: str, b: str) -> float:
        """Sum of current flow rates crossing link (a, b), bits/s."""
        link = self.topology.link(a, b)
        return sum(f.rate for f in self._flows.values() if link in f.links)

    def predicted_bandwidth(self, src: str, dst: str) -> float:
        """Rate a *new* elastic flow would receive (hypothetical max-min)."""
        links = self.routing.links_on_path(src, dst)
        if not links:
            return self.local_bps
        probe = Flow("__probe__", src, dst, links, math.inf, None, persistent=True)
        saved_rates = {f.fid: f.rate for f in self._flows.values()}
        self._flows[probe.fid] = probe
        try:
            self._waterfill()
            return probe.rate
        finally:
            del self._flows[probe.fid]
            for fid, r in saved_rates.items():
                if fid in self._flows:
                    self._flows[fid].rate = r
