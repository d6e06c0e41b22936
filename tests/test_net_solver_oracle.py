"""The production max-min solver against the reference oracle, bit for bit.

``tests/maxmin_oracle.py`` holds the original dictionary-based solver and
link-load scan.  Every rate, link load and predicted bandwidth of
``repro.net.flows`` must equal the oracle's exactly (``==``, never
``approx``): the pinned run digests depend on every last bit.

Cases mix priority flows whose demand may exceed a link (zero-residual
links, elastic flows pinned at 0), elastic flows with and without caps
(a cap of 0 pins a flow too), and tree topologies whose inner links are
shared bottlenecks, with capacities drawn partly from a small set so that
ties are common.
"""

from hypothesis import given, settings, strategies as st
from maxmin_oracle import OracleNetwork

from repro.net import Flow, FlowNetwork, Topology
from repro.net.flows import _waterfill
from repro.sim import Simulator

CAPACITIES = st.one_of(
    st.sampled_from([1e6, 2e6, 5e6, 1e7]),
    st.floats(min_value=1e5, max_value=1e8),
)
DEMANDS = st.one_of(
    st.floats(min_value=1e5, max_value=1e8),
    st.sampled_from([0.0, 1e6, 1e9]),
)


@st.composite
def trees(draw):
    """Routers in a random tree, hosts hanging off random routers."""
    n_routers = draw(st.integers(min_value=1, max_value=4))
    n_hosts = draw(st.integers(min_value=2, max_value=6))
    topology = Topology()
    for r in range(n_routers):
        topology.add_router(f"r{r}")
        if r:
            parent = draw(st.integers(min_value=0, max_value=r - 1))
            topology.add_link(f"r{r}", f"r{parent}", draw(CAPACITIES))
    for h in range(n_hosts):
        topology.add_host(f"h{h}")
        router = draw(st.integers(min_value=0, max_value=n_routers - 1))
        topology.add_link(f"h{h}", f"r{router}", draw(CAPACITIES))
    return topology


@st.composite
def flow_specs(draw, n_hosts):
    """(src, dst, kind, demand) with kind elastic, capped or priority."""
    src = draw(st.integers(min_value=0, max_value=n_hosts - 1))
    dst = draw(st.integers(min_value=0, max_value=n_hosts - 2))
    dst += dst >= src  # any host but src
    kind = draw(st.sampled_from(["elastic", "capped", "priority"]))
    return f"h{src}", f"h{dst}", kind, draw(DEMANDS)


@st.composite
def cases(draw):
    topology = draw(trees())
    n_hosts = len(topology.hosts)
    specs = draw(st.lists(flow_specs(n_hosts), min_size=1, max_size=12))
    return topology, specs


def oracle_for(topology, flows):
    """An oracle holding copies of ``flows`` (same ids, order and links)."""
    copies = [
        Flow(
            f.fid,
            f.src,
            f.dst,
            f.links,
            f.size_bits,
            None,
            cap=f.cap,
            persistent=f.persistent,
            priority=f.priority,
        )
        for f in flows
    ]
    oracle = OracleNetwork(topology, copies)
    oracle._waterfill()
    return oracle


@settings(max_examples=200, deadline=None)
@given(cases())
def test_waterfill_rates_equal_the_oracle(case):
    topology, specs = case
    net = FlowNetwork(Simulator(), topology)
    flows = []
    for k, (src, dst, kind, demand) in enumerate(specs):
        priority = kind == "priority"
        flows.append(
            Flow(
                f"flow-{k + 1}",
                src,
                dst,
                net.routing.links_on_path(src, dst),
                1e9,
                None,
                cap=None if kind == "elastic" else demand,
                persistent=priority,
                priority=priority,
            )
        )
    flows.sort(key=lambda f: f.fid)  # the solve order FlowNetwork uses
    oracle = oracle_for(topology, flows)
    rates = dict(zip([f.fid for f in flows], _waterfill(flows)))
    assert rates == {fid: f.rate for fid, f in oracle._flows.items()}


@settings(max_examples=100, deadline=None)
@given(cases(), st.floats(min_value=0.0, max_value=5.0))
def test_live_network_matches_the_oracle(case, run_for):
    """Rates, loads and predictions of a network mid-run, after completions."""
    topology, specs = case
    sim = Simulator()
    net = FlowNetwork(sim, topology)
    for k, (src, dst, kind, demand) in enumerate(specs):
        if kind == "priority":
            net.set_cross_traffic(f"comp{k}", src, dst, demand)
            continue
        _, flow = net.start_transfer(src, dst, nbytes=1e3 + demand)
        if kind == "capped":
            flow.cap = demand
    net.recompute()  # the caps set above take effect
    sim.run(until=run_for)

    live = list(net._flows.values())  # insertion order: link loads sum in it
    oracle = oracle_for(topology, live)
    assert {f.fid: f.rate for f in live} == {
        fid: f.rate for fid, f in oracle._flows.items()
    }
    for link in topology.links:
        assert net.link_load(link.a, link.b) == oracle.link_load(link.a, link.b)
    hosts = [h.name for h in topology.hosts]
    for src in hosts:
        for dst in hosts:
            expected = oracle.predicted_bandwidth(src, dst)
            assert net.predicted_bandwidth(src, dst) == expected


def test_link_loads_sum_in_flow_insertion_order():
    """0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3 in binary floating point."""
    topology = Topology()
    for host in ("a", "b"):
        topology.add_host(host)
    topology.add_link("a", "b", 1e6)
    net = FlowNetwork(Simulator(), topology)
    for name, demand in [("x", 0.3), ("y", 0.2), ("z", 0.1)]:
        net.set_cross_traffic(name, "a", "b", demand)
    oracle = oracle_for(topology, list(net._flows.values()))
    assert net.link_load("a", "b") == oracle.link_load("a", "b") == 0.3 + 0.2 + 0.1
    assert net.link_load("a", "b") != 0.1 + 0.2 + 0.3
