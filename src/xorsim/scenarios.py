"""Built-in example scenarios and the seeded random-scenario generator.

The fixed fixtures are small layouts where the coding behavior is fully
predictable, used as regression anchors:

* chain_scenario: A - C - E with one packet each way; a coding relay needs
  3 transmissions for the exchange, a plain relay needs 4.
* cross_scenario: four edge nodes around one relay, two crossing flows whose
  destinations overhear the opposite source; again 3 vs 4 transmissions.
* junction_scenario: two 3-hop routes sharing one junction relay. The
  destinations are multiple hops from the junction, so only holder-set
  discovery codes there; the two-hop baseline finds nothing.
* long_chain_scenario: two 7-hop flows running a 9-node line in opposite
  directions; coding happens mid-chain, far from both destinations.

Flow start times line the packets up so both reach the shared relay in the
same processing batch.
"""

from __future__ import annotations

import math
import random

from .coding import Scheme
from .simulator import (
    DEFAULT_CHANNEL_RATE,
    DEFAULT_DURATION,
    DEFAULT_PACKET_SIZE,
    FlowSpec,
    Scenario,
    ScenarioInvalidError,
)
from .topology import Topology, build_topology, random_layout
from .topology import shortest_path  # noqa: F401  bench/worker.py wraps scenarios.shortest_path

# the standard field: node count, square side (m) and radio range (m)
DEFAULT_NODES = 16
DEFAULT_SIDE = 800.0
DEFAULT_RANGE = 200.0


def tx_time(size_bytes: int = DEFAULT_PACKET_SIZE, rate_bps: float = DEFAULT_CHANNEL_RATE) -> float:
    """Serialization delay of one payload, the fixtures' scheduling unit."""
    return 8.0 * size_bytes / rate_bps


def _single_packet_flow(flow: int, src: int, dst: int, start: float = 0.0) -> FlowSpec:
    return FlowSpec(flow=flow, src=src, dst=dst, rate=1.0, start=start, stop=start + 0.5)


def chain_scenario(scheme: Scheme, seed: int = 0) -> Scenario:
    """Three nodes in a line, one packet each way through the middle."""
    topo = build_topology([(240.0, 400.0), (400.0, 400.0), (560.0, 400.0)], 200.0)
    flows = (
        _single_packet_flow(0, 0, 2),
        _single_packet_flow(1, 2, 0),
    )
    return Scenario(topo, flows, scheme, duration=1.0, seed=seed)


def cross_scenario(scheme: Scheme, seed: int = 0) -> Scenario:
    """Two flows crossing at a central relay; each destination sits next to
    the opposite source and overhears it."""
    positions = [
        (240.0, 460.0),  # 0: source of flow 0
        (240.0, 340.0),  # 1: destination of flow 1
        (400.0, 400.0),  # 2: relay
        (560.0, 460.0),  # 3: source of flow 1
        (560.0, 340.0),  # 4: destination of flow 0
    ]
    topo = build_topology(positions, 200.0)
    flows = (
        _single_packet_flow(0, 0, 4),
        _single_packet_flow(1, 3, 1),
    )
    return Scenario(topo, flows, scheme, duration=1.0, seed=seed)


def junction_scenario(scheme: Scheme, seed: int = 0) -> Scenario:
    """Seven nodes: a 5-ring with two pendants, carrying two 3-hop flows that
    share only the junction node 2. Node ids: 0,1 pendants; 2 junction;
    3..6 ring. Flow 0 runs 0->2->4->6, flow 1 runs 5->3->2->1."""
    positions = [
        (400.0, 600.0),  # 0
        (560.0, 560.0),  # 1
        (400.0, 445.0),  # 2
        (538.0, 345.0),  # 3
        (262.0, 345.0),  # 4
        (485.0, 183.0),  # 5
        (315.0, 183.0),  # 6
    ]
    topo = build_topology(positions, 200.0)
    step = tx_time()
    flows = (
        # flow 1 needs two hops to reach the junction, flow 0 one: stagger
        # the second source so both packets arrive there together
        _single_packet_flow(0, 0, 6, start=step),
        _single_packet_flow(1, 5, 1, start=0.0),
    )
    return Scenario(topo, flows, scheme, duration=1.0, seed=seed)


def long_chain_scenario(scheme: Scheme, seed: int = 0) -> Scenario:
    """Nine nodes in a line; two 7-hop flows run it in opposite directions
    and cross at the middle relay, far away from either destination."""
    positions = [(100.0 + 150.0 * i, 400.0) for i in range(9)]
    topo = build_topology(positions, 200.0)
    flows = (
        _single_packet_flow(0, 1, 8),
        _single_packet_flow(1, 7, 0),
    )
    return Scenario(topo, flows, scheme, duration=1.0, seed=seed)


FIXTURES = {
    "chain": chain_scenario,
    "cross": cross_scenario,
    "junction": junction_scenario,
    "long-chain": long_chain_scenario,
}


def random_scenario(
    scheme: Scheme,
    seed: int,
    n_flows: int,
    rate: float,
    *,
    duration: float = DEFAULT_DURATION,
    capture_trace: bool = True,
) -> Scenario:
    """The standard field laid out from seed, with seeded random routable
    flow endpoints."""
    topo = build_topology(random_layout(DEFAULT_NODES, DEFAULT_SIDE, seed), DEFAULT_RANGE)
    return Scenario(
        topo,
        random_flows(topo, n_flows, rate, DEFAULT_PACKET_SIZE, seed),
        scheme,
        duration=duration,
        seed=seed,
        capture_trace=capture_trace,
    )


def random_flows(
    topo: Topology, n_flows: int, rate: float, packet_size: int, seed: int
) -> tuple[FlowSpec, ...]:
    """n_flows constant-rate flows between seeded random routable endpoints.
    The topology's one BFS table per destination answers every routability
    test, and routing the flows later reuses it."""
    if n_flows and topo.n < 2:
        raise ScenarioInvalidError(f"seed {seed}: a flow needs 2 nodes, the layout has {topo.n}")
    rng = random.Random(f"flows:{seed}")
    flows = []
    for i in range(n_flows):
        for _attempt in range(500):
            src = rng.randrange(topo.n)
            dst = rng.randrange(topo.n)
            if src == dst:
                continue
            if topo.distances_to(dst)[src] == math.inf:
                continue
            flows.append(FlowSpec(flow=i, src=src, dst=dst, rate=rate, packet_size=packet_size))
            break
        else:
            raise ScenarioInvalidError(
                f"seed {seed}: could not sample a routable flow in this layout"
            )
    return tuple(flows)
