import functools
import gc
import hashlib
import math
import os
import pickle
import random
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st, target

from xorsim import node as node_module, simulator
from xorsim.coding import Scheme
from xorsim.metrics import finalize
from xorsim.node import Node
from xorsim.packet import EncodedPacket, NativePacket, PacketUid, holder_overhead_bytes, xor_decode, xor_encode
from xorsim.scenarios import (
    DEFAULT_NODES,
    DEFAULT_RANGE,
    DEFAULT_SIDE,
    FIXTURES,
    chain_scenario,
    cross_scenario,
    junction_scenario,
    long_chain_scenario,
    random_flows,
    random_scenario,
)
from xorsim.simulator import (
    FlowSpec,
    Scenario,
    ScenarioInvalidError,
    Simulation,
    TraceLog,
    audit,
    audit_conservation,
    fifo_violations,
    payload_bytes,
    run,
    validate_scenario,
)
from xorsim.topology import NoRouteError, build_topology, hop_distances, random_layout, shortest_path

TX = 0.002048  # seconds to serialize 512 bytes at 2 Mb/s

ALL_SCHEMES = (Scheme.EXCODE, Scheme.COPE, Scheme.NON_CODING)

# regression anchors: (total transmissions, encodes) per fixture and scheme
FIXTURE_COUNTS = {
    "chain": {Scheme.EXCODE: (3, 1), Scheme.COPE: (3, 1), Scheme.NON_CODING: (4, 0)},
    "cross": {Scheme.EXCODE: (3, 1), Scheme.COPE: (3, 1), Scheme.NON_CODING: (4, 0)},
    "junction": {Scheme.EXCODE: (5, 1), Scheme.COPE: (6, 0), Scheme.NON_CODING: (6, 0)},
    "long-chain": {Scheme.EXCODE: (13, 1), Scheme.COPE: (14, 0), Scheme.NON_CODING: (14, 0)},
}


@pytest.mark.parametrize("name", sorted(FIXTURE_COUNTS))
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_fixture_counts_and_payload_fidelity(name, scheme):
    sim = run(FIXTURES[name](scheme))
    expect_tx, expect_encodes = FIXTURE_COUNTS[name][scheme]
    assert sim.total_tx == expect_tx
    assert sim.encode_count == expect_encodes
    assert set(sim.delivered) == set(sim.generated)
    assert audit(sim) == []


def test_chain_delivery_times_are_exact():
    sim = run(chain_scenario(Scheme.EXCODE))
    times = sorted(t for t, _ in sim.delivered.values())
    assert times == [2 * TX, 2 * TX]
    sim = run(chain_scenario(Scheme.NON_CODING))
    times = sorted(t for t, _ in sim.delivered.values())
    assert times == [2 * TX, 3 * TX]


def payload_native(size):
    return NativePacket(
        uid=PacketUid(0, 0),
        dst=2,
        route=(0, 1, 2),
        hop_index=0,
        holders=frozenset({0, 1, 2}),
        payload=b"\x00" * size,
        created_at=0.0,
    )


def airtime_of(scenario, packet):
    """The airtime node 0 gives packet, sent on its own at time 0, and the
    packet as it goes on air."""
    sim = Simulation(scenario)
    sim.nodes[0].output_queue.append(packet)
    sim._on_wake(0, 0.0)
    tx = sim.nodes[0].transmitting
    return tx.end, tx.packet


def test_tx_duration_is_serialization_time():
    assert airtime_of(chain_scenario(Scheme.EXCODE), payload_native(size=512))[0] == TX
    assert airtime_of(chain_scenario(Scheme.EXCODE), payload_native(size=1))[0] == 8.0 / 2_000_000.0


def test_holder_bytes_lengthen_transmissions_only_when_counted():
    base = chain_scenario(Scheme.EXCODE)
    native = payload_native(size=512)
    assert airtime_of(base, native)[0] == TX
    counted, sent = airtime_of(replace(base, count_header_overhead=True), native)
    assert len(sent.holders) == 2 and holder_overhead_bytes(sent) == 8
    assert counted == 8.0 * (512 + 8) / 2_000_000.0
    # the knob only means something for the scheme that ships holder lists
    assert airtime_of(replace(chain_scenario(Scheme.COPE), count_header_overhead=True), native)[0] == TX


def test_generation_schedule_counts():
    topo = build_topology([(0.0, 0.0), (150.0, 0.0)], 200.0)
    scn = Scenario(topo, (FlowSpec(0, 0, 1, rate=10.0),), Scheme.NON_CODING, duration=1.0)
    assert len(run(scn).generated) == 10
    windowed = Scenario(
        topo,
        (FlowSpec(0, 0, 1, rate=10.0, start=0.05, stop=0.5),),
        Scheme.NON_CODING,
        duration=1.0,
    )
    assert len(run(windowed).generated) == 5


def test_same_time_generations_run_first_in_flow_order():
    # at t = TX a tx_end ties with three generations: the second packet of
    # the first flow and the first packets of two flows listed out of id order
    topo = build_topology([(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)], 200.0)
    flows = (
        FlowSpec(7, 0, 1, rate=1 / TX, stop=1.5 * TX),
        FlowSpec(2, 2, 1, rate=1.0, start=TX, stop=0.5),
        FlowSpec(4, 1, 2, rate=1.0, start=TX, stop=0.5),
    )
    assert 0.0 + 1 / flows[0].rate == TX
    sim = run(Scenario(topo, flows, Scheme.NON_CODING, duration=1.0))
    at_tx = [line.split(",")[2:4] for line in sim.trace_log if float(line.split(",")[0]) == TX]
    assert at_tx[:4] == [["gen", "7.1"], ["gen", "2.0"], ["gen", "4.0"], ["tx_end", "7.0"]]


def test_every_other_neighbor_overhears_a_transmission():
    sim = run(random_scenario(Scheme.EXCODE, seed=2, n_flows=4, rate=150.0, duration=0.5))
    lines = [line.split(",") for line in sim.trace_log]
    addressed = {}
    mixes = 0
    for i, (_, node, event, uid, detail) in enumerate(lines):
        if event == "tx_start":
            addressed[node] = {int(n) for n in detail.removeprefix("to=").split("|")}
        elif event == "tx_end":
            # the overhearers log right after the tx_end, before any wake
            heard = set()
            for _, other, kind, _, _ in lines[i + 1:]:
                if kind not in ("overhear", "early_decode", "dup_discard"):
                    break
                heard.add(int(other))
            assert heard == set(sim.nodes[int(node)].neighbors) - addressed[node], lines[i]
            mixes += "^" in uid
    assert mixes > 0


class AddressedOnce(Simulation):
    """Fails at once, naming the node and the key, where a node is addressed
    a key a second time or a native goes into a second mix. At each mix
    send it also checks the invariant that lets a mix's header hold only
    each native's uid and next hop: the send addresses the next hops of the
    branches the sender carries, and a branch it does not carry has neither
    the sender nor an addressed node as custodian."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.addressed = set()  # (node, key) of every addressed arrival
        self.mixed_into = {}  # uid -> the mix it went into
        for node in self.nodes:
            node.on_send = functools.partial(self._checked_send, node)

    def _checked_send(self, node, now, sim):
        mix = node.output_queue[0] if node.output_queue else None
        tx = Node.on_send(node, now, sim)
        if isinstance(mix, EncodedPacket):
            carried = mix.carried(node.id)
            next_hops = tuple(sorted({h.route[h.hop_index + 1] for h in carried}))
            left = [h for h in mix.constituents if h not in carried]
            where = f"node {node.id} sends {mix} to {tx.addressed}"
            assert carried and tx.addressed == next_hops, where
            assert all(h.custodian not in (node.id, *tx.addressed) for h in left), where
        return tx

    def _arrive(self, node, packet, now):
        assert (node.id, packet.key) not in self.addressed, f"node {node.id} is addressed {packet} twice"
        self.addressed.add((node.id, packet.key))
        super()._arrive(node, packet, now)

    def trace(self, now, node, event, packet, detail=""):
        if event == "encode":
            for uid in packet.key:
                assert uid not in self.mixed_into, f"node {node} mixes {uid} again, into {packet}"
                self.mixed_into[uid] = packet
        super().trace(now, node, event, packet, detail)


# nodes keep no addressed-duplicate filter: this is the precondition that
# makes one needless. It scales with the profile's max_examples, as the
# config fuzzers of test_cli.py do, and steers toward cells that mix more
@settings(max_examples=settings.default.max_examples, deadline=None)
@given(
    scheme=st.sampled_from((Scheme.EXCODE, Scheme.COPE)),
    line=st.booleans(),
    n=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    n_flows=st.integers(1, 8),
    rate=st.floats(20.0, 400.0),
    packet_size=st.sampled_from((64, 512)),
    channel_rate=st.sampled_from((2e6, 11e6, 1e30)),
)
@example(scheme=Scheme.EXCODE, line=False, n=DEFAULT_NODES, seed=1, n_flows=8, rate=200.0, packet_size=512,
         channel_rate=2e6)
def test_no_node_is_addressed_a_key_twice(scheme, line, n, seed, n_flows, rate, packet_size, channel_rate):
    positions = [(150.0 * i, 0.0) for i in range(n)] if line else random_layout(n, 150.0 * math.sqrt(n), seed)
    topo = build_topology(positions, DEFAULT_RANGE)
    try:
        flows = random_flows(topo, n_flows, rate, packet_size, seed)
    except ScenarioInvalidError:  # too few connected pairs to sample from
        assume(False)
    sim = AddressedOnce(Scenario(topo, flows, scheme, duration=0.25, channel_rate=channel_rate, seed=seed,
                                 capture_trace=False)).run()
    assert sim.double_deliveries == 0
    target(float(sim.encode_count), label="encodes")


def test_zero_flow_run_is_empty_but_valid():
    topo = build_topology([(0.0, 0.0), (150.0, 0.0)], 200.0)
    sim = run(Scenario(topo, (), Scheme.EXCODE, duration=1.0))
    assert sim.total_tx == 0
    assert sim.generated == {}
    assert audit_conservation(sim) == []


def test_packet_caught_midair_at_cutoff():
    topo = build_topology([(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)], 200.0)
    flows = (FlowSpec(0, 0, 2, rate=1.0, stop=0.5),)
    cut = Scenario(topo, flows, Scheme.NON_CODING, duration=0.003)
    sim = run(cut)
    assert not sim.delivered
    [sender] = [node for node in sim.nodes if node.transmitting is not None]
    assert sender.id == 1 and str(sender.transmitting.packet) == "0.0"
    assert audit_conservation(sim) == []  # in flight counts as a place
    drained = run(replace(cut, drain_grace=0.01))
    assert set(drained.delivered) == set(drained.generated)
    assert all(node.transmitting is None for node in drained.nodes)


def test_audits_name_planted_faults():
    topo = build_topology([(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)], 200.0)
    flows = (FlowSpec(0, 0, 2, rate=10.0),)
    sim = run(Scenario(topo, flows, Scheme.NON_CODING, duration=0.5, drain_grace=0.1))
    assert audit(sim) == []
    delivered = dict(sim.delivered)
    first, second, *rest = delivered
    assert len(delivered) == len(sim.generated) == 5

    # each fault is planted in a fresh copy of the delivery records
    sim.delivered = dict(delivered)
    del sim.delivered[first]
    assert audit_conservation(sim) == audit(sim) == [f"{first}: found in nowhere"]

    sim.delivered = dict(delivered)
    sim.nodes[1].output_queue.append(delivered[first][1])
    assert audit_conservation(sim) == [f"{first}: found in ['output:1', 'delivered']"]
    sim.nodes[1].output_queue.clear()

    sim.delivered = {uid: delivered[uid] for uid in (second, first, *rest)}
    assert audit_conservation(sim) == []
    assert fifo_violations(sim) == audit(sim) == [f"flow 0: seq {first.seq} delivered after {second.seq}"]

    # deliver stores a record whole only when its bytes differ from those sent
    at, packet = delivered[first]
    sim.delivered = {**delivered, first: (at, packet._replace(payload=b"\x00"))}
    assert audit(sim) == ["1 corrupt deliveries"]

    sim.delivered = dict(delivered)
    sim.decode_failures = 2
    assert audit(sim) == ["2 decode failures"]
    sim.decode_failures = 0

    # a second delivery of a delivered uid is counted, not stored
    sim.deliver(delivered[first][1], 9.0)
    assert sim.delivered == delivered
    assert audit_conservation(sim) == audit(sim) == ["1 duplicate deliveries"]
    sim.double_deliveries = 0

    stray = delivered[first][1]._replace(uid=PacketUid(0, 99))
    sim.nodes[1].input_queue.append(stray)
    assert audit(sim) == [f"{stray.uid}: never generated"]


def test_audits_count_each_branch_of_a_mix_once():
    # the long chain cut while the two copies of its mix make their last
    # hops: each carries its own branch, the other left where they parted
    sim = run(replace(long_chain_scenario(Scheme.EXCODE), duration=0.013))
    assert audit_conservation(sim) == []
    east, west = sim.nodes[7].transmitting, sim.nodes[1].transmitting
    p, q = sorted(sim.generated)  # p runs east to node 8, q west to node 0
    assert (east.addressed, [h.custodian for h in east.packet.constituents]) == ((8,), [8, 3])
    assert (west.addressed, [h.custodian for h in west.packet.constituents]) == ((0,), [5, 0])

    # a frozen branch in a copy is counted nowhere: with its own copy off
    # the air, q has no place
    sim.nodes[1].transmitting = None
    assert audit_conservation(sim) == [f"{q}: found in nowhere"]
    sim.nodes[1].transmitting = west

    # a carried branch that is also delivered is flagged
    sim.delivered[p] = (0.013, sim.generated[p])
    assert audit_conservation(sim) == [f"{p}: found in ['air:7', 'delivered']"]

    # a branch that ended at node n is delivered, so a copy in n's output
    # queue does not count it
    sim.nodes[7].transmitting = None
    sim.nodes[8].output_queue.append(east.packet)
    assert audit_conservation(sim) == []


def probed_run(scenario, monkeypatch):
    """Run scenario while a probe on _on_gen and deliver builds what a plain
    dict of each would hold: every packet as generated, and every first
    delivery as delivered, payloads whole."""
    generated, delivered = {}, {}
    flows = scenario.flows
    on_gen, deliver = Simulation._on_gen, Simulation.deliver

    def probe_gen(self, data, now):
        i, seq = data
        flow = flows[i]
        uid = PacketUid(flow.flow, seq)
        generated[uid] = NativePacket(uid, flow.dst, self.routes[flow.flow], 0, frozenset(),
                                      payload_bytes(scenario.seed, uid, flow.packet_size), now)
        on_gen(self, data, now)

    def probe_deliver(self, packet, now, mix=None):
        delivered.setdefault(packet.uid, (now, packet))
        deliver(self, packet, now, mix)

    with monkeypatch.context() as patched:
        patched.setattr(Simulation, "_on_gen", probe_gen)
        patched.setattr(Simulation, "deliver", probe_deliver)
        sim = run(scenario)
    return sim, generated, delivered


def view_cells():
    for name in sorted(FIXTURES):
        for scheme in ALL_SCHEMES:
            yield FIXTURES[name](scheme)
    for seed in (1, 4):
        for scheme in ALL_SCHEMES:
            # cut off mid-run, so packets are left in flight
            yield random_scenario(scheme, seed=seed, n_flows=6, rate=150.0, duration=0.6, capture_trace=False)


def test_generated_and_delivered_views_match_plain_dicts(monkeypatch):
    in_flight_left = 0
    for scenario in view_cells():
        sim, generated, delivered = probed_run(scenario, monkeypatch)
        position = {f.flow: i for i, f in enumerate(scenario.flows)}
        sizes = {f.flow: f.packet_size for f in scenario.flows}
        # the probe holds the payloads really delivered
        for uid, (_, packet) in delivered.items():
            assert packet.payload == payload_bytes(scenario.seed, uid, sizes[uid.flow])
        # so every packet made, and every delivery, is held with payload b""
        lean_generated = {uid: p._replace(payload=b"") for uid, p in generated.items()}
        lean_delivered = {uid: (at, p._replace(payload=b"")) for uid, (at, p) in delivered.items()}
        # generated: flow by flow, each in seq order; delivered: delivery order
        assert list(sim.generated) == sorted(generated, key=lambda u: (position[u.flow], u.seq))
        assert list(sim.delivered) == list(delivered)
        assert len(sim.generated) == len(generated)
        assert sim.generated == lean_generated  # items() compared
        assert type(sim.delivered) is dict and sim.delivered == lean_delivered
        assert all(uid in sim.generated for uid in generated)
        for flow, count in zip(scenario.flows, sim.generated.counts):
            missing = PacketUid(flow.flow, count)
            assert missing not in sim.generated and missing not in sim.delivered
            with pytest.raises(KeyError):
                sim.generated[missing]
        # any key is answered, as a dict would answer it
        for key in (PacketUid(-1, 0), (0, 0.5), (0, 0, 0), ([], 0), "x", 3, None):
            assert key not in sim.generated
        in_flight_left += len(generated) - len(delivered)
    assert in_flight_left


def test_delivered_packets_hold_little_memory():
    # the benchmark's traced-light cell, capture off: nothing codes, and at
    # the end every packet but those in flight has been delivered. A
    # delivered packet is a lean record, about 340 B; with its payload and
    # its generated record it was about 1,016 B
    scenario = random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=20.0, duration=60.0,
                               capture_trace=False)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim = run(scenario)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(sim.delivered) > 9000
    assert held < 512 * len(sim.delivered), held / len(sim.delivered)


def test_corrupt_decodes_are_flagged_at_every_delivery(monkeypatch):
    # every decode yields flipped bytes: each delivery whose payload differs
    # from the one sent is stored whole, so it reads as differing from the
    # generated packet's payload b"" (bench/worker.check_sim's check) and
    # audit counts it, and no other delivery does
    def corrupt_decode(encoded, known):
        native = xor_decode(encoded, known)
        return native._replace(payload=bytes([native.payload[0] ^ 0xFF]) + native.payload[1:])

    monkeypatch.setattr(node_module, "xor_decode", corrupt_decode)
    for seed in (1, 2):
        scenario = random_scenario(Scheme.EXCODE, seed=seed, n_flows=8, rate=200.0, duration=1.0,
                                   capture_trace=False)
        sim, generated, delivered = probed_run(scenario, monkeypatch)
        bad = {uid for uid, (_, p) in delivered.items() if p.payload != generated[uid].payload}
        flagged = {uid for uid, (_, p) in sim.delivered.items() if p.payload != sim.generated[uid].payload}
        assert bad and flagged == bad
        assert audit(sim) == [f"{len(bad)} corrupt deliveries"]
        for uid in bad:
            assert sim.delivered[uid][1].payload == delivered[uid][1].payload


def test_validation_messages():
    topo = build_topology([(0.0, 0.0), (150.0, 0.0), (900.0, 0.0)], 200.0)
    ok = FlowSpec(0, 0, 1, rate=1.0)

    def bad(match, **overrides):
        flow = replace(ok, **overrides)
        with pytest.raises(ScenarioInvalidError, match=match):
            validate_scenario(Scenario(topo, (flow,), Scheme.EXCODE))

    bad("endpoint out of range", dst=7)
    bad("source equals destination", dst=0)
    bad("rate must be positive", rate=0.0)
    bad("rate must be positive and finite", rate=math.inf)
    bad("packet size", packet_size=0)
    bad("start must be", start=-1.0)
    bad("start must be >= 0 and finite", start=math.nan)
    bad("stop must be finite", stop=math.nan)
    bad("stop precedes start", start=2.0, stop=1.0)
    bad("no route from 0 to 2", dst=2)
    with pytest.raises(ScenarioInvalidError, match="duplicate flow id"):
        validate_scenario(Scenario(topo, (ok, ok), Scheme.EXCODE))
    with pytest.raises(ScenarioInvalidError, match="duration"):
        validate_scenario(Scenario(topo, (ok,), Scheme.EXCODE, duration=0.0))
    with pytest.raises(ScenarioInvalidError, match="duration must be positive and finite"):
        validate_scenario(Scenario(topo, (ok,), Scheme.EXCODE, duration=math.nan))
    with pytest.raises(ScenarioInvalidError, match="channel rate must be positive and finite"):
        validate_scenario(Scenario(topo, (ok,), Scheme.EXCODE, channel_rate=math.inf))
    with pytest.raises(ScenarioInvalidError, match="channel rate"):
        validate_scenario(Scenario(topo, (ok,), Scheme.EXCODE, channel_rate=0.0))
    with pytest.raises(ScenarioInvalidError, match="drain grace"):
        validate_scenario(Scenario(topo, (ok,), Scheme.EXCODE, drain_grace=-1.0))
    with pytest.raises(ScenarioInvalidError, match="drain grace must be >= 0 and finite"):
        validate_scenario(Scenario(topo, (ok,), Scheme.EXCODE, drain_grace=math.inf))


# values no number field takes: a bool is not a number here, as in a config
NOT_NUMBERS = st.one_of(st.booleans(), st.text(max_size=4), st.sampled_from(["1", "0.5", "nan"]), st.binary(max_size=2),
                        st.complex_numbers(), st.lists(st.integers(), max_size=2), st.just({"x": 1}))
SCENARIO_FIELDS = ("topology", "flows", "scheme", "duration", "channel_rate", "drain_grace", "seed",
                   "count_header_overhead", "capture_trace")  # the rest are FlowSpec fields
# values no bool field takes: a config's "yes", "no", 0 and 1 are not bools
NOT_BOOLS = st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.sampled_from(["yes", "no", "true"]),
                      st.none(), st.lists(st.booleans(), max_size=2))
# the fields a scenario error can name, each with ill-typed values for it
ILL_TYPED = {
    "topology": st.one_of(NOT_NUMBERS, st.none(), st.integers()),
    "flows": st.one_of(NOT_NUMBERS, st.none(), st.lists(st.sampled_from(FIXTURES["chain"](Scheme.EXCODE).flows)),
                       st.tuples(st.none()), st.tuples(st.integers(), st.integers())),
    "seed": st.one_of(NOT_NUMBERS, st.none(), st.floats()),
    "count_header_overhead": NOT_BOOLS,
    "capture_trace": NOT_BOOLS,
    "scheme": st.one_of(st.sampled_from([s.value for s in Scheme] + [s.name for s in Scheme]),
                        st.text(max_size=4), st.integers(), st.none()),
    "duration": st.one_of(NOT_NUMBERS, st.none()),
    "channel_rate": st.one_of(NOT_NUMBERS, st.none()),
    "drain_grace": st.one_of(NOT_NUMBERS, st.none()),
    "flow": st.one_of(st.lists(st.integers(), max_size=2), st.sets(st.integers(), max_size=2), st.just({0: 1}),
                      st.tuples(st.integers(), st.lists(st.integers(), max_size=1))),
    **{name: st.one_of(NOT_NUMBERS, st.none(), st.floats()) for name in ("src", "dst", "packet_size")},
    **{name: st.one_of(NOT_NUMBERS, st.none()) for name in ("rate", "start")},
    "stop": NOT_NUMBERS,  # None is a valid stop: the scenario's end
}


@st.composite
def ill_typed_scenarios(draw):
    """(fixture name, flow index, field, value): one fixture field swapped
    for a value of the wrong kind; a FlowSpec field is swapped in that flow."""
    name = draw(st.sampled_from(sorted(FIXTURES)))
    field = draw(st.sampled_from(sorted(ILL_TYPED)))
    return name, draw(st.integers(0, 1)), field, draw(ILL_TYPED[field])


def swapped(name, index, field, value) -> Scenario:
    scenario = FIXTURES[name](Scheme.EXCODE)
    if field in SCENARIO_FIELDS:
        return replace(scenario, **{field: value})
    flows = list(scenario.flows)
    flows[index] = replace(flows[index], **{field: value})
    return replace(scenario, flows=tuple(flows))


@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(case=ill_typed_scenarios())
@example(case=("junction", 0, "scheme", "excode"))  # ran as cope: junction codes 0, excode 1
@example(case=("chain", 0, "scheme", "none"))  # scanned with the report rule
@example(case=("chain", 0, "src", 0.0))  # TypeError: list indices must be integers
@example(case=("chain", 1, "packet_size", 512.5))  # TypeError in payload_bytes
@example(case=("chain", 0, "rate", "1"))  # TypeError in validate_scenario
@example(case=("chain", 0, "duration", "1"))
@example(case=("cross", 1, "flow", [0]))  # unhashable
@example(case=("cross", 0, "flow", (0, [1])))
@example(case=("chain", 0, "packet_size", True))  # ran with 1-byte packets
@example(case=("chain", 0, "topology", None))  # AttributeError
@example(case=("chain", 0, "flows", None))  # TypeError
@example(case=("chain", 0, "seed", [1]))  # ran
@example(case=("chain", 0, "capture_trace", "no"))  # ran, and captured
@example(case=("chain", 0, "count_header_overhead", "yes"))  # ran
def test_ill_typed_scenario_fields_are_rejected(case):
    name, index, field, value = case
    with pytest.raises(ScenarioInvalidError) as err:
        Simulation(swapped(name, index, field, value))
    message = str(err.value)
    assert ("flow id" if field == "flow" else field) + " must be" in message
    assert message.startswith("flow ") == (field not in SCENARIO_FIELDS)


def test_numpy_numbers_still_run():
    # numpy integers and floats are integers and real numbers; the times are
    # made plain floats, so the trace is the plain scenario's
    np = pytest.importorskip("numpy")
    plain = junction_scenario(Scheme.EXCODE)
    a, b, *rest = plain.flows
    flows = (replace(a, src=np.int64(a.src), packet_size=np.int64(a.packet_size)), replace(b, rate=np.float64(b.rate)))
    sim = run(replace(plain, flows=(*flows, *rest), duration=np.float64(plain.duration)))
    assert audit(sim) == []
    want = run(plain)
    assert want.per_node_encodes  # the numpy flows meet and code
    assert (sim.delivered.keys(), sim.total_tx, sim.per_node_encodes) == (want.delivered.keys(), want.total_tx,
                                                                         want.per_node_encodes)
    assert sim.trace_log.sha256() == want.trace_log.sha256()


class Seconds(float):
    """A float that keeps its type through arithmetic and prints itself
    otherwise, as numpy's float64 does."""

    def __repr__(self) -> str:
        return f"Seconds({float(self)!r})"

    def __add__(self, other):
        return Seconds(float(self) + other)

    __radd__ = __add__

    def __truediv__(self, other):
        return Seconds(float(self) / other)

    def __rtruediv__(self, other):
        return Seconds(other / float(self))


@pytest.mark.parametrize("kind", ["subclass", "numpy"])
def test_float_subclass_times_give_the_plain_trace(kind):
    # every time and rate is made a plain float once, so none becomes the
    # clock and prints its own repr in the trace
    number = pytest.importorskip("numpy").float64 if kind == "numpy" else Seconds
    plain = junction_scenario(Scheme.EXCODE)
    a, *rest = plain.flows
    flows = (replace(a, rate=number(a.rate), start=number(a.start), stop=number(a.stop)), *rest)
    odd = replace(plain, flows=flows, duration=number(plain.duration), channel_rate=number(plain.channel_rate),
                  drain_grace=number(0.5))
    sim, want = run(odd), run(replace(plain, drain_grace=0.5))
    assert repr(number(0.0)) != "0.0"
    assert sim.trace_log.sha256() == want.trace_log.sha256()
    assert all(type(t) is float for t in (sim.scenario.duration, sim.scenario.flows[0].rate))


def test_an_int_past_the_float_range_is_rejected():
    plain = junction_scenario(Scheme.EXCODE)
    with pytest.raises(ScenarioInvalidError, match="^duration must be finite"):
        Simulation(replace(plain, duration=10**400))
    a, *rest = plain.flows
    with pytest.raises(ScenarioInvalidError, match=f"^flow {a.flow}: rate must be finite"):
        Simulation(replace(plain, flows=(replace(a, rate=10**400), *rest)))


def test_payload_bytes_deterministic_and_seed_sensitive():
    from xorsim.packet import PacketUid

    uid = PacketUid(2, 17)
    assert payload_bytes(5, uid, 64) == payload_bytes(5, uid, 64)
    assert payload_bytes(5, uid, 64) != payload_bytes(6, uid, 64)
    for size in (1, 63, 64, 65, 512, 65_535):
        assert len(payload_bytes(5, uid, size)) == size
    variants = [
        payload_bytes(5, uid, 512),
        payload_bytes(5, PacketUid(3, 17), 512),  # another flow
        payload_bytes(5, PacketUid(2, 18), 512),  # another seq
        payload_bytes(6, uid, 512),  # another seed
        payload_bytes(5, PacketUid(21, 7), 512),  # the separator keeps "21:7" from "2:17"
    ]
    assert len(set(variants)) == len(variants)
    assert payload_bytes(5, uid, 512) == payload_bytes(5, PacketUid(2, 17), 512)


def test_trace_is_reproducible_and_seed_sensitive():
    a = run(random_scenario(Scheme.EXCODE, seed=3, n_flows=4, rate=60.0, duration=1.0))
    b = run(random_scenario(Scheme.EXCODE, seed=3, n_flows=4, rate=60.0, duration=1.0))
    c = run(random_scenario(Scheme.EXCODE, seed=4, n_flows=4, rate=60.0, duration=1.0))
    assert a.trace_log.sha256() == b.trace_log.sha256()
    assert a.trace_log.sha256() != c.trace_log.sha256()
    assert len(a.trace_log) > 0


def test_trace_capture_can_be_disabled():
    scn = random_scenario(Scheme.EXCODE, seed=3, n_flows=4, rate=60.0, duration=1.0, capture_trace=False)
    assert len(run(scn).trace_log) == 0


def test_trace_file_has_header(tmp_path):
    sim = run(chain_scenario(Scheme.EXCODE))
    out = tmp_path / "trace.csv"
    sim.trace_log.write(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "time,node,event,packet_uid,detail"
    assert len(lines) == len(sim.trace_log) + 1


def native(flow, seq, hop=0):
    return NativePacket(PacketUid(flow, seq), dst=3, route=(0, 1, 2, 3), hop_index=hop,
                        holders=frozenset(), payload=bytes(4), created_at=0.0)


# natives and mixes that share uids, and copies of one packet at other hops
TRACE_PACKETS = (
    native(0, 1), native(0, 1, hop=2), native(1, 0), native(10, 1), native(1, 1),
    xor_encode(native(0, 1), native(1, 0)), xor_encode(native(1, 0, hop=1), native(0, 1)),
    xor_encode(native(10, 1), native(1, 1)), xor_encode(native(0, 1), native(1, 1)),
)
# equal values must print alike whichever float object holds them; 0.0 and
# -0.0 are equal but print apart
TRACE_TIMES = (0.0, -0.0, 0.1 + 0.2, 0.30000000000000004, 0.3, 1e-3, 2.5, 1e300)
trace_times = st.tuples(st.sampled_from(TRACE_TIMES), st.booleans()).map(
    lambda t: float(repr(t[0])) if t[1] else t[0]
)
trace_adds = st.tuples(
    trace_times,
    st.integers(0, 20),
    st.sampled_from(("gen", "tx_start", "overhear", "encode", "deliver")),
    st.sampled_from(TRACE_PACKETS),
    st.one_of(st.just(""), st.text(alphabet="ab|=+^. 0123456789", max_size=10)),
)


def plain_lines(adds) -> list[str]:
    """The reference: one f-string per line."""
    return [f"{time!r},{node},{event},{packet},{detail}" for time, node, event, packet, detail in adds]


def check_trace_contents(log, want, out):
    """Every line, len, the hash and the written file are what one f-string
    per line gives."""
    body = "".join(line + "\n" for line in want).encode()
    assert log.lines == want
    assert list(log) == want
    assert len(log) == len(want)
    digest = log.sha256()
    log.write(out)
    assert out.read_bytes() == b"time,node,event,packet_uid,detail\n" + body
    assert digest == hashlib.sha256(body).hexdigest()


def check_trace_log(adds, block, out):
    """Replay adds into a TraceLog with block-sized chunks, reading it back
    halfway and twice at the end; reading never stops it taking more adds."""
    want = plain_lines(adds)
    half = len(adds) // 2
    with mock.patch.object(simulator, "TRACE_BLOCK", block):
        log = TraceLog()
    for add in adds[:half]:
        log.add(*add)
    check_trace_contents(log, want[:half], out)
    for add in adds[half:]:
        log.add(*add)
    check_trace_contents(log, want, out)
    check_trace_contents(log, want, out)
    log.close()


@settings(max_examples=300, deadline=None)
@given(adds=st.lists(trace_adds, max_size=40), block=st.sampled_from((1, 2, 3, 4096)))
@example(adds=[(0.0, 1, "gen", TRACE_PACKETS[0], ""), (-0.0, 1, "gen", TRACE_PACKETS[0], "")], block=2)
@example(adds=[(-0.0, 1, "gen", TRACE_PACKETS[0], ""), (0.0, 1, "gen", TRACE_PACKETS[5], "x")], block=4096)
@example(adds=[], block=3)
def test_trace_log_lines_match_plain_formatting(adds, block, tmp_path_factory):
    check_trace_log(adds, block, tmp_path_factory.mktemp("trace") / "trace.csv")


# two blocks of lines at the real block size
BLOCK_ADDS = [(i / 7, i % 16, "overhear", TRACE_PACKETS[i % len(TRACE_PACKETS)], "")
              for i in range(2 * simulator.TRACE_BLOCK)]


def test_trace_log_hashes_whole_blocks(tmp_path):
    # the log empty, and one and two blocks long
    for n in (0, simulator.TRACE_BLOCK, 2 * simulator.TRACE_BLOCK):
        check_trace_log(BLOCK_ADDS[:n], simulator.TRACE_BLOCK, tmp_path / f"trace{n}.csv")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_trace_write_leaves_the_log_whole(tmp_path):
    # a write that fails partway through the spilled blocks, as on a full
    # disk, must not move where the next block goes
    want = plain_lines(BLOCK_ADDS)
    split = simulator.TRACE_BLOCK + 5
    log = TraceLog()
    for add in BLOCK_ADDS[:split]:
        log.add(*add)
    assert sum(len(line) + 1 for line in want[:simulator.TRACE_BLOCK]) > 2**16  # one copy chunk
    with pytest.raises(OSError):
        log.write("/dev/full")
    for add in BLOCK_ADDS[split:]:
        log.add(*add)
    check_trace_contents(log, want, tmp_path / "trace.csv")
    log.close()


def lines_in_memory(log) -> int:
    """How many lines the log's lists hold; they hold str alone, and no
    attribute, or value of a dict attribute, is bytes."""
    n = 0
    for value in vars(log).values():
        if isinstance(value, dict):
            assert not {bytes, bytearray} & set(map(type, value.values()))
        elif isinstance(value, list):
            assert set(map(type, value)) <= {str}
            n += len(value)
        else:
            assert not isinstance(value, (bytes, bytearray))
    return n


def test_trace_log_memory_is_bounded():
    # a full block is encoded and spilled as it fills: in memory there are
    # only the lines of the block being filled, and never any bytes
    for block in (1, 3, simulator.TRACE_BLOCK):
        with mock.patch.object(simulator, "TRACE_BLOCK", block):
            log = TraceLog()
        for n in range(3 * block + 2):
            assert lines_in_memory(log) < block
            assert len(log) == n
            log.add(n / 3, n % 5, "gen", TRACE_PACKETS[n % len(TRACE_PACKETS)])
        log.close()
    # the label cache too: a run names ever new packets, and a spill drops
    # the labels of the lines it takes
    for block in (1, 3, 64):
        with mock.patch.object(simulator, "TRACE_BLOCK", block):
            log = TraceLog()
        for n in range(3 * block + 2):
            log.add(n / 3, n % 5, "gen", native(n // 2, n % 7, hop=n % 3))
            assert len(log._labels) <= lines_in_memory(log) < block
        log.close()


def open_fds():
    """How many file descriptors this process has open, where /proc says."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("close", (False, True))
def test_trace_spill_file_is_closed(close):
    # a traced run of three blocks spills to one temp file; closing the log,
    # or dropping the simulation, closes it with no unclosed-file warning
    unraisable = []
    with warnings.catch_warnings(), mock.patch.object(sys, "unraisablehook", unraisable.append):
        warnings.simplefilter("error", ResourceWarning)
        before = open_fds()
        sim = run(random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=20.0, duration=3.5))
        log = sim.trace_log
        assert len(log) > 3 * simulator.TRACE_BLOCK
        if before is not None:
            assert open_fds() == before + 1
        if close:
            digest, n = log.sha256(), len(log)
            log.close()
            assert open_fds() == before
            assert (log.sha256(), len(log)) == (digest, n)
            with pytest.raises(ValueError):
                log.lines
        del sim, log
        assert open_fds() == before
    assert unraisable == []


def test_untraced_run_opens_no_file_and_pickles():
    # capture off fills no block, and a short traced run fills none either:
    # neither opens a file, so both pickle
    untraced = random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=200.0, duration=0.5, capture_trace=False)
    for scenario in (untraced, chain_scenario(Scheme.EXCODE)):
        before = open_fds()
        sim = run(scenario)
        assert open_fds() == before
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.delivered == sim.delivered and clone.generated == sim.generated
        assert clone.trace_log.lines == sim.trace_log.lines
        assert clone.trace_log.sha256() == sim.trace_log.sha256()


def test_pickled_simulation_keeps_node_state():
    # sweep workers send finished runs; one cut mid-flight under overload
    # still has queued packets, buffers and a broadcast on air
    sim = run(random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=200.0, duration=0.25, capture_trace=False))
    clone = pickle.loads(pickle.dumps(sim))
    assert any(node.output_queue for node in sim.nodes) and any(node.transmitting for node in sim.nodes)
    for node, twin in zip(sim.nodes, clone.nodes, strict=True):
        assert list(twin.input_queue) == list(node.input_queue)
        assert list(twin.output_queue) == list(node.output_queue)
        assert twin.buffer == node.buffer and twin.seen_overheard == node.seen_overheard
        assert all(twin.reports[nb] is clone.nodes[nb].buffer for nb in node.neighbors)
        tx, tx_twin = node.transmitting, twin.transmitting
        assert (tx is None) == (tx_twin is None)
        if tx is not None:
            assert (tx_twin.sender, tx_twin.packet, tx_twin.addressed, tx_twin.end) == (
                tx.sender, tx.packet, tx.addressed, tx.end)
    assert finalize(clone) == finalize(sim)


@pytest.mark.parametrize("cell", ["decoded", "corrupt", "empty"])
def test_pickled_simulation_rebuilds_delivered_exactly(cell, monkeypatch):
    # delivered pickles as columns: the copy rebuilds the same plain dict, in
    # delivery order, of PacketUid -> (time, NativePacket), for decoded
    # natives, for records stored whole after a payload mismatch, and empty
    real_decode, decodes = xor_decode, []

    def counted_decode(encoded, known):
        native = real_decode(encoded, known)
        decodes.append(native.uid)
        if cell == "corrupt":  # flipped bytes: stored whole at delivery
            return native._replace(payload=bytes([native.payload[0] ^ 0xFF]) + native.payload[1:])
        return native

    monkeypatch.setattr(node_module, "xor_decode", counted_decode)
    duration = 1e-4 if cell == "empty" else 1.0  # ends before the first packet's airtime
    sim = run(random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=200.0, duration=duration,
                              capture_trace=False))
    stored_whole = [uid for uid, (_, p) in sim.delivered.items() if p.payload]
    if cell == "empty":
        assert not sim.delivered and len(sim.generated)
    else:
        assert set(decodes) & set(sim.delivered)
        assert bool(stored_whole) == (cell == "corrupt")
    clone = pickle.loads(pickle.dumps(sim))
    assert type(clone.delivered) is dict
    assert list(clone.delivered.items()) == list(sim.delivered.items())
    for uid, record in clone.delivered.items():
        assert type(uid) is PacketUid and type(record) is tuple and type(record[1]) is NativePacket
        assert record[1].uid == uid
    assert [uid for uid, (_, p) in clone.delivered.items() if p.payload] == stored_whole
    assert finalize(clone) == finalize(sim)


def test_trace_log_keeps_no_packet_alive():
    # packets are tuples, which take no weakrefs: adding them leaves the
    # reference count of each packet and of each of a mix's natives as it was
    log = TraceLog()
    single, mix = native(4, 2), xor_encode(native(4, 3), native(5, 0))
    watched = (single, mix, *mix.constituents)
    before = [sys.getrefcount(p) for p in watched]
    log.add(1.0, 0, "gen", single)
    log.add(1.0, 0, "encode", mix, "4.3+5.0")
    assert [sys.getrefcount(p) for p in watched] == before
    assert log.lines == ["1.0,0,gen,4.2,", "1.0,0,encode,4.3^5.0,4.3+5.0"]


def test_holder_sets_accumulate_closed_neighborhoods():
    topo = build_topology(random_layout(16, 800.0, 7), 220.0)
    dist = hop_distances(topo, 0)
    dst = max(
        (n for n in range(16) if dist[n] != math.inf),
        key=lambda n: dist[n],
    )
    assert dist[dst] >= 2
    scn = Scenario(topo, (FlowSpec(0, dst, 0, rate=1.0, stop=0.5),), Scheme.NON_CODING, duration=1.0)
    sim = run(scn)
    (_, delivered), = sim.delivered.values()
    expected = set()
    for sender in delivered.route[:-1]:
        expected |= {sender} | topo.neighbors(sender)
    assert delivered.holders == frozenset(expected)


def test_conservation_and_fifo_across_random_runs():
    for seed in range(6):
        for scheme in ALL_SCHEMES:
            sim = run(
                random_scenario(scheme, seed=seed, n_flows=3, rate=3.0, duration=20.0, capture_trace=False)
            )
            assert audit(sim) == [], (seed, scheme)


def test_every_coding_decision_saves_transmissions():
    # drain everything, then compare against the hop count a pure
    # store-and-forward delivery would have required
    for seed in (1, 2, 3):
        totals = {}
        for scheme in ALL_SCHEMES:
            scn = random_scenario(scheme, seed=seed, n_flows=3, rate=2.0, duration=10.0, capture_trace=False)
            sim = run(replace(scn, drain_grace=5.0))
            assert set(sim.delivered) == set(sim.generated)
            hops = sum(len(p.route) - 1 for p in sim.generated.values())
            saved = hops - sim.total_tx
            if scheme is Scheme.NON_CODING:
                assert saved == 0
            else:
                assert saved >= sim.encode_count
            totals[scheme] = sim.total_tx
        assert totals[Scheme.EXCODE] <= totals[Scheme.NON_CODING]


def test_report_rule_never_fires_where_holder_rule_would_not(watch_scans):
    # run_plan rests on this: a run that coded nothing under a wider rule is
    # the narrower rule's run too
    hits = []

    def probe(node, p, q, cope_ok, excode_ok):
        assert not (cope_ok and not excode_ok)
        if cope_ok:
            hits.append(node)

    watch_scans(probe)
    for name in ("chain", "cross", "junction"):
        run(FIXTURES[name](Scheme.COPE))
    assert hits  # the two-hop fixtures really were exercised

    @settings(max_examples=100, deadline=None)
    @given(
        line=st.booleans(),
        n=st.integers(3, 30),
        seed=st.integers(0, 10**6),
        n_flows=st.integers(2, 8),
        rate=st.floats(1.0, 200.0),
        sizes=st.sampled_from([(512,), (256, 512)]),
    )
    def random_field(line, n, seed, n_flows, rate, sizes):
        positions = [(150.0 * i, 0.0) for i in range(n)] if line else random_layout(n, 150.0 * math.sqrt(n), seed)
        topo = build_topology(positions, DEFAULT_RANGE)
        try:
            flows = random_flows(topo, n_flows, rate, 512, seed)
        except ScenarioInvalidError:  # too few connected pairs to sample from
            assume(False)
        flows = tuple(replace(f, packet_size=sizes[i % len(sizes)]) for i, f in enumerate(flows))
        run(Scenario(topo, flows, Scheme.COPE, duration=0.25, seed=seed, capture_trace=False))

    hits.clear()
    random_field()
    assert hits  # some random field's scan had a report-rule partner


def test_encode_fires_only_when_both_sides_can_already_decode(monkeypatch):
    calls = []
    running = []  # the simulation being run, so the probe can see its buffers

    def probe(p, q):
        sim = running[-1]
        calls.append((p.uid, q.uid))
        assert q.uid in sim.nodes[p.dst].buffer
        assert p.uid in sim.nodes[q.dst].buffer

    watch_encodes(monkeypatch, probe)
    for seed in range(4):
        scn = random_scenario(
            Scheme.EXCODE, seed=seed, n_flows=4, rate=120.0, duration=1.0, capture_trace=False
        )
        sim = Simulation(scn)
        running[:] = [sim]
        assert sim.run().decode_failures == 0
    junction = Simulation(junction_scenario(Scheme.EXCODE))
    running[:] = [junction]
    junction.run()
    assert junction.per_node_encodes == {2: 1}
    assert calls


def watch_encodes(monkeypatch, probe):
    """Call probe(p, q) on every encode a node makes, ahead of the encode."""
    encode = node_module.xor_encode

    def watched(p, q):
        probe(p, q)
        return encode(p, q)

    monkeypatch.setattr(node_module, "xor_encode", watched)


def test_reception_reports_mirror_neighbor_buffers():
    sim = run(random_scenario(Scheme.COPE, seed=5, n_flows=4, rate=40.0, duration=2.0, capture_trace=False))
    for node in sim.nodes:
        assert set(node.reports) == set(node.neighbors)
        for nb in node.neighbors:
            assert node.reports[nb] is sim.nodes[nb].buffer


@pytest.mark.parametrize("scheme", (Scheme.EXCODE, Scheme.COPE))
def test_buffers_hold_natives_only(scheme):
    sim = run(random_scenario(scheme, seed=2, n_flows=6, rate=150.0, duration=0.5, capture_trace=False))
    assert sim.encode_count
    for node in sim.nodes:
        assert all(isinstance(v, NativePacket) and v.uid == k for k, v in node.buffer.items())


def test_sends_read_the_route_holder_table():
    sim = Simulation(random_scenario(Scheme.EXCODE, seed=1, n_flows=6, rate=150.0, duration=0.5,
                                     capture_trace=False))
    mix_bytes = {}  # mix key -> holder bytes of each of its sends

    def watch(node):
        send = node.on_send

        def on_send(now, s):
            tx = send(now, s)
            p = tx and tx.packet
            if isinstance(p, NativePacket):
                # sent from hop h: one shared set, the table's entry h
                assert p.route[p.hop_index - 1] == node.id
                assert p.holders is sim.holders_at[p.uid.flow][p.hop_index - 1]
            elif p:
                mix_bytes.setdefault(p.key, []).append(holder_overhead_bytes(p))
            return tx

        node.on_send = on_send

    for node in sim.nodes:
        watch(node)
    sim.run()
    # a mix's constituents keep the holder sets they had when mixed
    assert any(len(sends) > 1 for sends in mix_bytes.values())
    assert all(len(set(sends)) == 1 for sends in mix_bytes.values())


def test_long_chain_codes_far_from_destinations():
    sim = run(long_chain_scenario(Scheme.EXCODE))
    assert sim.per_node_encodes == {4: 1}
    assert sim.tx_encoded == 7  # one mixed send plus six split forwards
    times = sorted(t for t, _ in sim.delivered.values())
    seven_hops = 0.0
    for _ in range(7):  # event times accumulate hop by hop
        seven_hops += TX
    assert times == [seven_hops, seven_hops]


# Trace sha256 of runs that code: the saturated cells (8 flows x 200 pkt/s,
# 2 s), the busiest traces, where arrivals tie with TX_ENDs, and the
# fixtures, whose packets meet at a relay in the same instant. A change to
# the event core must leave every line of these traces as it is.
SATURATED_TRACES = {
    (Scheme.EXCODE, 1): "815ac22018afd9a6a628f7672d5aa2f5c40207edcd3151c0433f475014505413",
    (Scheme.EXCODE, 2): "78e75b3284d8e1db229bcebd9a6ab0644b1e02f9a15cc6ae2ca5487922e4c7b6",
    (Scheme.EXCODE, 3): "2fcba4dfe7e191134165389d56cee239b2efc2bab5759305db027491dd3a3466",
    (Scheme.COPE, 1): "8608d380bed192d0108feba879d3fb28ada2a38e67cde595f1f129896cad121a",
    (Scheme.COPE, 2): "78e75b3284d8e1db229bcebd9a6ab0644b1e02f9a15cc6ae2ca5487922e4c7b6",
    (Scheme.COPE, 3): "2fcba4dfe7e191134165389d56cee239b2efc2bab5759305db027491dd3a3466",
    (Scheme.NON_CODING, 1): "0d472944a2200b71ba4381c96d214531ab5d960906af2f2f650dcf87e1556165",
    (Scheme.NON_CODING, 2): "169074fe988822f7e7ce997048e8583c850fa1bd32220bd9209b9f0765956813",
    (Scheme.NON_CODING, 3): "2fcba4dfe7e191134165389d56cee239b2efc2bab5759305db027491dd3a3466",
}
FIXTURE_TRACES = {
    ("chain", Scheme.EXCODE): "f0d2d015f2706b3eb4eec2487ea5fdc705e73a78682fbc6acd2c5ae4f064bf7f",
    ("chain", Scheme.COPE): "f0d2d015f2706b3eb4eec2487ea5fdc705e73a78682fbc6acd2c5ae4f064bf7f",
    ("chain", Scheme.NON_CODING): "099a4329122dbfebc0af42748cd14847778d532fdf40baa96c6e18ef5fc4564f",
    ("cross", Scheme.EXCODE): "c953ee455550ee729917b5723e57a79fceff61f0596199ed26709a0ce9abda5f",
    ("cross", Scheme.COPE): "c953ee455550ee729917b5723e57a79fceff61f0596199ed26709a0ce9abda5f",
    ("cross", Scheme.NON_CODING): "f06acf1b1dbb3438e6aa87e93c42ddb9bde027a0d3e4cc565395ced8d9e57b99",
    ("junction", Scheme.EXCODE): "62a3566a25606f36d7eb3bff70f9cf071b2713636759c962a55e32df38780fc1",
    ("junction", Scheme.COPE): "0f60867b214ba83e462c221c4ff897555ae9c19543ca4eeaf13ae9de5b11902e",
    ("junction", Scheme.NON_CODING): "0f60867b214ba83e462c221c4ff897555ae9c19543ca4eeaf13ae9de5b11902e",
    ("long-chain", Scheme.EXCODE): "baa687241b436a18387be72e0807b877df679269af32ca548d4f254f713021b7",
    ("long-chain", Scheme.COPE): "a187691c52eca719336f2a45acafe78883846283fd2de36fb5622491e8067855",
    ("long-chain", Scheme.NON_CODING): "a187691c52eca719336f2a45acafe78883846283fd2de36fb5622491e8067855",
}


# Trace sha256 of runs at a channel rate so high (1e30 b/s) that an airtime
# rounds away: once now is past about 1e-11 s, now + airtime == now, so a
# TX_END falls in the instant its transmission started. These cells pin the
# order of such a TX_END against the other work of its instant.
ZERO_AIRTIME_RATE = 1e30
ZERO_AIRTIME_TRACES = {
    ("random-2", Scheme.EXCODE): "e429e5023b7364841716323964c35b0870134f426be71e2b4e174fbd53043ad2",
    ("random-2", Scheme.COPE): "e429e5023b7364841716323964c35b0870134f426be71e2b4e174fbd53043ad2",
    ("random-2", Scheme.NON_CODING): "dc3569598585b11c93d2aa7ea8a8c40d7595d9544ab3d18e7313e3cb613efd06",
    ("random-3", Scheme.EXCODE): "82a7b149d752cdc8c0e48bd1d821e9164b79bb48ef49f6918f079d3a44ef97f8",
    ("random-3", Scheme.COPE): "82a7b149d752cdc8c0e48bd1d821e9164b79bb48ef49f6918f079d3a44ef97f8",
    ("random-3", Scheme.NON_CODING): "82a7b149d752cdc8c0e48bd1d821e9164b79bb48ef49f6918f079d3a44ef97f8",
    ("chain", Scheme.EXCODE): "32fd50b9c2dd45183ea279d13a2a32cc28866e0c1ea06b7370dd53c94dfca89a",
    ("chain", Scheme.COPE): "32fd50b9c2dd45183ea279d13a2a32cc28866e0c1ea06b7370dd53c94dfca89a",
    ("chain", Scheme.NON_CODING): "397559e5983547bbbf4ba110536b9f830021bbf0d53b5c7f57766ef2ffdfdbdc",
    ("cross", Scheme.EXCODE): "c005d51e7a69d32a9e1e215f10584a07875d785a17b645de494c26468c30d3ba",
    ("cross", Scheme.COPE): "c005d51e7a69d32a9e1e215f10584a07875d785a17b645de494c26468c30d3ba",
    ("cross", Scheme.NON_CODING): "312a2a49d279a49ae7247f5ecd166aaa4acfaad3e11734830314e198d8d2a762",
    ("junction", Scheme.EXCODE): "b96ec916fa686de11c5c15715a5b71de0272d43ba27767bbd448444c655d88ec",
    ("junction", Scheme.COPE): "b96ec916fa686de11c5c15715a5b71de0272d43ba27767bbd448444c655d88ec",
    ("junction", Scheme.NON_CODING): "b96ec916fa686de11c5c15715a5b71de0272d43ba27767bbd448444c655d88ec",
    ("long-chain", Scheme.EXCODE): "cede42e92cb5a56e87d59b0d3f44db9cc7bb608ad802c30784a1521c3ce709e8",
    ("long-chain", Scheme.COPE): "40969bf35f399bbc87c087b485f20499945cc9ef5c30571e8b1084bcbb9860cb",
    ("long-chain", Scheme.NON_CODING): "40969bf35f399bbc87c087b485f20499945cc9ef5c30571e8b1084bcbb9860cb",
}


def zero_airtime_cells(capture_trace):
    """Yield ((cell, scheme), scenario) for each cell of ZERO_AIRTIME_TRACES."""
    for cell, scheme in ZERO_AIRTIME_TRACES:
        if cell.startswith("random-"):
            scn = random_scenario(scheme, int(cell[len("random-"):]), n_flows=8, rate=200.0, duration=0.3)
            scn = replace(scn, drain_grace=0.1)
        else:
            scn = FIXTURES[cell](scheme)
        yield (cell, scheme), replace(scn, channel_rate=ZERO_AIRTIME_RATE, capture_trace=capture_trace)


def check_counters_against_trace(sim):
    """The run's counters equal the events its trace logged: encodes per
    node, decode failures, transmissions and the mixed ones among them."""
    events, encodes, mixed_tx = Counter(), Counter(), 0
    for line in sim.trace_log:
        _, node, event, label = line.split(",", 4)[:4]
        events[event] += 1
        if event == "encode":
            encodes[int(node)] += 1
        elif event == "tx_start" and "^" in label:
            mixed_tx += 1
    assert sim.per_node_encodes == encodes
    assert sim.decode_failures == events["decode_fail"]
    assert sim.total_tx == events["tx_start"]
    assert sim.tx_encoded == mixed_tx


def test_zero_airtime_traces_are_pinned():
    got, encodes, own_instant = {}, 0, 0
    for key, scn in zero_airtime_cells(capture_trace=True):
        sim = run(scn)
        got[key] = sim.trace_log.sha256()
        check_counters_against_trace(sim)
        encodes += sim.encode_count
        started = {}  # node -> time of its last tx_start
        for line in sim.trace_log:
            time, node, event = line.split(",", 3)[:3]
            if event == "tx_start":
                started[node] = time
            elif event == "tx_end" and started.get(node) == time:
                own_instant += 1
    assert got == ZERO_AIRTIME_TRACES
    # the cells keep covering what they pin: TX_ENDs in their own start
    # instant, and coding among them
    assert own_instant and encodes


@pytest.mark.parametrize("scheme, seed", sorted(SATURATED_TRACES, key=str))
def test_saturated_traces_are_pinned(scheme, seed):
    sim = run(random_scenario(scheme, seed=seed, n_flows=8, rate=200.0, duration=2.0))
    assert sim.trace_log.sha256() == SATURATED_TRACES[scheme, seed]
    check_counters_against_trace(sim)


@pytest.mark.parametrize("name, scheme", sorted(FIXTURE_TRACES, key=str))
def test_fixture_traces_are_pinned(name, scheme):
    sim = run(FIXTURES[name](scheme))
    assert sim.trace_log.sha256() == FIXTURE_TRACES[name, scheme]
    check_counters_against_trace(sim)


def test_no_wake_is_scheduled_onto_a_busy_radio(monkeypatch):
    # No wake finds its radio still on air (_on_wake does not look), at the
    # default channel rate and where airtimes round away, so that a TX_END
    # falls in the instant its transmission started. At the default rate each
    # node also wakes at most once per instant; where airtimes round away,
    # such a TX_END's wakes make a second batch in the same instant.
    woken = Counter()  # (node, instant) -> wakes
    started = []  # (instant, transmission) for each send a wake puts on air
    wake = Simulation._on_wake

    def watched(self, node_id, now):
        node = self.nodes[node_id]
        assert node.transmitting is None, f"node {node_id} woken at {now!r} with its radio busy"
        woken[node_id, now] += 1
        wake(self, node_id, now)
        if node.transmitting is not None:
            started.append((now, node.transmitting))

    monkeypatch.setattr(Simulation, "_on_wake", watched)
    sim = run(random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=200.0, duration=1.0,
                              capture_trace=False))
    assert sim.encode_count and len(started) == sim.total_tx
    assert max(woken.values()) == 1
    assert all(tx.end > now for now, tx in started)
    for (cell, scheme), scn in zero_airtime_cells(capture_trace=False):
        started.clear()
        sim = run(scn)
        assert len(started) == sim.total_tx, (cell, scheme)
        if cell.startswith("random-"):
            assert any(tx.end == now for now, tx in started), (cell, scheme)


def test_finished_simulation_is_freed_without_the_cycle_collector():
    # the heap holds plain functions, never bound methods, so no reference
    # cycle runs through a simulation: del frees it, pending events and all
    gc.disable()
    try:
        sim = run(random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=200.0, duration=0.5,
                                  capture_trace=False))
        assert sim._heap
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("counted", [False, True])
def test_every_airtime_is_tx_duration(monkeypatch, counted):
    # each airtime must be the serialization time of the packet sent: its
    # payload, plus 4 bytes per holder id when holder bytes are counted in,
    # which only excode's holder lists are
    sent = []
    on_send = Node.on_send

    def watched(self, now, sim):
        tx = on_send(self, now, sim)
        if tx is not None:
            sent.append((now, tx))
        return tx

    monkeypatch.setattr(Node, "on_send", watched)
    for scheme in (Scheme.EXCODE, Scheme.COPE):
        charged = counted and scheme is Scheme.EXCODE

        def airtime(packet):
            natives = [packet] if isinstance(packet, NativePacket) else packet.constituents
            size = len(packet.payload) + (4 * sum(len(n.holders) for n in natives) if charged else 0)
            return 8.0 * size / scn.channel_rate

        sent.clear()
        scn = random_scenario(scheme, seed=1, n_flows=6, rate=150.0, duration=0.5, capture_trace=False)
        scn = replace(scn, count_header_overhead=counted)
        sim = run(scn)
        assert sim.encode_count and len(sent) == sim.total_tx, scheme
        assert all(tx.end == now + airtime(tx.packet) for now, tx in sent), scheme
        assert (len({airtime(tx.packet) for _, tx in sent}) > 1) == charged, scheme


def test_random_flows_match_a_route_search_per_pair():
    # one BFS per destination must draw the flows that a route search per
    # sampled pair draws
    def by_route_search(topo, n_flows, seed):
        rng = random.Random(f"flows:{seed}")
        pairs = []
        for _ in range(n_flows):
            for _attempt in range(500):
                src, dst = rng.randrange(topo.n), rng.randrange(topo.n)
                if src == dst:
                    continue
                try:
                    shortest_path(topo, src, dst)
                except NoRouteError:
                    continue
                pairs.append((src, dst))
                break
            else:
                raise AssertionError("no routable pair")
        return pairs

    for seed in range(50):
        topo = build_topology(random_layout(DEFAULT_NODES, DEFAULT_SIDE, seed), DEFAULT_RANGE)
        for n_flows in range(1, 9):
            flows = random_flows(topo, n_flows, 10.0, 512, seed)
            assert [(f.src, f.dst) for f in flows] == by_route_search(topo, n_flows, seed)
            assert [f.flow for f in flows] == list(range(n_flows))


@pytest.mark.parametrize("positions", [[], [(0.0, 0.0)]])
def test_random_flows_need_two_nodes(positions):
    # a layout too small for any flow is a scenario error, not a raw ValueError
    topo = build_topology(positions, 200.0)
    assert random_flows(topo, 0, 5.0, 512, 0) == ()
    with pytest.raises(ScenarioInvalidError, match=f"^seed 0: a flow needs 2 nodes, the layout has {len(positions)}$"):
        random_flows(topo, 1, 5.0, 512, 0)


def test_random_flows_name_an_unroutable_layout():
    topo = build_topology([(0.0, 0.0), (1000.0, 0.0)], 200.0)  # two nodes out of range
    with pytest.raises(ScenarioInvalidError, match="^seed 3: could not sample a routable flow in this layout$"):
        random_flows(topo, 1, 5.0, 512, 3)


def test_validated_routes_match_a_route_search_per_pair():
    # one BFS per destination must give each flow the route, and the first
    # unroutable flow the "no route" error, that a route search per flow gives
    routed = unroutable = 0
    for seed in range(30):
        rng = random.Random(f"validate:{seed}")
        topo = build_topology(random_layout(30, 900.0, seed), 200.0)
        dsts = rng.sample(range(topo.n), 4)
        flows = []
        for i in range(12):
            dst = rng.choice(dsts)
            flows.append(FlowSpec(i, rng.choice([v for v in range(topo.n) if v != dst]), dst, rate=1.0))
        want, missing = {}, []
        for f in flows:
            try:
                want[f.flow] = shortest_path(topo, f.src, f.dst)
            except NoRouteError:
                missing.append(f)
        kept = tuple(f for f in flows if f.flow in want)
        assert validate_scenario(Scenario(topo, kept, Scheme.EXCODE)) == want
        routed += len(want)
        if missing:
            f = missing[0]
            with pytest.raises(ScenarioInvalidError, match=f"^flow {f.flow}: no route from {f.src} to {f.dst}$"):
                validate_scenario(Scenario(topo, tuple(flows), Scheme.EXCODE))
            unroutable += 1
    assert unroutable >= 5 and routed >= 150


# -- retirement: state follows the packets in flight ---------------------------


def in_flight(sim):
    """Natives and copies of each mix key queued or on air, read off the queues."""
    natives, mixes = set(), Counter()
    for node in sim.nodes:
        for pkt in (*node.input_queue, *node.output_queue, *([node.transmitting.packet] if node.transmitting else [])):
            if isinstance(pkt, EncodedPacket):
                mixes[pkt.key] += 1
            else:
                natives.add(pkt.uid)
    return natives, mixes


def held_entries(node):
    return (*node.buffer, *node.seen_overheard)


def watch_buffering(sim):
    """Record who buffers each uid; return uid -> nodes."""
    buffered = {}
    native_buffered = sim.native_buffered

    def on_buffered(node, packet):
        buffered.setdefault(packet.uid, set()).add(node)
        native_buffered(node, packet)

    sim.native_buffered = on_buffered
    return buffered


def detour_scenario(scheme):
    """Flow 0 runs 5 -> 1 -> 6 and flow 1 runs 0 -> 1 -> 2 -> 4; they code at
    relay 1. Node 3 hears 0 and 2 but not 1, an equal-length detour that
    routing passes over, and lies outside flow 0's holder sets. It overhears
    packet 1.0 from node 0, then the mix from node 2, and decodes 0.0 early."""
    positions = [(-160.0, 0.0), (0.0, 110.0), (160.0, 0.0), (0.0, -110.0),
                 (320.0, 90.0), (175.0, 180.0), (-175.0, 180.0)]
    flows = (FlowSpec(0, 5, 6, rate=1.0, stop=0.5), FlowSpec(1, 0, 4, rate=1.0, stop=0.5))
    return Scenario(build_topology(positions, 200.0), flows, scheme, duration=1.0)


def retirement_cells(scheme):
    """Coding-heavy cells; a drain grace of 3 s delivers everything, and so
    does the detour fixture."""
    for seed, grace in ((0, 0.0), (1, 0.0), (2, 3.0), (3, 3.0)):
        scn = random_scenario(scheme, seed=seed, n_flows=6, rate=150.0, duration=1.0)
        yield replace(scn, drain_grace=grace)
    yield detour_scenario(scheme)


def check_retirement(sim, partner, buffered):
    """Assert that sim's buffers and overheard sets hold only what a copy in
    flight can need, and that a drained run holds nothing; partner maps each
    mixed uid to the other uid of its mix, buffered each uid to the nodes
    that buffered it. Return the uids buffered outside their own route's
    last holder set, and whether the run drained."""
    assert audit(sim) == []
    natives, mixes = in_flight(sim)
    for node in sim.nodes:
        for entry in held_entries(node):
            if not isinstance(entry, PacketUid):
                assert entry in mixes, (node.id, entry)
            elif entry in sim.delivered:
                # a mixed native stays held until its mix's second delivery
                mate = partner.get(entry)
                assert mate is not None and mate not in sim.delivered, (node.id, entry)
                assert tuple(sorted((entry, mate))) in mixes, (node.id, entry)
    # every node that ever buffered u can be reached by u's retirement:
    # its route's last holder set, and its partner's when it was mixed
    outside_own_route = set()
    for uid, nodes in buffered.items():
        scope = set(sim.holders_at[uid.flow][-1])
        if uid in partner:
            scope |= sim.holders_at[partner[uid].flow][-1]
        assert nodes <= scope, uid
        if nodes - sim.holders_at[uid.flow][-1]:
            outside_own_route.add(uid)
    drained = not natives and not mixes
    if drained:
        assert set(sim.delivered) == set(sim.generated)
        for node in sim.nodes:
            assert held_entries(node) == (), node.id
    return outside_own_route, drained


def watch_mixes(monkeypatch):
    """Return uid -> the other uid of its mix, filled in as nodes encode."""
    partner = {}

    def on_encode(p, q):
        partner[p.uid], partner[q.uid] = q.uid, p.uid

    watch_encodes(monkeypatch, on_encode)
    return partner


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_retirement_keeps_only_what_is_in_flight(scheme, monkeypatch):
    outside_own_route = drained = 0
    partner = watch_mixes(monkeypatch)
    for scn in retirement_cells(scheme):
        partner.clear()
        sim = Simulation(scn)
        buffered = watch_buffering(sim)
        sim.run()
        outside, done = check_retirement(sim, partner, buffered)
        outside_own_route += len(outside)
        drained += done
    assert drained >= 3
    # the detour fixture codes under excode alone
    assert bool(outside_own_route) == (scheme is Scheme.EXCODE)


# the same rule over random fields, where a drain grace of 3 s lets some runs
# drain. It scales with the profile's max_examples, as the addressed-once
# property does
@settings(max_examples=settings.default.max_examples, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    seed=st.integers(0, 10**6),
    n_flows=st.integers(2, 8),
    rate=st.floats(50.0, 300.0),
    duration=st.floats(0.2, 1.5),
    drain_grace=st.sampled_from((0.0, 3.0)),
)
def test_retirement_holds_on_random_fields(scheme, seed, n_flows, rate, duration, drain_grace):
    with pytest.MonkeyPatch.context() as monkeypatch:
        partner = watch_mixes(monkeypatch)
        scn = random_scenario(scheme, seed=seed, n_flows=n_flows, rate=rate, duration=duration, capture_trace=False)
        sim = Simulation(replace(scn, drain_grace=drain_grace))
        buffered = watch_buffering(sim)
        check_retirement(sim.run(), partner, buffered)


@pytest.mark.parametrize("duration", (2.0, 4.0))
def test_held_entries_per_packet_in_flight_are_bounded(duration):
    # the benchmark's saturated excode cell: queues grow with time, and
    # buffers and overheard sets must grow with them, not with what was delivered
    sim = run(random_scenario(Scheme.EXCODE, seed=1, n_flows=8, rate=200.0, duration=duration,
                              capture_trace=False))
    natives, mixes = in_flight(sim)
    queued_or_on_air = len(natives) + sum(mixes.values())
    held = sum(len(held_entries(node)) for node in sim.nodes)
    assert held <= 16 * queued_or_on_air, (held, queued_or_on_air)
