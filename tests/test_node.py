import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from xorsim.coding import Scheme
from xorsim.node import Node, Transmission, overhear
from xorsim.packet import EncodedPacket, NativePacket, PacketUid, holder_table, xor_encode


class HookRecorder:
    """Stand-in for the simulation side of the node protocol. It is also its
    own trace log: lines sent through trace and through trace_log.add land in
    one list, in the order the node made them."""

    def __init__(self, holders_at=None, capture_trace=True):
        self.holders_at = holders_at or {}  # flow -> holder table of its route
        self.capture_trace = capture_trace  # the nodes skip capture-only lines when off
        self.trace_log = self
        self.events = []
        self.details = []  # (event, node, detail) of each trace line with a detail
        self.delivered = []
        self.buffered = []
        self.per_node_encodes = Counter()
        self.decode_failures = 0

    def trace(self, now, node, event, uid, detail=""):
        self.events.append((event, node, str(uid)))
        if detail:
            self.details.append((event, node, detail))

    add = trace

    def deliver(self, packet, now, mix=None):
        self.delivered.append((packet, mix))

    def native_buffered(self, node, packet):
        self.buffered.append((node, packet.uid))


def native(flow, seq, route, hop_index, holders, payload=b"\xaa" * 6):
    route = tuple(route)
    return NativePacket(
        uid=PacketUid(flow, seq),
        dst=route[-1],
        route=route,
        hop_index=hop_index,
        holders=frozenset(holders),
        payload=payload,
        created_at=0.0,
    )


def hear(node, packet, now, sim):
    """One broadcast of packet that node alone overhears."""
    overhear({node.id: node}, (node.id,), (), packet, now, sim)


def relay_node(scheme=Scheme.EXCODE):
    return Node(id=1, neighbors=(0, 2), scheme=scheme), HookRecorder()


# packets as they arrive at relay 1 of a three-node line, one from each side
P_EAST = native(0, 0, (0, 1, 2), 1, {0, 1}, payload=b"east->")
Q_WEST = native(1, 0, (2, 1, 0), 1, {2, 1}, payload=b"<-west")


def test_relay_forwards_without_partner():
    node, sim = relay_node()
    node.input_queue.append(P_EAST)
    node.process_input(0.0, sim)
    assert list(node.output_queue) == [P_EAST]
    assert node.buffer[P_EAST.uid] == P_EAST
    assert sim.per_node_encodes == {}


def test_relay_codes_with_queued_partner():
    node, sim = relay_node()
    node.input_queue.append(Q_WEST)
    node.input_queue.append(P_EAST)
    node.process_input(0.0, sim)
    assert sim.per_node_encodes == {1: 1}
    assert sim.details == [("encode", 1, f"{Q_WEST.uid}+{P_EAST.uid}")]
    assert not node.input_queue
    [encoded] = node.output_queue
    assert ("encode", 1, str(encoded)) in sim.events
    assert encoded.key == (P_EAST.uid, Q_WEST.uid)
    assert encoded.payload == xor_encode(P_EAST, Q_WEST).payload
    # both originals are buffered, the mix is not; nothing counts as overheard
    assert node.buffer == {P_EAST.uid: P_EAST, Q_WEST.uid: Q_WEST}
    assert node.seen_overheard == set()


def test_relay_never_codes_under_non_coding():
    node, sim = relay_node(Scheme.NON_CODING)
    node.input_queue.append(Q_WEST)
    node.input_queue.append(P_EAST)
    node.process_input(0.0, sim)
    assert sim.per_node_encodes == {} and sim.details == []
    assert list(node.output_queue) == [Q_WEST, P_EAST]


def test_delivery_is_traced_before_it_is_reported():
    # a delivery's trace line comes first, so the trace shows it ahead of
    # whatever the simulation does in deliver, retirement included
    order = []
    sim = HookRecorder()
    sim.trace = sim.add = lambda now, node, event, pkt, detail="": order.append(event)
    sim.deliver = lambda pkt, now, mix=None: order.append("reported")
    Node(id=2, neighbors=(1,), scheme=Scheme.EXCODE).on_receive(P_EAST._replace(hop_index=2), 1.0, sim)
    p, q, encoded = arrived_mix()
    node = Node(id=2, neighbors=(1,), scheme=Scheme.EXCODE)
    hear(node, Q_WEST._replace(hop_index=0), 0.1, sim)
    node.on_receive(encoded, 2.0, sim)
    assert order == ["deliver", "reported", "overhear", "decode_deliver", "reported"]


def test_roles_deduplicate_independently():
    node, sim = relay_node()
    node.on_receive(P_EAST, 0.0, sim)
    hear(node, P_EAST, 0.0, sim)
    assert dup_discards(sim) == []
    hear(node, P_EAST, 0.0, sim)
    assert dup_discards(sim) == [("dup_discard", 1, str(P_EAST.uid))]


def dup_discards(sim):
    return [e for e in sim.events if e[0] == "dup_discard"]


def test_destination_delivers_and_buffers():
    node = Node(id=2, neighbors=(1,), scheme=Scheme.EXCODE)
    sim = HookRecorder()
    arriving = P_EAST._replace(hop_index=2, holders=frozenset({0, 1, 2}))
    node.input_queue.append(arriving)
    node.process_input(1.0, sim)
    assert sim.delivered == [(arriving, None)]  # delivered as sent, from no mix
    assert ("deliver", 2, str(arriving.uid)) in sim.events
    assert not node.output_queue
    assert node.buffer[arriving.uid] == arriving


def test_overheard_native_is_buffered_never_forwarded():
    node, sim = relay_node()
    hear(node, Q_WEST, 0.0, sim)
    assert node.buffer[Q_WEST.uid] == Q_WEST
    assert not node.output_queue
    assert sim.events == [("overhear", 1, str(Q_WEST.uid))]


def test_overheard_mix_decodes_against_known_original():
    node, sim = relay_node()
    hear(node, Q_WEST, 0.0, sim)
    encoded = xor_encode(P_EAST, Q_WEST)
    hear(node, encoded, 1.0, sim)
    recovered = node.buffer[P_EAST.uid]
    assert recovered.payload == P_EAST.payload
    assert P_EAST.uid in node.seen_overheard
    assert not node.output_queue
    assert ("early_decode", 1, str(P_EAST.uid)) in sim.events


def test_overheard_mix_without_any_original_is_not_kept():
    node, sim = relay_node()
    encoded = xor_encode(P_EAST, Q_WEST)
    hear(node, encoded, 1.0, sim)
    assert node.buffer == {}
    assert encoded.key in node.seen_overheard  # a repeat is still a duplicate
    assert sim.events == [("overhear", 1, str(encoded))]


def arrived_mix():
    # headers as sent by relay 1: both branches advanced to their custodians
    p = P_EAST._replace(hop_index=2, holders=frozenset({0, 1, 2}))
    q = Q_WEST._replace(hop_index=2, holders=frozenset({0, 1, 2}))
    return p, q, xor_encode(p, q)


def test_destination_decodes_addressed_mix():
    p, q, encoded = arrived_mix()
    node = Node(id=2, neighbors=(1,), scheme=Scheme.EXCODE)
    sim = HookRecorder()
    hear(node, Q_WEST._replace(hop_index=0), 0.1, sim)
    node.on_receive(encoded, 1.0, sim)
    # a decoded delivery names its mix, the native one names none
    node.on_receive(p._replace(uid=PacketUid(0, 1)), 2.0, sim)
    assert [(pkt.uid, mix) for pkt, mix in sim.delivered] == [(p.uid, encoded.key), (PacketUid(0, 1), None)]
    assert ("decode_deliver", 2, str(p.uid)) in sim.events
    delivered = sim.delivered[0][0]
    assert delivered.payload == P_EAST.payload
    assert not node.output_queue  # the other branch is not ours to carry


def test_decode_failure_is_counted_not_fatal():
    p, q, encoded = arrived_mix()
    node = Node(id=2, neighbors=(1,), scheme=Scheme.EXCODE)
    sim = HookRecorder()
    node.on_receive(encoded, 1.0, sim)
    assert sim.decode_failures == 1
    assert sim.details == [("decode_fail", 2, f"missing {q.uid}")]
    assert ("decode_fail", 2, str(encoded)) in sim.events
    assert not sim.delivered


def test_forward_keeps_only_own_branches():
    # node 2 is custodian of p's next leg; q's branch belongs to node 0
    p = native(0, 0, (0, 1, 2, 3), 2, {0, 1, 2})
    q = native(1, 0, (2, 1, 0), 2, {2, 1, 0})
    encoded = xor_encode(p, q)
    node = Node(id=2, neighbors=(1, 3), scheme=Scheme.EXCODE)
    sim = HookRecorder()
    node.on_receive(encoded, 1.0, sim)
    [out] = node.output_queue
    assert out is encoded  # queued as it came, not rebuilt
    assert out.carried(2) == (p._replace(payload=b""),)


def test_send_annotates_then_advances():
    neighbors = {0: frozenset({1, 5}), 1: frozenset({0, 2})}
    table = holder_table((0, 1, 2), neighbors.__getitem__)
    node = Node(id=0, neighbors=(1, 5), scheme=Scheme.EXCODE)
    sim = HookRecorder({0: table})
    fresh = native(0, 0, (0, 1, 2), 0, set())
    node.output_queue.append(fresh)
    tx = node.on_send(0.0, sim)
    assert tx.packet.holders == frozenset({0, 1, 5})
    assert tx.packet.holders is table[0]  # looked up, not built
    assert tx.packet.hop_index == 1
    assert tx.addressed == (1,)
    assert tx.sender == 0
    assert not node.output_queue


def test_send_encoded_advances_carried_branches_only():
    # mixed at node 0, whose send took p's branch to node 1 and q's to node 3
    p = native(0, 0, (0, 1, 2), 0, {0, 1, 3})
    q = native(1, 0, (0, 3, 4), 0, {0, 1, 3})
    encoded = xor_encode(p, q).sent(0)
    node = Node(id=1, neighbors=(0, 2), scheme=Scheme.EXCODE)
    node.output_queue.append(encoded)
    tx = node.on_send(0.0, HookRecorder())
    headers = {h.uid: h for h in tx.packet.constituents}
    assert headers[p.uid].hop_index == 2
    assert headers[q.uid].hop_index == 1  # frozen at node 3
    assert tx.addressed == (2,)


def test_send_with_empty_backlog():
    node, sim = relay_node()
    assert node.on_send(0.0, sim) is None


def test_reception_report_lists_only_natives():
    # a node's buffer is what its neighbors read as its reception report:
    # each native is announced once through native_buffered, the mix never
    node, sim = relay_node()
    encoded = xor_encode(P_EAST, Q_WEST)
    hear(node, Q_WEST, 0.0, sim)
    hear(node, encoded, 0.1, sim)
    assert set(node.buffer) == {Q_WEST.uid, P_EAST.uid}  # P_EAST recovered early
    assert sim.buffered == [(1, Q_WEST.uid), (1, P_EAST.uid)]
    assert all(isinstance(v, NativePacket) for v in node.buffer.values())
    assert all(isinstance(uid, PacketUid) for uid in node.buffer)


def test_everything_buffered_was_seen():
    # a node fed arbitrary interleavings buffers only natives it was handed,
    # alone or inside a mix, and marks every packet it overhears as seen
    rng = random.Random("node-walk")
    node = Node(id=1, neighbors=(0, 2), scheme=Scheme.EXCODE)
    sim = HookRecorder()
    handed, overheard = set(), set()
    for step in range(300):
        flow = rng.randrange(4)
        seq = rng.randrange(6)
        route = (0, 1, 2) if flow % 2 == 0 else (2, 1, 0)
        pkt = native(flow, seq, route, 1, set(route), payload=bytes([flow, seq]) * 3)
        if rng.random() < 0.3:
            other = native(
                (flow + 1) % 4, seq, route[::-1], 1, set(route),
                payload=bytes([seq, flow]) * 3,
            )
            pkt = xor_encode(pkt, other)
        handed.update(pkt.key if isinstance(pkt, EncodedPacket) else [pkt.uid])
        if rng.random() < 0.5:
            hear(node, pkt, float(step), sim)
            overheard.add(pkt.key)
        else:
            node.on_receive(pkt, float(step), sim)
        assert set(node.buffer) <= handed
        assert overheard <= node.seen_overheard
        node.output_queue.clear()


def test_empty_queue_is_not_scanned(monkeypatch):
    # no partner waits in an empty input queue, so the scan is skipped
    scans = []
    monkeypatch.setattr("xorsim.node.find_partner", lambda *args: scans.append(len(args[1])))
    node, sim = relay_node()
    node.input_queue.extend([P_EAST, Q_WEST])
    node.process_input(0.0, sim)
    assert scans == [1]  # P_EAST scanned the one entry behind it; Q_WEST found none
    assert list(node.output_queue) == [P_EAST, Q_WEST]


def test_capture_off_builds_no_coding_line(monkeypatch):
    # with capture off no encode, decode, early-decode or overhearing line is
    # made, so no detail is formatted
    monkeypatch.setattr(EncodedPacket, "__str__", lambda self: pytest.fail("a mix was formatted"))
    sim = HookRecorder(capture_trace=False)
    relay, _ = relay_node()
    relay.input_queue.extend([Q_WEST, P_EAST])
    relay.process_input(0.0, sim)  # encode
    listener = Node(id=0, neighbors=(1,), scheme=Scheme.EXCODE)
    for packet in (P_EAST, P_EAST, xor_encode(P_EAST, Q_WEST)):  # overhear, dup_discard, early_decode
        hear(listener, packet, 1.0, sim)
    p, q, encoded = arrived_mix()
    Node(id=2, neighbors=(1,), scheme=Scheme.EXCODE).on_receive(encoded, 2.0, sim)  # decode_fail
    destination = Node(id=2, neighbors=(1,), scheme=Scheme.EXCODE)
    destination.buffer[q.uid] = q
    destination.on_receive(encoded, 3.0, sim)  # decode_deliver
    assert listener.buffer.keys() == {P_EAST.uid, Q_WEST.uid}
    assert sim.decode_failures == 1 and [pkt.uid for pkt, _ in sim.delivered] == [p.uid]
    assert sim.events == [] and sim.details == []


# what a listener holds before a broadcast: of a native (Q_WEST) or of the mix
# P_EAST ^ Q_WEST. "relayed" holds a copy it was addressed, not the one heard
NATIVE_STATES = ("new", "relayed", "repeat")
MIX_STATES = ("repeat", "holds p", "holds q", "holds both", "holds neither")
RELAYED = Q_WEST._replace(hop_index=0)


def listener(n, state, packet):
    node = Node(id=n, neighbors=(), scheme=Scheme.EXCODE)
    held = {"relayed": [RELAYED], "repeat": [packet] if packet is Q_WEST else [P_EAST], "holds p": [P_EAST],
            "holds q": [Q_WEST], "holds both": [P_EAST, Q_WEST]}.get(state, [])
    node.buffer.update((native.uid, native) for native in held)
    if state == "repeat":
        node.seen_overheard.add(packet.key)
    return node


@settings(deadline=None)
@given(data=st.data())
def test_one_broadcast_is_each_listener_alone(data):
    # one overhear call serves every listener as a call per listener would,
    # in the same order: no listener's state leaks into the next one's
    mixed = data.draw(st.booleans())
    packet = xor_encode(P_EAST, Q_WEST) if mixed else Q_WEST
    neighbors = tuple(data.draw(st.lists(st.integers(0, 9), unique=True, max_size=6).map(sorted)))
    addressed = tuple(sorted(data.draw(st.sets(st.sampled_from(neighbors)) if neighbors else st.just(set()))))
    states = {n: data.draw(st.sampled_from(MIX_STATES if mixed else NATIVE_STATES)) for n in neighbors}
    capture = data.draw(st.booleans())
    together, alone = ({n: listener(n, state, packet) for n, state in states.items()} for _ in range(2))
    together_sim, alone_sim = HookRecorder(capture_trace=capture), HookRecorder(capture_trace=capture)
    overhear(together, neighbors, addressed, packet, 1.0, together_sim)
    for n in neighbors:
        if n not in addressed:
            overhear(alone, (n,), (), packet, 1.0, alone_sim)
    for n in neighbors:
        assert together[n].buffer == alone[n].buffer
        assert together[n].seen_overheard == alone[n].seen_overheard
        if states[n] == "relayed":
            assert together[n].buffer[RELAYED.uid] is RELAYED  # heard again, not replaced
        if n in addressed:  # an addressed node does not overhear
            untouched = listener(n, states[n], packet)
            assert (together[n].buffer, together[n].seen_overheard) == (untouched.buffer, untouched.seen_overheard)
    assert (together_sim.events, together_sim.details) == (alone_sim.events, alone_sim.details)
    assert together_sim.buffered == alone_sim.buffered
    if not capture:
        assert together_sim.events == []


def test_node_keyword_construction_starts_empty_and_idle():
    node = Node(id=3, neighbors=(2, 4), scheme=Scheme.COPE)
    assert (node.id, node.neighbors, node.scheme) == (3, (2, 4), Scheme.COPE)
    assert not node.input_queue and not node.output_queue
    assert node.buffer == {} and node.seen_overheard == set() and node.reports == {}
    assert node.transmitting is None


def test_nodes_share_no_container():
    # each node owns its queues, buffer, seen-set and reports: a shared
    # default would let one node's traffic show up at every other node
    a, b = (Node(id=i, neighbors=(), scheme=Scheme.EXCODE) for i in (0, 1))
    names = ("input_queue", "output_queue", "buffer", "seen_overheard", "reports")
    assert all(getattr(a, name) is not getattr(b, name) for name in names)
    a.input_queue.append(P_EAST)
    a.output_queue.append(P_EAST)
    a.buffer[P_EAST.uid] = P_EAST
    a.seen_overheard.add(P_EAST.uid)
    a.reports[1] = b.buffer
    assert all(not getattr(b, name) for name in names)


def test_per_node_method_patch_takes_effect():
    # the addressed-once property patches on_send on each node; the node's
    # instance dict must keep such a patch ahead of the class method
    node, sim = relay_node()
    other = Node(id=0, neighbors=(1,), scheme=Scheme.EXCODE)
    node.on_send = lambda now, sim: "patched"
    assert node.on_send(0.0, sim) == "patched"
    assert other.on_send.__func__ is Node.on_send


def test_transmission_is_built_positionally_with_slots():
    tx = Transmission(1, P_EAST, (2,))
    assert (tx.sender, tx.packet, tx.addressed) == (1, P_EAST, (2,))
    assert tx.end == math.inf
    tx.end = 0.25
    assert tx.end == 0.25
    assert Transmission(1, P_EAST, (2,), 0.5).end == 0.5
    assert not hasattr(tx, "__dict__")
    with pytest.raises(AttributeError):
        tx.extra = 1
