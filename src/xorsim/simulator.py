"""Deterministic discrete-event simulation of the store-and-forward radio net.

The heap holds generations and TX_ENDs, keyed by (time, ordinal); the
ordinal is a global schedule-order counter, so same-time events always
replay identically. Each flow keeps one pending generation, at a fixed
negative ordinal, so same-time generations run before every other event and
in flow order. The channel is idealized: every transmission reaches the
sender's whole neighborhood intact, with no interference, after one
serialization delay. A node's radio is half-duplex: it transmits one packet
at a time and works through its backlog whenever the radio goes idle.

A heap entry is (time, ordinal, handler, data), and run calls handler(sim,
data, time). The handler is the plain function off the class, such as
Simulation._on_tx_end, never a bound method: that would hold the simulation
from its own heap, a reference cycle that keeps a finished run alive until
the cyclic collector gets to it.

Wakes never go on the heap. An arrival, and the end of a node's own
transmission, mark the node due, in the order first asked; once no heap
event is left at now, run wakes each due node once, in that order, at now.
_arrive alone decides whether an arrival marks its node due: one at a node
whose radio stays busy strictly past now marks nothing, since the end of
that transmission will. A wake whose node has both queues empty returns before
the node's input handling.

Three facts make one wake per node and instant, in that order, do all the
work of the instant. Every TX_END at now runs before the wakes, since they
wait until the heap is past now, so no wake finds its radio busy. Wakes make
no arrivals, so once a node is woken nothing at now gives it more to do. And
a transmission started by a wake ends after now, except where its airtime
rounds away (now + airtime == now, at channel rates near 1e19 b/s and
above): that TX_END goes on the heap at now, behind the batch that started
it, and the wakes it asks for make the next batch.

State follows the packets in flight, not simulated time. A packet keeps its
payload only while in flight: delivery checks the payload against the one
sent and keeps a lean record, payload b"", unless they differ. Neither
generated (a read-only view, see GeneratedView) nor delivered (the plain
dict of those records) holds a payload that checked out. A delivered uid
leaves every node's buffer (so every cope report) and overheard set once no
copy in flight can need it: an unmixed uid at its delivery, a mixed one at
its mix's second delivery, since a destination decodes a mix against the
other native it holds. That second delivery ends the mix, and its key
leaves the overheard sets too. Only the nodes that can hold the uid are
visited: its route's last holder set, and for a mixed uid also the
partner's, since overhearers of the mix sent along the partner's route can
decode it early. Retiring cannot change a trace: any later reference to a
uid needs a copy of it in flight, and uids are never reused.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import math
import operator
import os
import shutil
import tempfile
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Optional

from .coding import Scheme
from .node import Node, Transmission, overhear
from .packet import EncodedPacket, NativePacket, PacketUid, build_packet, holder_overhead_bytes, holder_table
from .topology import NodeId, NoRouteError, Topology, shortest_path

DEFAULT_PACKET_SIZE = 512  # bytes
DEFAULT_CHANNEL_RATE = 2_000_000.0  # bit/s
DEFAULT_DURATION = 120.0  # seconds
MAX_PACKET_SIZE = 65_535  # bytes, the largest IP datagram: every payload is materialised


class ScenarioInvalidError(Exception):
    """A rule is broken, and the message names the field or config key at fault; nothing was simulated."""


# a ~340 B record per packet delivered is held until the run ends, each in flight whole
MAX_PACKETS = 1_000_000


# the kind a field's error names: "a <class>" for a class not listed
KIND_NAMES = {int: "an integer", float: "a real number", bool: "a bool", tuple: "a tuple of FlowSpecs"}
NUMBERS = {int: "__index__", float: "__float__"}  # a number is of any type with the method, but no bool
SYMBOLS = {operator.gt: ">", operator.ge: ">=", operator.le: "<="}  # the bound a field's error names


def _rule(kind: type, *bounds: tuple, **default):
    """A Scenario or FlowSpec field with the one statement of its rule: its kind, and the bounds, such
    as (operator.gt, 0), that its value must pass. One that defaults to None may be None. See check_field."""
    return field(**default, metadata={"kind": kind, "bounds": bounds})


@dataclass(frozen=True)
class FlowSpec:
    """One constant-bit-rate flow: packet k leaves the source at start + k/rate."""

    flow: int = _rule(int)
    src: NodeId = _rule(int)
    dst: NodeId = _rule(int)
    rate: float = _rule(float, (operator.gt, 0))  # packets per second
    packet_size: int = _rule(int, (operator.ge, 1), (operator.le, MAX_PACKET_SIZE), default=DEFAULT_PACKET_SIZE)
    start: float = _rule(float, (operator.ge, 0), default=0.0)
    stop: Optional[float] = _rule(float, default=None)  # defaults to scenario duration


@dataclass(frozen=True)
class Scenario:
    topology: Topology = _rule(Topology)
    flows: tuple[FlowSpec, ...] = _rule(tuple)
    scheme: Scheme = _rule(Scheme)
    duration: float = _rule(float, (operator.gt, 0), default=DEFAULT_DURATION)
    channel_rate: float = _rule(float, (operator.gt, 0), default=DEFAULT_CHANNEL_RATE)
    seed: int = _rule(int, default=0)
    count_header_overhead: bool = _rule(bool, default=False)
    drain_grace: float = _rule(float, (operator.ge, 0), default=0.0)
    capture_trace: bool = _rule(bool, default=True)


NO_HOLDERS: frozenset[NodeId] = frozenset()  # a native's holders before its first send

TRACE_BLOCK = 4096  # trace lines joined, encoded and spilled as one block


class TraceLog:
    """Append-only run log; one CSV-ish line per simulation event.

    Each line is f"{time!r},{node},{event},{packet},{detail}". Formatting is
    the cost of capture, and its two costly pieces repeat: many events share
    an instant, and each packet shows up on many lines. So add keeps the repr
    of the last time it formatted, and a label per packet key named by a
    pending line; a spill clears the labels with the lines, so there are
    never more labels than pending lines. The bytes are the ones the f-string
    gives.

    The log streams: as a block of TRACE_BLOCK lines fills, it is joined and
    encoded once, fed to a running sha256 and appended to an unnamed temp
    file, so memory holds fewer than TRACE_BLOCK lines however long the run.
    The file and the hash are made when the first block fills; a log that
    never fills one (capture off) opens no file and pickles. sha256, write,
    lines, iteration and len work at any point and leave the log open to
    more adds. close deletes the file, as dropping the log does.
    """

    def __init__(self) -> None:
        self._spill = None  # temp file of the full blocks, each line ending in a newline
        self._digest = None  # sha256 of the spill's bytes
        self._spilled = 0  # lines in the spill
        self._pending: list[str] = []  # fewer than TRACE_BLOCK lines
        self._block = TRACE_BLOCK
        self._time: Optional[float] = None
        self._time_repr = ""
        self._labels: dict = {}  # packet key -> str(packet), for the pending lines' keys

    def add(self, time: float, node: NodeId, event: str, packet, detail: str = "") -> None:
        """Append one line. time is a float, as every simulator clock value
        is; equal floats print alike, except 0.0 and -0.0, so a zero is always
        formatted afresh. packet is a native or a mix: its str depends on its
        key alone, so the label is cached by key, which keeps no packet alive."""
        if time != self._time or not time:
            self._time = time
            self._time_repr = repr(time)
        key = packet.key
        label = self._labels.get(key)
        if label is None:
            label = self._labels[key] = str(packet)
        pending = self._pending
        pending.append(f"{self._time_repr},{node},{event},{label},{detail}")
        if len(pending) == self._block:
            self._spill_pending()

    def _spill_pending(self) -> None:
        """Encode the full block of pending lines, hash it and append it to
        the spill file."""
        block = _encoded(self._pending)
        if self._spill is None:
            self._spill = tempfile.TemporaryFile()
            self._digest = hashlib.sha256()
        self._digest.update(block)
        self._spill.write(block)
        self._spilled += len(self._pending)
        self._pending = []
        self._labels.clear()

    def _copy_spill(self, fh) -> None:
        """Write every spilled byte to fh; later blocks still go to the end."""
        spill = self._spill
        if spill is None:
            return
        spill.seek(0)
        try:
            shutil.copyfileobj(spill, fh)
        finally:
            spill.seek(0, os.SEEK_END)

    @property
    def lines(self) -> list[str]:
        """Every line so far, without its newline; a new list on each read."""
        spilled = io.BytesIO()
        self._copy_spill(spilled)
        return spilled.getvalue().decode().split("\n")[:-1] + self._pending

    def sha256(self) -> str:
        digest = hashlib.sha256() if self._digest is None else self._digest.copy()
        digest.update(_encoded(self._pending))
        return digest.hexdigest()

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(b"time,node,event,packet_uid,detail\n")
            self._copy_spill(fh)
            fh.write(_encoded(self._pending))

    def close(self) -> None:
        """Delete the spill file. Its lines can no longer be read or written
        out, but sha256 and len still count them."""
        if self._spill is not None:
            self._spill.close()

    __del__ = close

    def __iter__(self):
        return iter(self.lines)

    def __len__(self) -> int:
        return self._spilled + len(self._pending)


def _encoded(lines: list[str]) -> bytes:
    """The lines as file bytes, each ending in a newline."""
    return ("\n".join(lines) + "\n").encode() if lines else b""


def payload_bytes(seed: int, uid: PacketUid, size: int) -> bytes:
    """Deterministic pseudo-random payload for packet uid under a run seed:
    the 64-byte BLAKE2b digest of a string naming both, repeated and cut to
    size, so no generator is seeded per packet."""
    block = hashlib.blake2b(f"payload:{seed}:{uid.flow}:{uid.seq}".encode()).digest()
    return (block * (size // 64 + 1))[:size]


def source_native(flow: FlowSpec, uid: PacketUid, route: tuple[NodeId, ...], payload: bytes) -> NativePacket:
    """Packet uid of flow as its source makes it: hop 0, no holders yet,
    created at flow.start + seq / flow.rate (the float its generation was
    scheduled at)."""
    return build_packet(NativePacket, (uid, flow.dst, route, 0, NO_HOLDERS, payload, flow.start + uid.seq / flow.rate))


class GeneratedView(Mapping):
    """Simulation.generated: uid -> every packet made so far as its source
    made it, read-only, iterated flow by flow and each flow in seq order.

    It holds no packet: each is built from its flow and seq on read, with
    payload b"", since delivery already compared every payload with the one
    sent. counts[i] is how many packets flow i (by position in the scenario)
    has made, and answers in."""

    def __init__(self, counts: list[int], flows: tuple[FlowSpec, ...], routes: dict) -> None:
        self.counts = counts
        self._flows = flows
        self._position = {f.flow: i for i, f in enumerate(flows)}
        self._routes = routes

    def __len__(self) -> int:
        return sum(self.counts)

    def __iter__(self):
        for flow, count in zip(self._flows, self.counts):
            for seq in range(count):
                yield PacketUid(flow.flow, seq)

    def __contains__(self, uid) -> bool:
        try:
            flow, seq = uid
            return seq in range(self.counts[self._position[flow]])
        except (TypeError, ValueError, KeyError):  # not a (flow, seq) of this run
            return False

    def __getitem__(self, uid) -> NativePacket:
        if uid not in self:
            raise KeyError(uid)
        flow, seq = uid
        return source_native(self._flows[self._position[flow]], PacketUid(flow, seq), self._routes[flow], b"")


class Simulation:
    """One run. Build it, call run(), then read counters or finalize metrics."""

    def __init__(self, scenario: Scenario):
        scenario, self.routes = validate_scenario(scenario)
        self.scenario = scenario
        topo = scenario.topology
        self.nodes: list[Node] = [
            Node(id=i, neighbors=tuple(sorted(topo.neighbors(i))), scheme=scenario.scheme)
            for i in range(topo.n)
        ]
        # a cope reception report is the neighbor's buffer itself, held by its neighbors alone
        for node in self.nodes:
            node.reports = {nb: self.nodes[nb].buffer for nb in node.neighbors}
        self.holders_at = {flow: holder_table(route, topo.neighbors) for flow, route in self.routes.items()}
        self.trace_log = TraceLog()
        self.capture_trace = scenario.capture_trace  # read on every event, by the nodes too
        self._excode = scenario.scheme is Scheme.EXCODE
        self.holder_bytes_on_air = scenario.count_header_overhead and self._excode  # airtimes carry holder bytes
        self._tx_details: dict[tuple[NodeId, ...], str] = {}  # addressed -> tx_start detail
        self._heap: list = []  # generations and TX_ENDs
        self._ordinal = 0
        self._due: dict[NodeId, None] = {}  # nodes to wake at the current instant, in order asked

        # a packet's payload is kept only while it is in flight: the hop-0
        # native until delivery, which checks the payload against it
        self._in_flight: dict[PacketUid, NativePacket] = {}
        self._gen_counts = [0] * len(scenario.flows)  # packets made, by flow position
        self.generated = GeneratedView(self._gen_counts, scenario.flows, self.routes)
        # uid -> (time, packet as delivered), in delivery order; payload b""
        # when it matched the one sent, the bytes received when it did not
        self.delivered: dict[PacketUid, tuple[float, NativePacket]] = {}
        self.double_deliveries = 0
        self.total_tx = 0
        self.tx_encoded = 0
        self.per_node_encodes: Counter[NodeId] = Counter()
        self.decode_failures = 0
        self.holder_bytes_total = 0

        for i in range(len(scenario.flows)):
            self._schedule_gen(i, 0)

    def __getstate__(self) -> dict:
        """Pickle delivered as columns (times, flows, seqs, the packets' other
        fields; a key is its packet's uid): no Python call per record."""
        times, packets = zip(*self.delivered.values()) if self.delivered else ((), ())
        flows, seqs = zip(*self.delivered) if self.delivered else ((), ())
        return {**self.__dict__, "delivered": (times, flows, seqs, *list(zip(*packets))[1:])}

    def __setstate__(self, state: dict) -> None:
        times, flows, seqs, *rest = state["delivered"]
        uids = list(map(tuple.__new__, repeat(PacketUid), zip(flows, seqs)))
        packets = map(tuple.__new__, repeat(NativePacket), zip(uids, *rest))
        self.__dict__.update(state, delivered=dict(zip(uids, zip(times, packets))))

    # -- event plumbing ----------------------------------------------------

    def _schedule_gen(self, i: int, k: int) -> None:
        """Put packet k of flow i on the heap, at ordinal i - len(flows),
        unless it falls at or after the flow's stop."""
        flows = self.scenario.flows
        flow = flows[i]
        stop = self.scenario.duration if flow.stop is None else min(flow.stop, self.scenario.duration)
        t = flow.start + k / flow.rate
        if t < stop:
            heapq.heappush(self._heap, (t, i - len(flows), Simulation._on_gen, (i, k)))

    def run(self) -> "Simulation":
        """Pop heap events in (time, ordinal) order up to the end. Once no
        heap event is left at the current instant, wake the nodes due, each
        once, in the order they were first asked (see the module docstring)."""
        end = self.scenario.duration + self.scenario.drain_grace
        heap, pop, due, wake = self._heap, heapq.heappop, self._due, self._on_wake
        while heap and heap[0][0] <= end:
            time, _, handler, data = pop(heap)
            handler(self, data, time)
            if due and (not heap or heap[0][0] > time):
                for node_id in due:
                    wake(node_id, time)
                due.clear()
        return self

    def _on_gen(self, data, now: float) -> None:
        i, seq = data
        self._schedule_gen(i, seq + 1)
        flow = self.scenario.flows[i]
        uid = PacketUid(flow.flow, seq)
        payload = payload_bytes(self.scenario.seed, uid, flow.packet_size)
        packet = source_native(flow, uid, self.routes[flow.flow], payload)
        self._in_flight[uid] = packet
        self._gen_counts[i] = seq + 1
        if self.capture_trace:
            self.trace_log.add(now, flow.src, "gen", packet)
        self._arrive(self.nodes[flow.src], packet, now)

    def _on_tx_end(self, tx: Transmission, now: float) -> None:
        sender = self.nodes[tx.sender]
        sender.transmitting = None
        if self.capture_trace:
            self.trace_log.add(now, tx.sender, "tx_end", tx.packet)
        # overhearing is pure listening: one call lands the broadcast in every
        # overhearer's buffer the moment it ends, ahead of the addressed
        # arrivals and never competing with the radio's work
        nodes, packet, addressed = self.nodes, tx.packet, tx.addressed
        overhear(nodes, sender.neighbors, addressed, packet, now, self)
        for receiver in addressed:
            self._arrive(nodes[receiver], packet, now)
        self._due[tx.sender] = None

    def _arrive(self, node: Node, packet, now: float) -> None:
        """Queue an addressed packet at node and mark it due to wake at now,
        unless its radio stays busy past now (see the module docstring). A
        TX_END at now runs before the instant's wakes, so that node still
        gets its wake. A node already due keeps its place."""
        node.input_queue.append(packet)
        tx = node.transmitting
        if tx is None or tx.end <= now:
            self._due[node.id] = None

    def _on_wake(self, node_id: NodeId, now: float) -> None:
        node = self.nodes[node_id]
        if not (node.input_queue or node.output_queue):
            return
        node.process_input(now, self)
        tx = node.on_send(now, self)
        if tx is None:
            return
        node.transmitting = tx
        packet = tx.packet
        self.total_tx += 1
        if isinstance(packet, EncodedPacket):
            self.tx_encoded += 1
        size = len(packet.payload)
        if self._excode:
            holder_bytes = holder_overhead_bytes(packet)
            self.holder_bytes_total += holder_bytes
            if self.holder_bytes_on_air:
                size += holder_bytes
        if self.capture_trace:
            detail = self._tx_details.get(tx.addressed)
            if detail is None:
                detail = self._tx_details[tx.addressed] = "to=" + "|".join(map(str, tx.addressed))
            self.trace_log.add(now, node_id, "tx_start", packet, detail)
        tx.end = end = now + 8.0 * size / self.scenario.channel_rate
        heapq.heappush(self._heap, (end, self._ordinal, Simulation._on_tx_end, tx))
        self._ordinal += 1

    # -- hooks called by nodes ---------------------------------------------

    def trace(self, now: float, node: NodeId, event: str, packet) -> None:
        """The nodes' deliver, enqueue and forward_encoded lines, until ROADMAP
        item 1 lets item 3 guard them at the call site as every other line is."""
        if self.capture_trace:
            self.trace_log.add(now, node, event, packet)

    def deliver(self, packet: NativePacket, now: float, mix: Optional[tuple[PacketUid, PacketUid]] = None) -> None:
        """Record a first delivery and drop the packet's in-flight record.
        The payload is compared with the one sent: unless the packet was
        decoded it is the same object, and == returns at once. A match is
        stored lean, with payload b""; a mismatch is stored whole. mix is the
        key of the mix the packet was decoded from: the packet retires at
        once when it has none, and with its partner when the partner is
        already delivered, the mix's key going with them."""
        uid = packet.uid
        delivered = self.delivered
        if uid in delivered:
            self.double_deliveries += 1
            return
        sent = self._in_flight.pop(uid, None)
        if sent is not None and packet.payload == sent.payload:
            packet = build_packet(NativePacket, (uid, packet.dst, packet.route, packet.hop_index,
                                                 packet.holders, b"", packet.created_at))
        delivered[uid] = (now, packet)
        if mix is None:
            self._retire(uid, self.holders_at[uid.flow][-1])
        elif mix[0] in delivered and mix[1] in delivered:
            a, b = mix
            scope = self.holders_at[a.flow][-1] | self.holders_at[b.flow][-1]
            for key in (a, b, mix):
                self._retire(key, scope)

    def native_buffered(self, node: NodeId, packet: NativePacket) -> None:
        """A node buffered a native; the neighbors' reports already show it."""

    def _retire(self, key, scope) -> None:
        """Drop the key of a delivered uid, or of the dead mix that held two,
        from the buffers and overheard sets in scope."""
        nodes = self.nodes
        for n in scope:
            node = nodes[n]
            node.buffer.pop(key, None)
            node.seen_overheard.discard(key)

    @property
    def encode_count(self) -> int:
        return sum(self.per_node_encodes.values())


def validate_scenario(scenario: Scenario) -> tuple[Scenario, dict[int, tuple[NodeId, ...]]]:
    """Check a scenario in one pass: its fields' rules (see _rule), its flows'
    (see check_flows), then the packet cap. Return it, each time and rate a
    plain float, with each flow's route by flow id."""
    scenario = _checked(scenario, "")
    flows = check_flows(scenario.flows, scenario.topology.n)
    if any(map(operator.is_not, flows, scenario.flows)):
        scenario = replace(scenario, flows=flows)
    if (packets := packet_count(flows, scenario.duration)) > MAX_PACKETS:
        raise ScenarioInvalidError(f"flows would generate {packets:.6g} packets, more than {MAX_PACKETS:,}")
    routes, topo = {}, scenario.topology
    for i, f in enumerate(flows):  # one BFS table per destination serves every flow routed to it
        try:
            routes[f.flow] = shortest_path(topo, f.src, f.dst, topo.distances_to(f.dst))
        except NoRouteError:
            raise ScenarioInvalidError(f"flows[{i}]: no route from {f.src} to {f.dst}") from None
    return scenario, routes


def packet_count(flows: tuple[FlowSpec, ...], duration: float) -> float:
    """The packets flows generate in a run: the sum of rate x (min(stop, duration) - start)."""
    return sum(f.rate * max(0.0, (duration if f.stop is None else min(f.stop, duration)) - f.start) for f in flows)


def check_flows(flows: tuple[FlowSpec, ...], nodes: int, key: str = "flows") -> tuple[FlowSpec, ...]:
    """flows, each checked against its fields' rules, then against the rules
    between fields: its endpoints are nodes 0..nodes-1 and differ, its stop,
    if set, is >= its start, and its id is no earlier flow's. An error names
    flow i as key[i]."""
    if not all(isinstance(f, FlowSpec) for f in flows):
        raise ScenarioInvalidError(f"{key} must be {KIND_NAMES[tuple]}, not {flows!r}")
    flows = tuple(_checked(f, f"{key}[{i}].") for i, f in enumerate(flows))
    first: dict[int, int] = {}  # flow id -> the position of the first flow with it
    for i, f in enumerate(flows):
        at = f"{key}[{i}]."
        for end in ("src", "dst"):
            if not 0 <= getattr(f, end) < nodes:
                raise ScenarioInvalidError(f"{at}{end} must be >= 0 and <= {nodes - 1}")
        if f.src == f.dst:
            raise ScenarioInvalidError(f"{at}dst must differ from {at}src")
        if f.stop is not None and f.stop < f.start:
            raise ScenarioInvalidError(f"{at}stop must be >= {f.start}")
        if first.setdefault(f.flow, i) != i:
            raise ScenarioInvalidError(f"{at}flow must differ from {key}[{first[f.flow]}].flow")
    return flows


def _checked(record, where: str):
    """record, each field checked with where before its name; itself unless a number became a float."""
    declared = record.__dataclass_fields__  # fields(record), without its cost on each call
    checked = {name: check_field(f, where + name, getattr(record, name)) for name, f in declared.items()}
    return record if all(v is getattr(record, k) for k, v in checked.items()) else replace(record, **checked)


def check_field(declared, name: str, value):
    """value, checked against the rule of the field declared (see _rule; a config key's is alike) and
    named name in an error. A real number must be finite and comes back a plain float: any other number
    type would become the clock, which the trace prints by repr (np.float64(0.0), not 0.0)."""
    kind = declared.metadata["kind"]
    if value is None and declared.default is None:
        return value
    number = NUMBERS.get(kind)
    if not (hasattr(value, number) and not isinstance(value, bool) if number else isinstance(value, kind)):
        raise ScenarioInvalidError(f"{name} must be {KIND_NAMES.get(kind) or 'a ' + kind.__name__}, not {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ScenarioInvalidError(f"{name} must be finite")
    for op, limit in declared.metadata["bounds"]:
        if not op(value, limit):
            raise ScenarioInvalidError(f"{name} must be {SYMBOLS[op]} {limit}")
    return value


def run(scenario: Scenario) -> Simulation:
    """Simulate one scenario to completion."""
    return Simulation(scenario).run()


# -- post-run invariant audits ----------------------------------------------


def audit_conservation(sim: Simulation) -> list[str]:
    """Every generated packet must be in exactly one place: delivered, queued
    at its current custodian, or inside a node's transmission on air. A mix
    counts a branch in n's input queue if n is its custodian, in n's output
    queue if n carries it, and on air if its custodian is addressed."""
    places: dict[PacketUid, list[str]] = {}

    def put(uid: PacketUid, where: str) -> None:
        places.setdefault(uid, []).append(where)

    def put_packet(pkt, where: str, branches) -> None:
        for h in (pkt,) if isinstance(pkt, NativePacket) else branches(pkt):
            put(h.uid, where)

    for node in sim.nodes:
        n, tx = node.id, node.transmitting
        for pkt in node.input_queue:
            put_packet(pkt, f"input:{n}", lambda mix: [h for h in mix.constituents if h.custodian == n])
        for pkt in node.output_queue:
            put_packet(pkt, f"output:{n}", lambda mix: mix.carried(n))
        if tx is not None:
            put_packet(tx.packet, f"air:{n}", lambda mix: [h for h in mix.constituents if h.custodian in tx.addressed])
    for uid in sim.delivered:
        put(uid, "delivered")

    violations = []
    for uid in sim.generated:
        spots = places.get(uid, [])
        if len(spots) != 1:
            violations.append(f"{uid}: found in {spots or 'nowhere'}")
    for uid in places:
        if uid not in sim.generated:
            violations.append(f"{uid}: never generated")
    if sim.double_deliveries:
        violations.append(f"{sim.double_deliveries} duplicate deliveries")
    return violations


def fifo_violations(sim: Simulation) -> list[str]:
    """Per flow, delivered sequence numbers must be strictly increasing."""
    bad = []
    last: dict[int, int] = {}
    for flow, seq in sim.delivered:
        if flow in last and seq <= last[flow]:
            bad.append(f"flow {flow}: seq {seq} delivered after {last[flow]}")
        last[flow] = seq
    return bad


def audit(sim: Simulation) -> list[str]:
    """Every fault of a finished run: conservation, per-flow FIFO order, decode
    failures, and deliveries stored whole (their bytes differed from those sent)."""
    problems = audit_conservation(sim) + fifo_violations(sim)
    if sim.decode_failures:
        problems.append(f"{sim.decode_failures} decode failures")
    whole = sum(1 for _, packet in sim.delivered.values() if packet.payload)
    if whole:
        problems.append(f"{whole} corrupt deliveries")
    return problems
