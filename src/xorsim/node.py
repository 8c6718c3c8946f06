"""Per-node protocol state: queues, packet buffer, receive/send behavior.

Addressed packets wait in a FIFO input queue until the node's radio is
idle; that waiting room is where crossing flows meet and become codable.
They are then handled one at a time, each through the same branch ladder:

1. packets destined here are delivered, decoding first when encoded;
2. anything else is relay traffic: under a coding scheme the node scans the
   rest of the input queue for a codable partner and, if one exists, XORs the
   pair into a single output-queue entry; otherwise the packet is queued for
   forwarding as-is.

No node is addressed the same key twice (see the README's Model), so only
overheard copies are checked for duplicates: a repeat is traced dup_discard.

The buffer holds natives only, by uid. Overheard copies carry no forwarding
obligation: overhear() serves a whole broadcast in one call, and each
listener buffers a native, or the native an overheard mix yields at once; a
mix it cannot decode is not kept. overhear()'s lines, and those with a
formatted detail, are built only while the simulation captures its trace.
The output queue drains one packet per transmission. A native takes its
route's holder set for the sending hop; a mix advances the branches its
sender carries.

Buffers and overheard sets hold only what is in flight. A node reports each
delivery, with the key of the mix it was decoded from, and takes no other
part in retirement: the simulation retires a delivered packet, once no copy
in flight can need it, from every buffer and overheard set that can hold it.
A delivery is traced before it is reported.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional

from .coding import ReceptionReports, Scheme, find_partner
from .packet import (
    EncodedPacket,
    NativePacket,
    Packet,
    annotate_holders,
    xor_decode,
    xor_encode,
)
from .topology import NodeId

if TYPE_CHECKING:
    from .simulator import Simulation


class Transmission:
    """One broadcast: every neighbor of the sender receives it."""

    __slots__ = ("sender", "packet", "addressed", "end")

    def __init__(self, sender: NodeId, packet: Packet, addressed: tuple[NodeId, ...], end: float = math.inf):
        self.sender = sender
        self.packet = packet
        self.addressed = addressed  # sorted; every other neighbor overhears
        self.end = end  # when it leaves the air; set as it goes on air


class Node:
    def __init__(self, id: NodeId, neighbors: tuple[NodeId, ...], scheme: Scheme):
        self.id = id
        self.neighbors = neighbors  # sorted
        self.scheme = scheme
        self.input_queue: deque = deque()  # addressed arrivals
        self.output_queue: deque = deque()
        self.buffer: dict = {}  # uid -> native
        self.seen_overheard: set = set()
        self.reports: ReceptionReports = {}  # each neighbor, and no other node -> its buffer
        self.transmitting: Optional[Transmission] = None  # the broadcast on air

    def process_input(self, now: float, sim: Simulation) -> None:
        """Drain the input queue in arrival order."""
        while self.input_queue:
            self.on_receive(self.input_queue.popleft(), now, sim)

    def on_receive(self, packet: Packet, now: float, sim: Simulation) -> None:
        """Handle one addressed packet: deliver it or relay it."""
        if isinstance(packet, EncodedPacket):
            self._handle_addressed_encoded(packet, now, sim)
        elif packet.dst != self.id:
            self._relay_native(packet, now, sim)
        else:
            self._buffer_native(packet, sim)
            sim.trace(now, self.id, "deliver", packet)
            sim.deliver(packet, now)

    def _relay_native(self, packet: NativePacket, now: float, sim: Simulation) -> None:
        self._buffer_native(packet, sim)  # the scan never reads this node's own buffer
        # no partner waits in an empty queue
        idx = find_partner(packet, self.input_queue, self.scheme, self.id, self.reports) if self.input_queue else None
        if idx is not None:
            partner = self.input_queue[idx]
            del self.input_queue[idx]
            self._buffer_native(partner, sim)
            encoded = xor_encode(packet, partner)
            self.output_queue.append(encoded)
            sim.per_node_encodes[self.id] += 1
            if sim.capture_trace:
                sim.trace(now, self.id, "encode", encoded, f"{packet.uid}+{partner.uid}")
            return
        self.output_queue.append(packet)
        sim.trace(now, self.id, "enqueue", packet)

    def _handle_addressed_encoded(self, packet: EncodedPacket, now: float, sim: Simulation) -> None:
        for header in packet.constituents:
            if header.custodian != self.id or header.dst != self.id:
                continue
            counterpart = packet.counterpart(header.uid)
            known = self.buffer.get(counterpart.uid)
            if known is not None:
                native = xor_decode(packet, known)
                self._buffer_native(native, sim)
                if sim.capture_trace:
                    sim.trace(now, self.id, "decode_deliver", native, f"from {packet}")
                sim.deliver(native, now, packet.key)
            else:
                sim.decode_failures += 1
                if sim.capture_trace:
                    sim.trace(now, self.id, "decode_fail", packet, f"missing {counterpart.uid}")
        self.forward_encoded(packet, now, sim)

    def forward_encoded(self, packet: EncodedPacket, now: float, sim: Simulation) -> None:
        """Queue an encoded packet onward as it came when this node carries
        any of its branches; queue nothing when it carries none. Never
        re-encodes and never splits the payload."""
        if not packet.carried(self.id):
            return
        self.output_queue.append(packet)
        sim.trace(now, self.id, "forward_encoded", packet)

    def on_send(self, now: float, sim: Simulation) -> Optional[Transmission]:
        """Pop the output-queue head and turn it into a broadcast."""
        if not self.output_queue:
            return None
        packet = self.output_queue.popleft()
        if isinstance(packet, NativePacket):
            packet = annotate_holders(packet, sim.holders_at[packet.uid.flow])
            addressed = (packet.custodian,)
        else:
            addressed = tuple(sorted({h.route[h.hop_index + 1] for h in packet.carried(self.id)}))
            packet = packet.sent(self.id)
        return Transmission(self.id, packet, addressed)

    def _buffer_native(self, packet: NativePacket, sim: Simulation) -> None:
        if packet.uid in self.buffer:
            return
        self.buffer[packet.uid] = packet
        sim.native_buffered(self.id, packet)


def overhear(nodes: list[Node], neighbors: tuple[NodeId, ...], addressed: tuple[NodeId, ...], packet: Packet,
             now: float, sim: Simulation) -> None:
    """Every neighbor of a broadcast's sender that it does not address
    overhears it, in id order, and buffers a native, or the native an
    overheard mix yields at once; nothing goes further."""
    key = packet.key
    capture = sim.capture_trace
    mixed = isinstance(packet, EncodedPacket)
    for n in neighbors:
        if n in addressed:
            continue
        seen = nodes[n].seen_overheard
        if key in seen:
            if capture:
                sim.trace(now, n, "dup_discard", packet, "overheard")
            continue
        seen.add(key)
        if capture:
            sim.trace(now, n, "overhear", packet)
        buffer = nodes[n].buffer
        if not mixed:
            if key not in buffer:
                buffer[key] = packet
                sim.native_buffered(n, packet)
            continue
        # holding one original lets the node pull out the other right away
        held = [h.uid for h in packet.constituents if h.uid in buffer]
        if len(held) == 1:
            native = xor_decode(packet, buffer[held[0]])
            seen.add(native.uid)
            buffer[native.uid] = native
            sim.native_buffered(n, native)
            if capture:
                sim.trace(now, n, "early_decode", native, f"from {packet}")
