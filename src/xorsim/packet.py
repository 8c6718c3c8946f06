"""Packet types, holder-set bookkeeping and the XOR codec.

Native packets carry a set of node ids ("holders"): each sender so far and
its 1-hop neighbors, a function of route and hop that holder_table builds
once per route. Since radio links are reliable broadcast, everyone in the set
holds the packet by the time anyone else can read it.
An encoded packet is the XOR of exactly two natives from different flows. Its
header is COPE's: each native's uid and next hop. It keeps each native's own
header as mixed, without its payload, and a branch's next hop is the hop
after its custodian, which advances as the branch is carried. A node carries
on the branches it is custodian of that end elsewhere (EncodedPacket.carried);
the mix keeps no other record of which branches are live.

Both packet types are NamedTuples, so immutable: a hop, mix or decode builds
a new one rather than changing one in place. Every hop of every packet builds
one, and a tuple is built in about a third of the time a frozen dataclass
takes; _replace gives a copy with some fields changed. The hot paths build
through build_packet, which skips the Python-level __new__ that NamedTuple
generates.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, NamedTuple, Union

from .topology import NodeId

HOLDER_ID_BYTES = 4  # on-air cost of one holder entry

# build_packet(NativePacket, (uid, dst, ...)): a packet from all its fields in
# order, with no Python frame; the caller gives every field
build_packet = tuple.__new__


class SameFlowError(Exception):
    """Refused to encode two packets of the same flow."""


class LengthMismatchError(Exception):
    """Refused to encode payloads of different length."""


class NotConstituentError(Exception):
    """The supplied native is not part of the encoded packet."""


class PacketUid(NamedTuple):
    flow: int
    seq: int

    def __str__(self) -> str:
        return f"{self.flow}.{self.seq}"


class NativePacket(NamedTuple):
    uid: PacketUid
    dst: NodeId
    route: tuple[NodeId, ...]
    hop_index: int  # position of the current custodian on route
    holders: frozenset[NodeId]
    payload: bytes
    created_at: float

    @property
    def custodian(self) -> NodeId:
        return self.route[self.hop_index]

    def __str__(self) -> str:
        return str(self.uid)


# a native's key is its uid: the field's own getter, not a property over it
NativePacket.key = NativePacket.uid


class EncodedPacket(NamedTuple):
    # the two natives as mixed, sorted by uid, each with payload b""
    constituents: tuple[NativePacket, NativePacket]
    payload: bytes

    @property
    def key(self) -> tuple[PacketUid, PacketUid]:
        a, b = self.constituents
        return (a.uid, b.uid)

    def counterpart(self, uid: PacketUid) -> NativePacket:
        a, b = self.constituents
        if uid == a.uid:
            return b
        if uid == b.uid:
            return a
        raise NotConstituentError(f"{uid} is not a constituent of {self}")

    def carried(self, node: NodeId) -> tuple[NativePacket, ...]:
        """The branches node carries on: those it is custodian of that end
        elsewhere. A branch left behind keeps the custodian it had, which
        no later holder of this copy reaches (see the README's Model)."""
        return tuple(c for c in self.constituents if c.custodian == node and c.dst != node)

    def sent(self, sender: NodeId) -> EncodedPacket:
        """The mix as sender sends it: each branch it carries advanced a
        hop, the rest frozen where they stopped."""
        carried = self.carried(sender)
        return build_packet(EncodedPacket, (
            tuple(_native_at(c, c.hop_index + 1, c.holders, c.payload) if c in carried else c
                  for c in self.constituents),
            self.payload,
        ))

    def __str__(self) -> str:
        a, b = self.constituents
        return f"{a.uid}^{b.uid}"


Packet = Union[NativePacket, EncodedPacket]


def _native_at(p: NativePacket, hop_index: int, holders: frozenset[NodeId], payload: bytes) -> NativePacket:
    """p with a new hop, holder set and payload. A direct build: each send,
    mix and decode makes one, and _replace costs more per call."""
    return build_packet(NativePacket, (p.uid, p.dst, p.route, hop_index, holders, payload, p.created_at))


def holder_table(route: tuple[NodeId, ...], neighbors: Callable) -> tuple[frozenset[NodeId], ...]:
    """Entry h: the holders of a native sent from route[h], that is every
    sender so far plus its 1-hop neighbors."""
    return tuple(accumulate((neighbors(v) | {v} for v in route[:-1]), frozenset.union))


def annotate_holders(packet: NativePacket, holders_at: tuple[frozenset[NodeId], ...]) -> NativePacket:
    """The native as its custodian sends it: holders from the route's table,
    hop advanced to the next custodian."""
    hop = packet.hop_index
    return _native_at(packet, hop + 1, holders_at[hop], packet.payload)


def holder_overhead_bytes(packet: Packet) -> int:
    """On-air bytes of holder state carried by one transmission of packet."""
    if isinstance(packet, NativePacket):
        return HOLDER_ID_BYTES * len(packet.holders)
    return HOLDER_ID_BYTES * sum(len(c.holders) for c in packet.constituents)


def xor_payloads(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise LengthMismatchError(f"payload lengths differ: {len(a)} != {len(b)}")
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def xor_encode(p: NativePacket, q: NativePacket) -> EncodedPacket:
    """XOR two natives from different flows into one encoded packet.

    Both headers are kept as-is; later transmissions of the encoded packet
    advance each branch's hop but never touch the embedded holder sets.
    """
    if p.uid.flow == q.uid.flow:
        raise SameFlowError(f"cannot encode {p.uid} with {q.uid}: same flow")
    first, second = (p, q) if p.uid <= q.uid else (q, p)
    return build_packet(EncodedPacket, (
        (
            _native_at(first, first.hop_index, first.holders, b""),
            _native_at(second, second.hop_index, second.holders, b""),
        ),
        xor_payloads(p.payload, q.payload),
    ))


def xor_decode(encoded: EncodedPacket, known: NativePacket) -> NativePacket:
    """Recover the other constituent given one of the two originals."""
    other = encoded.counterpart(known.uid)
    return _native_at(other, other.hop_index, other.holders, xor_payloads(encoded.payload, known.payload))
