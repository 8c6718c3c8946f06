"""Packet types, holder-set bookkeeping and the XOR codec.

Native packets carry a growing set of node ids ("holders") naming every node
known to hold a copy. Before each transmission the sender appends itself and
its 1-hop neighbors; since radio links are reliable broadcast, everyone in
the set really does hold the packet by the time anyone else can read it.
An encoded packet is the XOR of exactly two natives from different flows,
with each original's header frozen at encode time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

from .topology import NodeId

HOLDER_ID_BYTES = 4  # on-air cost of one holder entry


class Role(enum.Enum):
    """How a delivered packet relates to the receiver."""

    ADDRESSED = "addressed"
    OVERHEARD = "overheard"


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


@dataclass(frozen=True)
class NativePacket:
    uid: PacketUid
    dst: NodeId
    route: tuple[NodeId, ...]
    hop_index: int  # position of the current custodian on route
    holders: frozenset[NodeId]
    payload: bytes
    created_at: float

    @property
    def key(self) -> PacketUid:
        return self.uid

    def __str__(self) -> str:
        return str(self.uid)


@dataclass(frozen=True)
class ConstituentHeader:
    """One original's header, frozen when the encoded packet was built."""

    uid: PacketUid
    dst: NodeId
    route: tuple[NodeId, ...]
    hop_index: int
    holders: frozenset[NodeId]
    created_at: float
    active: bool = True

    @property
    def custodian(self) -> NodeId:
        return self.route[self.hop_index]


@dataclass(frozen=True)
class EncodedPacket:
    constituents: tuple[ConstituentHeader, ConstituentHeader]
    payload: bytes
    created_at: float

    @property
    def key(self) -> tuple[PacketUid, PacketUid]:
        a, b = self.constituents
        return (a.uid, b.uid) if a.uid <= b.uid else (b.uid, a.uid)

    def counterpart(self, which: Union[ConstituentHeader, PacketUid]) -> ConstituentHeader:
        uid = which.uid if isinstance(which, ConstituentHeader) else which
        a, b = self.constituents
        if uid == a.uid:
            return b
        if uid == b.uid:
            return a
        raise NotConstituentError(f"{uid} is not a constituent of {self}")

    def active_headers(self) -> tuple[ConstituentHeader, ...]:
        return tuple(c for c in self.constituents if c.active)

    def __str__(self) -> str:
        a, b = self.constituents
        return f"{a.uid}^{b.uid}"


Packet = Union[NativePacket, EncodedPacket]


def annotate_holders(packet: NativePacket, node: NodeId, neighbors: frozenset[NodeId]) -> NativePacket:
    """Holder entries added before a send: the sender plus its 1-hop neighbors."""
    return replace(packet, holders=packet.holders | {node} | neighbors)


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


def xor_encode(p: NativePacket, q: NativePacket, now: float) -> EncodedPacket:
    """XOR two natives from different flows into one encoded packet.

    Both headers are frozen as-is; later transmissions of the encoded packet
    never touch the embedded holder sets.
    """
    if p.uid.flow == q.uid.flow:
        raise SameFlowError(f"cannot encode {p.uid} with {q.uid}: same flow")
    first, second = (p, q) if p.uid <= q.uid else (q, p)
    return EncodedPacket(
        constituents=(_freeze(first), _freeze(second)),
        payload=xor_payloads(p.payload, q.payload),
        created_at=now,
    )


def xor_decode(encoded: EncodedPacket, known: NativePacket) -> NativePacket:
    """Recover the other constituent given one of the two originals."""
    other = encoded.counterpart(known.uid)
    return NativePacket(
        uid=other.uid,
        dst=other.dst,
        route=other.route,
        hop_index=other.hop_index,
        holders=other.holders,
        payload=xor_payloads(encoded.payload, known.payload),
        created_at=other.created_at,
    )


def _freeze(p: NativePacket) -> ConstituentHeader:
    return ConstituentHeader(
        uid=p.uid,
        dst=p.dst,
        route=p.route,
        hop_index=p.hop_index,
        holders=p.holders,
        created_at=p.created_at,
    )
