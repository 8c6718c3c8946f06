"""Coding-opportunity predicates and the partner scan.

Two discovery schemes are modeled. The holder-set scheme codes two relay
packets whenever each packet's final destination already holds a copy of the
other packet, as witnessed by the holder sets the packets carry. The
report-based baseline is an idealized two-hop scheme: it codes only when each
destination's reception report (its buffer itself, so always in sync, and
held by its neighbors alone) lists the other packet. Every report-based
opportunity is also a holder-set opportunity, because a neighbor that holds
a packet was necessarily adjacent to one of its previous senders and is
therefore in its holder set. Neither scheme mixes payloads of different
lengths: COPE pads the shorter one, and this model does not.

So none ⊆ cope ⊆ excode: on the same state, a narrower scheme finds a
partner only where a wider one does. cli.run_plan depends on this ordering:
it runs a field's widest scheme first and lets a run that coded nothing
stand in for the narrower schemes' runs (cli.stands_in_for_narrower).
"""

from __future__ import annotations

import enum
from typing import Container, Optional, Sequence

from .packet import NativePacket, PacketUid
from .topology import NodeId

ReceptionReports = dict[NodeId, Container[PacketUid]]


class Scheme(enum.Enum):
    NON_CODING = "none"
    COPE = "cope"
    EXCODE = "excode"

    def __str__(self) -> str:
        return self.value


def excode_can_code(p: NativePacket, q: NativePacket) -> bool:
    """Holder-set rule: each destination must appear in the other's holders.
    Same-flow pairs and payloads of different lengths never code."""
    if p.uid.flow == q.uid.flow:
        return False
    return p.dst in q.holders and q.dst in p.holders and len(p.payload) == len(q.payload)


def cope_can_code(p: NativePacket, q: NativePacket, reports: ReceptionReports) -> bool:
    """Two-hop report rule: each destination reports the other packet. reports
    has a key per neighbor of the relay and no other, so both destinations are
    neighbors. Same-flow pairs and payloads of different lengths never code."""
    if p.uid.flow == q.uid.flow:
        return False
    return (q.uid in reports.get(p.dst, ()) and p.uid in reports.get(q.dst, ())
            and len(p.payload) == len(q.payload))


def find_partner(p: NativePacket, queue: Sequence, scheme: Scheme, self_id: NodeId,
                 reports: ReceptionReports) -> Optional[int]:
    """Index of the first queued packet codable with p, front to back.

    The queue is a node's input queue of addressed arrivals. Only natives
    awaiting relay at this node are eligible: packets destined here are
    skipped, as is anything already encoded. Returns None under the
    non-coding scheme or when nothing matches. Nodes pass every argument
    positionally; the benchmark's scan sampler reads queue and scheme as the
    second and third.
    """
    if scheme is Scheme.NON_CODING:
        return None
    by_holders = scheme is Scheme.EXCODE
    for idx, cand in enumerate(queue):
        if not isinstance(cand, NativePacket) or cand.dst == self_id:
            continue
        if excode_can_code(p, cand) if by_holders else cope_can_code(p, cand, reports):
            return idx
    return None
