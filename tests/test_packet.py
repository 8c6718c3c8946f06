import pytest
from hypothesis import given, settings, strategies as st

from xorsim.packet import (
    HOLDER_ID_BYTES,
    EncodedPacket,
    LengthMismatchError,
    NativePacket,
    NotConstituentError,
    PacketUid,
    SameFlowError,
    annotate_holders,
    holder_overhead_bytes,
    holder_table,
    xor_decode,
    xor_encode,
    xor_payloads,
)
from xorsim.topology import build_topology, hop_distances, random_layout, shortest_path


def make_native(flow, seq, route, payload, created_at=0.0, hop_index=0):
    return NativePacket(
        uid=PacketUid(flow, seq),
        dst=route[-1],
        route=tuple(route),
        hop_index=hop_index,
        holders=frozenset({route[0]}),
        payload=payload,
        created_at=created_at,
    )


def test_xor_payloads_known_vector():
    assert xor_payloads(b"\x0f\xf0\xaa", b"\xff\x00\xaa") == b"\xf0\xf0\x00"
    assert xor_payloads(b"", b"") == b""


def test_xor_payloads_length_mismatch():
    with pytest.raises(LengthMismatchError):
        xor_payloads(b"ab", b"abc")


def test_encode_decode_roundtrip_basic():
    p = make_native(0, 0, (0, 1, 2), b"hello world!")
    q = make_native(1, 0, (2, 1, 0), b"HELLO WORLD?")
    e = xor_encode(p, q)
    assert e.payload == xor_payloads(p.payload, q.payload)
    assert xor_decode(e, q) == p
    assert xor_decode(e, p) == q


def test_encode_is_commutative():
    p = make_native(0, 3, (0, 1, 2), bytes(range(16)))
    q = make_native(1, 5, (2, 1, 0), bytes(reversed(range(16))))
    assert xor_encode(p, q) == xor_encode(q, p)


def test_xor_is_involution():
    a = bytes(range(8))
    b = b"\xff" * 8
    assert xor_payloads(xor_payloads(a, b), b) == a
    assert xor_payloads(a, a) == b"\x00" * 8


def test_encode_rejects_same_flow():
    p = make_native(0, 0, (0, 1, 2), b"aaaa")
    q = make_native(0, 1, (0, 1, 2), b"bbbb")
    with pytest.raises(SameFlowError):
        xor_encode(p, q)


def test_encode_rejects_length_mismatch():
    p = make_native(0, 0, (0, 1, 2), b"aaaa")
    q = make_native(1, 0, (2, 1, 0), b"bb")
    with pytest.raises(LengthMismatchError):
        xor_encode(p, q)


def test_decode_requires_a_constituent():
    p = make_native(0, 0, (0, 1, 2), b"aaaa")
    q = make_native(1, 0, (2, 1, 0), b"bbbb")
    r = make_native(2, 0, (0, 1, 2), b"cccc")
    e = xor_encode(p, q)
    with pytest.raises(NotConstituentError):
        xor_decode(e, r)


def test_encoded_header_snapshot_and_counterpart():
    p = make_native(0, 0, (0, 1, 2), b"x" * 4, hop_index=1)._replace(holders=frozenset({0, 1}))
    q = make_native(1, 0, (2, 1, 0), b"y" * 4, hop_index=1)._replace(holders=frozenset({2, 1}))
    e = xor_encode(p, q)
    by_uid = {h.uid: h for h in e.constituents}
    assert by_uid[p.uid].holders == frozenset({0, 1})
    assert by_uid[p.uid].custodian == 1
    assert e.carried(1) == e.constituents  # both go on from the mixing relay
    assert e.counterpart(p.uid).uid == q.uid
    assert e.counterpart(q.uid).uid == p.uid
    with pytest.raises(NotConstituentError):
        e.counterpart(PacketUid(9, 9))


def test_constituents_carry_headers_not_payloads():
    # a mix holds each native's header as mixed; only the XOR carries data,
    # so decoding cannot skip the XOR
    p = make_native(0, 0, (0, 1, 2), b"pppp", created_at=0.25, hop_index=1)
    q = make_native(1, 0, (2, 1, 0), b"qqqq", created_at=0.5, hop_index=1)
    e = xor_encode(p, q)
    assert [c.payload for c in e.constituents] == [b"", b""]
    assert list(e.constituents) == [p._replace(payload=b""), q._replace(payload=b"")]
    assert e.payload != b""


def test_packets_are_immutable():
    p = make_native(0, 0, (0, 1, 2), b"pppp")
    q = make_native(1, 0, (2, 1, 0), b"qqqq")
    for packet in (p, xor_encode(p, q)):
        for name in (*type(packet)._fields, "key"):
            with pytest.raises(AttributeError):
                setattr(packet, name, getattr(packet, name))


def test_fast_builds_are_whole_packets():
    # build_packet skips the constructor's field count check, so every path
    # that uses it must give a packet of its own class with every field
    p = make_native(0, 0, (0, 1, 2), b"pppp")
    q = make_native(1, 0, (2, 1, 0), b"qqqq")
    relay = 1
    mix = xor_encode(p._replace(hop_index=relay), q._replace(hop_index=relay))
    sent = annotate_holders(p, (frozenset({0, 1}), frozenset({0, 1, 2})))
    assert sent == p._replace(hop_index=1, holders=frozenset({0, 1}))
    for packet in (sent, mix, *mix.constituents, mix.sent(relay), *mix.sent(relay).constituents,
                   xor_decode(mix, p)):
        assert type(packet) in (NativePacket, EncodedPacket)
        assert type(packet)._make(packet) == packet  # _make checks the count
    assert xor_decode(mix, p) == q._replace(hop_index=relay)


def test_constituents_sorted_by_uid():
    p = make_native(5, 2, (0, 1, 2), b"pppp")
    q = make_native(1, 7, (2, 1, 0), b"qqqq")
    e = xor_encode(p, q)
    assert [h.uid for h in e.constituents] == sorted([p.uid, q.uid])
    assert e.key == (q.uid, p.uid)


def test_annotate_holders_union_and_monotonicity():
    neighbors = {0: frozenset({1, 3}), 1: frozenset({0, 2})}
    table = holder_table((0, 1, 2), neighbors.__getitem__)
    assert table == (frozenset({0, 1, 3}), frozenset({0, 1, 2, 3}))
    p = make_native(0, 0, (0, 1, 2), b"zzzz")
    grown = annotate_holders(p, table)
    assert (grown.holders, grown.hop_index) == (table[0], 1)
    again = annotate_holders(grown, table)
    assert (again.holders, again.hop_index) == (table[1], 2)
    assert grown.holders <= again.holders
    # annotation touches nothing but the holder set and the hop
    assert again._replace(holders=p.holders, hop_index=0) == p


def test_holder_overhead_is_four_bytes_per_id():
    assert HOLDER_ID_BYTES == 4
    p = make_native(0, 0, (0, 1, 2), b"....")._replace(holders=frozenset({0, 1, 2, 3, 4}))
    assert holder_overhead_bytes(p) == 20
    q = make_native(1, 0, (2, 1, 0), b"....")._replace(holders=frozenset({2, 1}))
    assert holder_overhead_bytes(xor_encode(p, q)) == 28


@settings(max_examples=200, deadline=None)
@given(
    payload_a=st.binary(min_size=0, max_size=64),
    payload_b=st.binary(min_size=0, max_size=64),
)
def test_roundtrip_property(payload_a, payload_b):
    size = min(len(payload_a), len(payload_b))
    p = make_native(0, 0, (0, 1, 2), payload_a[:size])
    q = make_native(1, 0, (2, 1, 0), payload_b[:size])
    e = xor_encode(p, q)
    assert xor_decode(e, q) == p
    assert xor_decode(e, p) == q


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 10**6), data=st.data())
def test_holder_annotation_only_grows(n, seed, data):
    # on a random field and route, the table is the union the paper builds
    # send by send: each sender appends itself and its 1-hop neighbors
    topo = build_topology(random_layout(n, 800.0, seed), 250.0)
    src = data.draw(st.integers(0, n - 1))
    reachable = [v for v, d in enumerate(hop_distances(topo, src)) if d < float("inf")]
    route = shortest_path(topo, src, data.draw(st.sampled_from(reachable)))
    table = holder_table(route, topo.neighbors)
    assert len(table) == len(route) - 1
    packet = make_native(0, 0, route, b"abcd")._replace(holders=frozenset())
    holders = frozenset()
    for h, sender in enumerate(route[:-1]):
        grown = holders | {sender} | topo.neighbors(sender)
        assert holders <= grown == table[h]
        packet = annotate_holders(packet, table)
        assert (packet.holders, packet.custodian) == (grown, route[h + 1])
        holders = grown
