import random

from xorsim.coding import Scheme, cope_can_code, excode_can_code, find_partner
from xorsim.packet import NativePacket, PacketUid, xor_encode


def native(flow, seq, route, *, holders=None, hop_index=0, payload=b"\x00" * 4):
    route = tuple(route)
    return NativePacket(
        uid=PacketUid(flow, seq),
        dst=route[-1],
        route=route,
        hop_index=hop_index,
        holders=frozenset(holders) if holders is not None else frozenset({route[0]}),
        payload=payload,
        created_at=0.0,
    )


# Holder tables as they stand at the junction relay after each packet's first
# leg: p heading to 6 has been heard around its source, q heading to 1 has
# crossed two hops and is known well beyond the relay's own horizon.
P_AT_RELAY = native(0, 0, (0, 2, 4, 6), holders={0, 1, 2}, hop_index=1)
Q_AT_RELAY = native(1, 0, (5, 3, 2, 1), holders={2, 3, 4, 5, 6}, hop_index=2)


def test_holder_rule_accepts_crossing_pair():
    assert excode_can_code(P_AT_RELAY, Q_AT_RELAY)
    assert excode_can_code(Q_AT_RELAY, P_AT_RELAY)


def test_holder_rule_needs_both_destinations_covered():
    q_short = Q_AT_RELAY._replace(holders=frozenset({2, 3, 4, 5}))  # 6 missing
    assert not excode_can_code(P_AT_RELAY, q_short)
    p_short = P_AT_RELAY._replace(holders=frozenset({0, 2}))  # 1 missing
    assert not excode_can_code(p_short, Q_AT_RELAY)


def test_holder_rule_rejects_same_flow():
    twin = Q_AT_RELAY._replace(uid=PacketUid(0, 9))
    assert not excode_can_code(P_AT_RELAY, twin)


def test_rules_reject_payloads_of_different_lengths():
    # XOR needs equal lengths; COPE pads the shorter payload, xorsim does
    # not code such a pair, under either rule
    short = Q_AT_RELAY._replace(payload=b"\x00" * 2)
    assert not excode_can_code(P_AT_RELAY, short)
    assert not excode_can_code(short, P_AT_RELAY)
    assert find_partner(P_AT_RELAY, [short, Q_AT_RELAY], Scheme.EXCODE, **scan_args()) == 1

    p = native(0, 0, (0, 1, 2), hop_index=1)
    q = native(1, 0, (2, 1, 0), hop_index=1)
    reports = {0: {p.uid}, 2: {q.uid}}
    longer = q._replace(payload=b"\x00" * 8)
    assert cope_can_code(p, q, reports)
    assert not cope_can_code(p, longer, reports)
    assert not cope_can_code(longer, p, reports)


def test_report_rule_two_hop_exchange():
    # relay 1 between endpoints 0 and 2, each holding the packet it sourced
    p = native(0, 0, (0, 1, 2), hop_index=1)
    q = native(1, 0, (2, 1, 0), hop_index=1)
    reports = {0: {p.uid}, 2: {q.uid}}  # one per neighbor of relay 1
    assert cope_can_code(p, q, reports)
    assert cope_can_code(q, p, reports)


def test_report_rule_needs_adjacent_destinations():
    p = native(0, 0, (0, 2, 4, 6), hop_index=1)  # dst 6 is two hops out
    q = native(1, 0, (6, 4, 2, 0), hop_index=2)
    reports = {0: {p.uid}, 3: set(), 4: set()}  # relay 2 holds no report from 6
    assert not cope_can_code(p, q, reports)


def test_report_rule_needs_both_reports():
    p = native(0, 0, (0, 1, 2), hop_index=1)
    q = native(1, 0, (2, 1, 0), hop_index=1)
    assert not cope_can_code(p, q, {0: {p.uid}, 2: set()})
    assert not cope_can_code(p, q, {0: set(), 2: {q.uid}})
    assert not cope_can_code(p, q, {})


def test_report_rule_implies_holder_rule_on_consistent_state():
    # whenever a destination's report lists a packet, that destination is in
    # the packet's holder set; under that premise the report rule never fires
    # where the holder rule would not
    rng = random.Random("superset")
    for _ in range(500):
        nodes = list(range(8))
        p_dst, q_dst = rng.sample(nodes, 2)
        p = native(0, rng.randrange(4), (7, 6, p_dst), hop_index=1,
                   holders=set(rng.sample(nodes, rng.randrange(1, 8))))
        q = native(1, rng.randrange(4), (5, 6, q_dst), hop_index=1,
                   holders=set(rng.sample(nodes, rng.randrange(1, 8))))
        neighbors = frozenset(rng.sample(nodes, rng.randrange(1, 8)))
        reports = {nb: set() for nb in neighbors}  # a relay's reports: one per neighbor
        if p_dst in neighbors and p_dst in q.holders and rng.random() < 0.8:
            reports[p_dst].add(q.uid)
        if q_dst in neighbors and q_dst in p.holders and rng.random() < 0.8:
            reports[q_dst].add(p.uid)
        if cope_can_code(p, q, reports):
            assert excode_can_code(p, q)


def scan_args(self_id=2, reports=None):
    return dict(self_id=self_id, reports=reports if reports is not None else {})


def test_scan_disabled_without_coding():
    queue = [Q_AT_RELAY]
    assert find_partner(P_AT_RELAY, queue, Scheme.NON_CODING, **scan_args()) is None


def test_scan_returns_first_match():
    other = Q_AT_RELAY._replace(uid=PacketUid(1, 1))
    queue = [
        native(2, 0, (3, 2, 4), holders={3}),  # no overlap
        Q_AT_RELAY,
        other,
    ]
    assert find_partner(P_AT_RELAY, queue, Scheme.EXCODE, **scan_args()) == 1


def test_scan_skips_ineligible_entries():
    encoded = xor_encode(P_AT_RELAY, Q_AT_RELAY)
    to_self = Q_AT_RELAY._replace(dst=2, route=(5, 3, 2), hop_index=2)
    queue = [
        encoded,  # never recode
        to_self,  # terminates here, nothing to relay
        Q_AT_RELAY,
    ]
    assert find_partner(P_AT_RELAY, queue, Scheme.EXCODE, **scan_args()) == 2


def test_scan_empty_and_no_match():
    assert find_partner(P_AT_RELAY, [], Scheme.EXCODE, **scan_args()) is None
    lonely = [native(1, 0, (3, 2, 4), holders={3})]
    assert find_partner(P_AT_RELAY, lonely, Scheme.EXCODE, **scan_args()) is None


def test_scan_against_constructed_queues():
    # queues are built from labeled ingredients, so the expected index is
    # known without re-running the predicate under test
    rng = random.Random("scan-oracle")
    self_id = 2
    for _ in range(300):
        p = native(0, rng.randrange(100), (7, 2, 5), hop_index=1,
                   holders={7, rng.randrange(8, 16)})
        queue = []
        expected = None
        for idx in range(rng.randrange(0, 7)):
            kind = rng.choice(["match", "cold", "same_flow", "to_self"])
            flow = 0 if kind == "same_flow" else idx + 1
            # non-"cold" ingredients would all match on holders alone, so the
            # eligibility filters are what keeps them out
            holders = {9} if kind == "cold" else {p.dst, 9}
            dst_route = (8, 2, self_id) if kind == "to_self" else (8, 2, next(iter(p.holders)))
            cand = native(flow, idx, dst_route, hop_index=1, holders=holders)
            if kind == "match" and expected is None:
                expected = idx
            queue.append(cand)
        assert find_partner(p, queue, Scheme.EXCODE, self_id=self_id, reports={}) == expected
