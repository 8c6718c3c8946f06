import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from xorsim.topology import (
    NoRouteError,
    build_topology,
    hop_distances,
    random_layout,
    shortest_path,
)


def brute_force_adjacency(positions, radio_range):
    n = len(positions)
    pairs = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            if math.sqrt(dx * dx + dy * dy) <= radio_range:
                pairs.add((i, j))
    return pairs


def to_nx(topo):
    g = nx.Graph()
    g.add_nodes_from(range(topo.n))
    for i in range(topo.n):
        for j in topo.adjacency[i]:
            g.add_edge(i, j)
    return g


def test_unit_square_grid_adjacency():
    # 2x2 grid at unit spacing with range 1: sides connect, diagonals do not
    topo = build_topology([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)], 1.0)
    assert topo.adjacency == (
        frozenset({1, 2}),
        frozenset({0, 3}),
        frozenset({0, 3}),
        frozenset({1, 2}),
    )


def test_boundary_distance_counts_as_adjacent():
    topo = build_topology([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], 200.0)
    assert 1 in topo.neighbors(0)
    assert 2 not in topo.neighbors(0)


def test_adjacency_matches_brute_force_on_random_layouts():
    for seed in range(10):
        pts = random_layout(16, 800.0, seed)
        topo = build_topology(pts, 200.0)
        expected = brute_force_adjacency(pts, 200.0)
        got = {(i, j) for i in range(16) for j in topo.adjacency[i]}
        assert got == expected


def test_adjacency_is_symmetric_and_irreflexive():
    topo = build_topology(random_layout(25, 600.0, 3), 150.0)
    for i in range(topo.n):
        assert i not in topo.adjacency[i]
        for j in topo.adjacency[i]:
            assert i in topo.adjacency[j]


def test_random_layout_deterministic_and_in_bounds():
    a = random_layout(16, 800.0, 42)
    b = random_layout(16, 800.0, 42)
    c = random_layout(16, 800.0, 43)
    assert a == b
    assert a != c
    assert all(0.0 <= x <= 800.0 and 0.0 <= y <= 800.0 for x, y in a)


def test_random_layout_rejects_zero_nodes():
    with pytest.raises(ValueError):
        random_layout(0, 800.0, 1)


@pytest.mark.parametrize("radio_range", [0.0, -1.0])
def test_build_topology_rejects_a_range_of_zero_or_less(radio_range):
    with pytest.raises(ValueError, match="radio_range must be positive"):
        build_topology([(0.0, 0.0)], radio_range)


def test_shortest_path_rejects_node_ids_out_of_range():
    topo = build_topology([(0.0, 0.0), (100.0, 0.0)], 200.0)
    for src, dst in ((0, 2), (-1, 1), (2, 0)):
        with pytest.raises(ValueError, match=f"node id out of range: src={src} dst={dst}"):
            shortest_path(topo, src, dst)


def test_shortest_path_endpoints_and_consecutive_adjacency():
    topo = build_topology(random_layout(16, 800.0, 7), 250.0)
    route = shortest_path(topo, 0, 5)
    assert route[0] == 0 and route[-1] == 5
    for a, b in zip(route, route[1:]):
        assert b in topo.neighbors(a)


def test_shortest_path_is_hop_minimal_against_bfs_oracle():
    for seed in range(12):
        topo = build_topology(random_layout(16, 800.0, seed), 220.0)
        g = to_nx(topo)
        for src in range(0, 16, 5):
            for dst in range(16):
                if src == dst:
                    continue
                if not nx.has_path(g, src, dst):
                    with pytest.raises(NoRouteError):
                        shortest_path(topo, src, dst)
                    continue
                route = shortest_path(topo, src, dst)
                assert len(route) - 1 == nx.shortest_path_length(g, src, dst)


def test_shortest_path_tie_break_lexicographic():
    for seed in range(8):
        topo = build_topology(random_layout(16, 800.0, seed), 220.0)
        g = to_nx(topo)
        for src, dst in [(0, 9), (3, 14), (8, 2)]:
            if not nx.has_path(g, src, dst):
                continue
            route = shortest_path(topo, src, dst)
            best = min(tuple(p) for p in nx.all_shortest_paths(g, src, dst))
            assert route == best


def test_shortest_path_diamond_prefers_smaller_relay():
    # 0 and 3 connect through either 1 or 2; the route must pick 1
    topo = build_topology([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0)], 1.5)
    assert shortest_path(topo, 0, 3) == (0, 1, 3)
    assert shortest_path(topo, 3, 0) == (3, 1, 0)


def test_shortest_path_trivial_and_disconnected():
    topo = build_topology([(0.0, 0.0), (500.0, 0.0)], 100.0)
    assert shortest_path(topo, 1, 1) == (1,)
    with pytest.raises(NoRouteError):
        shortest_path(topo, 0, 1)


def test_hop_distances_oracle():
    topo = build_topology([(100.0 + 150.0 * i, 0.0) for i in range(6)], 160.0)
    assert hop_distances(topo, 0) == [0, 1, 2, 3, 4, 5]
    lonely = build_topology([(0.0, 0.0), (999.0, 0.0)], 10.0)
    assert hop_distances(lonely, 0) == [0, math.inf]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_routes_reverse_to_same_length(seed, n):
    topo = build_topology(random_layout(n, 500.0, seed), 220.0)
    g = to_nx(topo)
    for dst in range(1, n):
        if not nx.has_path(g, 0, dst):
            continue
        there = shortest_path(topo, 0, dst)
        back = shortest_path(topo, dst, 0)
        assert len(there) == len(back)
