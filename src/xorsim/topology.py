"""Static unit-disk radio topology and min-hop routing."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

NodeId = int
Position = tuple[float, float]


class NoRouteError(Exception):
    """No path exists between the requested endpoints."""


@dataclass(frozen=True)
class Topology:
    """Immutable node layout plus the adjacency it induces.

    Two nodes are neighbors iff their euclidean distance is <= radio_range
    (the boundary counts). Links are symmetric and loss-free.
    """

    positions: tuple[Position, ...]
    radio_range: float
    adjacency: tuple[frozenset[NodeId], ...]
    # target -> hop_distances(self, target), filled by distances_to
    _distances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.positions)

    def neighbors(self, node: NodeId) -> frozenset[NodeId]:
        return self.adjacency[node]

    def distances_to(self, target: NodeId) -> list[float]:
        """hop_distances(self, target), computed once per target and kept, so
        sampling flows and routing them share one BFS per destination.
        Callers must not change the list."""
        dist = self._distances.get(target)
        if dist is None:
            dist = self._distances[target] = hop_distances(self, target)
        return dist


def build_topology(positions: list[Position] | tuple[Position, ...], radio_range: float) -> Topology:
    """Compute the unit-disk adjacency for a fixed layout."""
    if radio_range <= 0:
        raise ValueError("radio_range must be positive")
    pts = tuple((float(x), float(y)) for x, y in positions)
    n = len(pts)
    nbrs: list[set[NodeId]] = [set() for _ in range(n)]
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            xj, yj = pts[j]
            if math.dist((xi, yi), (xj, yj)) <= radio_range:
                nbrs[i].add(j)
                nbrs[j].add(i)
    return Topology(pts, float(radio_range), tuple(frozenset(s) for s in nbrs))


def random_layout(n: int, side: float, seed: int) -> tuple[Position, ...]:
    """n points drawn uniformly from the [0, side] x [0, side] square."""
    if n < 1:
        raise ValueError("need at least one node")
    rng = random.Random(f"layout:{seed}")
    return tuple((rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n))


def hop_distances(topo: Topology, target: NodeId) -> list[float]:
    """BFS hop count from every node to target; math.inf where unreachable."""
    dist = [math.inf] * topo.n
    dist[target] = 0
    frontier = [target]
    while frontier:
        nxt: list[NodeId] = []
        for u in frontier:
            for v in topo.adjacency[u]:
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def shortest_path(
    topo: Topology, src: NodeId, dst: NodeId, dist: Optional[list[float]] = None
) -> tuple[NodeId, ...]:
    """Min-hop route from src to dst as a node-id sequence.

    Among equal-length routes the lexicographically smallest id sequence is
    returned, so routing is reproducible. Raises NoRouteError when the
    endpoints are disconnected. dist, if given, must be hop_distances(topo,
    dst); callers routing many flows to one destination pass it to skip the
    BFS.
    """
    if not (0 <= src < topo.n and 0 <= dst < topo.n):
        raise ValueError(f"node id out of range: src={src} dst={dst}")
    if src == dst:
        return (src,)
    if dist is None:
        dist = hop_distances(topo, dst)
    if dist[src] == math.inf:
        raise NoRouteError(f"no route from {src} to {dst}")
    # walk greedily toward dst, always taking the smallest id that still
    # lies on some min-hop route
    route = [src]
    cur = src
    while cur != dst:
        cur = min(v for v in topo.adjacency[cur] if dist[v] == dist[cur] - 1)
        route.append(cur)
    return tuple(route)
