"""Plain-Dijkstra reference for the CSR multi-target kernel.

:meth:`~repro.roadnet.csr.CSRGraph.multi_target_distances` is the only
multi-target search the library runs; this dict-of-lists walk over the
live :class:`~repro.roadnet.RoadNetwork` is what the tests compare it
against, pair by pair and in settled-node counts.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.errors import UnknownNodeError
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import INFINITY, _neighbor_fn


def dijkstra_multi_target(
    network: RoadNetwork,
    source: int,
    targets: Iterable[int],
    directed: bool = False,
    cutoff: float = INFINITY,
) -> tuple[dict[int, float], int]:
    """One bounded single-source search answering a whole target set.

    Reference for
    :meth:`~repro.roadnet.csr.CSRGraph.multi_target_distances`: settles
    outward from ``source`` until every requested target is settled or
    the frontier exceeds ``cutoff``.  Distances are plain Dijkstra sums,
    bit-identical to :func:`dijkstra_distance_counted` per pair.

    Returns:
        ``(found, settled_nodes)``; targets absent from ``found`` are
        proven farther than ``cutoff`` (or unreachable).
    """
    if not network.has_node(source):
        raise UnknownNodeError(source)
    found: dict[int, float] = {}
    remaining: set[int] = set()
    for target in targets:
        if not network.has_node(target):
            raise UnknownNodeError(target)
        if target == source:
            found[target] = 0.0
        else:
            remaining.add(target)
    if not remaining:
        return found, 0
    neighbors = _neighbor_fn(network, directed)
    dist: dict[int, float] = {source: 0.0}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    expansions = 0
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        expansions += 1
        if node in remaining:
            remaining.discard(node)
            found[node] = d
            if not remaining:
                break
        for neighbor, _sid, length in neighbors(node):
            nd = d + length
            if nd <= cutoff and nd < dist.get(neighbor, INFINITY):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return found, expansions
