"""Flat-array (CSR) shortest-path core: the engine's only search kernels.

The reference searches in :mod:`~repro.roadnet.shortest_path` walk the
mutable :class:`~repro.roadnet.RoadNetwork` through dict-of-lists
adjacency, building neighbor tuples on every visit.  That is fine for
correctness work, but Phase 3 of NEAT runs thousands of point-to-point
queries per clustering run and the allocation churn dominates.  This
module freezes a network into a :class:`CSRGraph` — a compressed sparse
row snapshot whose adjacency is four flat parallel lists indexed by a
dense ``0..n-1`` node index — and runs Dijkstra over plain list reads:

* :meth:`CSRGraph.single_source` — (bounded) single-source distances;
* :meth:`CSRGraph.distance_counted` — (bounded) point-to-point Dijkstra;
* :meth:`CSRGraph.bidirectional_distance_counted` — point-to-point
  search growing a forward and a backward frontier, settling roughly
  ``2*sqrt`` of the nodes a unidirectional search would (the engine's
  point queries and per-pair prefetches);
* :meth:`CSRGraph.multi_target_distances` — one bounded single-source
  sweep answering a target set (the engine's grouped prefetches);
* :meth:`CSRGraph.shortest_route` — point-to-point with path recovery.

Storage is typed :class:`array.array` buffers (``'q'`` int64 for the
structure arrays, ``'d'`` float64 for weights), so every column exposes
the buffer protocol: a snapshot can be copied byte-for-byte into a
:mod:`multiprocessing.shared_memory` segment and *attached* zero-copy in
worker processes as ``memoryview`` casts over the shared buffer (see
:mod:`repro.roadnet.sharedcsr`).  Indexing semantics are identical
across backings — the Dijkstra loops below never know whether they read
a private array or a shared mapping.

Snapshots are immutable and picklable (attached views materialize into
private arrays on pickle), so read-only copies can still be shipped by
pickling when shared memory is unavailable.  ``RoadNetwork.csr``
builds and caches one per direction mode, invalidating on mutation.

Exactness: for a unique shortest path, the unidirectional searches
return bit-identical floats to the dict-of-lists reference walkers
(same additions in the same order along the path).  The bidirectional
search sums the two half-paths separately, so its result can differ in
the last ulp; callers comparing it with the reference should allow a
relative tolerance of ~1e-12 (decision thresholds like Phase 3's ``eps`` are unaffected).
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterable

from ..errors import NoPathError, UnknownNodeError
from .shortest_path import INFINITY, Route

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import RoadNetwork


class CSRGraph:
    """A frozen compressed-sparse-row view of a road network.

    Attributes:
        directed: Whether one-way segments are respected.  The undirected
            view stores every segment in both directions; the directed
            view additionally carries a reverse adjacency (incoming
            edges) so bidirectional search can grow a backward frontier.
        node_ids: Original junction ids, ascending; position = CSR index.
        indptr: ``indptr[i]:indptr[i+1]`` slices the edge lists of node
            ``i`` (forward / outgoing view).
        adj: Neighbor CSR indices, one entry per directed edge.
        sids: Segment id of each edge entry.
        weights: Length in metres of each edge entry.
        rindptr/radj/rsids/rweights: The reverse (incoming) adjacency;
            aliases of the forward lists when the graph is undirected.
    """

    __slots__ = (
        "directed",
        "node_ids",
        "index_of",
        "indptr",
        "adj",
        "sids",
        "weights",
        "rindptr",
        "radj",
        "rsids",
        "rweights",
    )

    def __init__(
        self,
        directed: bool,
        node_ids: list[int],
        edges: list[tuple[int, int, int, float]],
    ) -> None:
        """Build from a dense edge list of ``(src, dst, sid, weight)``.

        ``src``/``dst`` are CSR indices (not junction ids).  Use
        :func:`build_csr` to derive one from a :class:`RoadNetwork`.
        """
        self.directed = directed
        self.node_ids = array("q", node_ids)
        self.index_of = {nid: i for i, nid in enumerate(self.node_ids)}
        self.indptr, self.adj, self.sids, self.weights = _pack(
            len(node_ids), edges
        )
        if directed:
            reverse = [(dst, src, sid, w) for src, dst, sid, w in edges]
            self.rindptr, self.radj, self.rsids, self.rweights = _pack(
                len(node_ids), reverse
            )
        else:
            self.rindptr = self.indptr
            self.radj = self.adj
            self.rsids = self.sids
            self.rweights = self.weights

    @classmethod
    def from_arrays(
        cls,
        directed: bool,
        node_ids,
        indptr,
        adj,
        sids,
        weights,
        rindptr=None,
        radj=None,
        rsids=None,
        rweights=None,
    ) -> "CSRGraph":
        """Wrap already-packed CSR columns without copying them.

        The columns may be :class:`array.array` buffers or typed
        ``memoryview`` casts over a shared-memory segment (the zero-copy
        attach path of :class:`~repro.roadnet.sharedcsr.SharedCSR`); the
        search kernels only ever index them.  For a directed graph the
        reverse columns are required; undirected graphs alias the forward
        ones.
        """
        graph = cls.__new__(cls)
        graph.directed = directed
        graph.node_ids = node_ids
        graph.index_of = {nid: i for i, nid in enumerate(node_ids)}
        graph.indptr = indptr
        graph.adj = adj
        graph.sids = sids
        graph.weights = weights
        if directed:
            if rindptr is None or radj is None or rsids is None or rweights is None:
                raise ValueError("directed CSR needs its reverse columns")
            graph.rindptr = rindptr
            graph.radj = radj
            graph.rsids = rsids
            graph.rweights = rweights
        else:
            graph.rindptr = indptr
            graph.radj = adj
            graph.rsids = sids
            graph.rweights = weights
        return graph

    # ------------------------------------------------------------------
    # Pickling: materialize the columns into private typed arrays so a
    # snapshot ships to a process even when its storage is a memoryview
    # over someone else's shared segment; ``index_of`` is rebuilt on the
    # receiving side instead of being serialized.
    def __getstate__(self) -> dict:
        state = {
            "directed": self.directed,
            "node_ids": array("q", self.node_ids),
            "indptr": array("q", self.indptr),
            "adj": array("q", self.adj),
            "sids": array("q", self.sids),
            "weights": array("d", self.weights),
        }
        if self.directed:
            state["rindptr"] = array("q", self.rindptr)
            state["radj"] = array("q", self.radj)
            state["rsids"] = array("q", self.rsids)
            state["rweights"] = array("d", self.rweights)
        return state

    def __setstate__(self, state: dict) -> None:
        directed = state["directed"]
        self.directed = directed
        self.node_ids = state["node_ids"]
        self.index_of = {nid: i for i, nid in enumerate(self.node_ids)}
        self.indptr = state["indptr"]
        self.adj = state["adj"]
        self.sids = state["sids"]
        self.weights = state["weights"]
        if directed:
            self.rindptr = state["rindptr"]
            self.radj = state["radj"]
            self.rsids = state["rsids"]
            self.rweights = state["rweights"]
        else:
            self.rindptr = self.indptr
            self.radj = self.adj
            self.rsids = self.sids
            self.rweights = self.weights

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of junctions in the snapshot."""
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        """Number of directed edge entries (2x segments when undirected)."""
        return len(self.adj)

    def _index(self, node_id: int) -> int:
        try:
            return self.index_of[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(directed={self.directed}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------
    def single_source(
        self, source: int, max_distance: float = INFINITY
    ) -> dict[int, float]:
        """Distances from ``source`` to every node within ``max_distance``.

        Drop-in equivalent of
        :func:`~repro.roadnet.shortest_path.dijkstra_single_source` on
        this snapshot's direction mode; keys are original junction ids.
        """
        s = self._index(source)
        n = len(self.node_ids)
        indptr, adj, weights = self.indptr, self.adj, self.weights
        dist = [INFINITY] * n
        settled = bytearray(n)
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        out: dict[int, float] = {}
        node_ids = self.node_ids
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            out[node_ids[u]] = d
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v] and nd <= max_distance:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return out

    def distance_counted(
        self, source: int, target: int, cutoff: float = INFINITY
    ) -> tuple[float, int]:
        """Unidirectional point-to-point Dijkstra.

        Returns ``(distance, settled_nodes)``; distance is
        :data:`INFINITY` when ``target`` is unreachable within ``cutoff``.
        """
        s = self._index(source)
        t = self._index(target)
        if s == t:
            return 0.0, 0
        n = len(self.node_ids)
        indptr, adj, weights = self.indptr, self.adj, self.weights
        dist = [INFINITY] * n
        settled = bytearray(n)
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        expansions = 0
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            if u == t:
                return d, expansions
            settled[u] = 1
            expansions += 1
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v] and nd <= cutoff:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return INFINITY, expansions

    def bidirectional_distance_counted(
        self, source: int, target: int, cutoff: float = INFINITY
    ) -> tuple[float, int]:
        """Point-to-point distance via bidirectional Dijkstra.

        Grows a forward frontier from ``source`` (outgoing edges) and a
        backward frontier from ``target`` (incoming edges), stopping as
        soon as the two least frontier keys prove no shorter connection
        can exist — or exceed ``cutoff``, in which case the pair is
        reported unreachable-within-bound (:data:`INFINITY`).

        Returns ``(distance, settled_nodes)``.
        """
        s = self._index(source)
        t = self._index(target)
        if s == t:
            return 0.0, 0
        n = len(self.node_ids)
        dist_f = [INFINITY] * n
        dist_b = [INFINITY] * n
        done_f = bytearray(n)
        done_b = bytearray(n)
        dist_f[s] = 0.0
        dist_b[t] = 0.0
        heap_f: list[tuple[float, int]] = [(0.0, s)]
        heap_b: list[tuple[float, int]] = [(0.0, t)]
        best = INFINITY
        expansions = 0
        while heap_f and heap_b:
            if heap_f[0][0] + heap_b[0][0] >= best:
                break
            if heap_f[0][0] + heap_b[0][0] > cutoff:
                break
            if heap_f[0][0] <= heap_b[0][0]:
                heap, dist, done, other = heap_f, dist_f, done_f, dist_b
                indptr, adj, weights = self.indptr, self.adj, self.weights
            else:
                heap, dist, done, other = heap_b, dist_b, done_b, dist_f
                indptr, adj, weights = self.rindptr, self.radj, self.rweights
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            expansions += 1
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v] and nd <= cutoff and nd < best:
                    dist[v] = nd
                    heappush(heap, (nd, v))
                od = other[v]
                if od < INFINITY:
                    total = dist[v] + od
                    if total < best:
                        best = total
        if best <= cutoff:
            return best, expansions
        return INFINITY, expansions

    def multi_target_distances(
        self,
        source: int,
        targets: Iterable[int],
        cutoff: float = INFINITY,
    ) -> tuple[dict[int, float], int]:
        """One bounded single-source search answering a whole target set.

        The batched kernel behind the tiered distance oracle: where the
        per-pair path runs one point-to-point search per ``(source, t)``
        pair, this settles outward from ``source`` once and stops as soon
        as every requested target is settled (or the frontier exceeds
        ``cutoff``).  Distances are unidirectional-Dijkstra sums, so they
        are bit-identical to :meth:`distance_counted` / the dict-of-lists
        reference walker for the same pair.

        Returns:
            ``(found, settled_nodes)`` where ``found`` maps each target
            junction id settled within ``cutoff`` to its distance.  A
            target absent from ``found`` is proven farther than
            ``cutoff`` from ``source`` (or unreachable).
        """
        s = self._index(source)
        found: dict[int, float] = {}
        remaining: set[int] = set()
        for target in targets:
            t = self._index(target)
            if t == s:
                found[target] = 0.0
            else:
                remaining.add(t)
        if not remaining:
            return found, 0
        n = len(self.node_ids)
        indptr, adj, weights = self.indptr, self.adj, self.weights
        node_ids = self.node_ids
        dist = [INFINITY] * n
        settled = bytearray(n)
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        expansions = 0
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            expansions += 1
            if u in remaining:
                remaining.discard(u)
                found[node_ids[u]] = d
                if not remaining:
                    break
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v] and nd <= cutoff:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return found, expansions

    def shortest_route(self, source: int, target: int) -> Route:
        """Point-to-point Dijkstra with path recovery.

        Returns a :class:`~repro.roadnet.shortest_path.Route` in original
        junction/segment ids.

        Raises:
            NoPathError: when ``target`` is unreachable from ``source``.
        """
        s = self._index(source)
        t = self._index(target)
        if s == t:
            return Route((source,), (), 0.0)
        n = len(self.node_ids)
        indptr, adj, sids, weights = self.indptr, self.adj, self.sids, self.weights
        dist = [INFINITY] * n
        settled = bytearray(n)
        parent = [-1] * n
        parent_sid = [-1] * n
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            if u == t:
                return self._recover(s, t, d, parent, parent_sid)
            settled[u] = 1
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                nd = d + weights[k]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    parent_sid[v] = sids[k]
                    heappush(heap, (nd, v))
        raise NoPathError(source, target)

    def _recover(
        self,
        s: int,
        t: int,
        length: float,
        parent: list[int],
        parent_sid: list[int],
    ) -> Route:
        node_ids = self.node_ids
        nodes = [node_ids[t]]
        sids: list[int] = []
        u = t
        while u != s:
            sids.append(parent_sid[u])
            u = parent[u]
            nodes.append(node_ids[u])
        nodes.reverse()
        sids.reverse()
        return Route(tuple(nodes), tuple(sids), length)


def _pack(
    node_count: int, edges: Iterable[tuple[int, int, int, float]]
) -> tuple[array, array, array, array]:
    """Counting-sort an edge list into typed CSR arrays (stable per source).

    Returns int64 (``'q'``) structure columns and a float64 (``'d'``)
    weight column — contiguous buffers a shared-memory publisher can copy
    byte-for-byte.
    """
    edge_list = list(edges)
    counts = [0] * (node_count + 1)
    for src, _dst, _sid, _w in edge_list:
        counts[src + 1] += 1
    indptr = array("q", bytes(8 * (node_count + 1)))
    total = 0
    for i in range(node_count + 1):
        total += counts[i]
        indptr[i] = total
    cursor = list(indptr[:node_count])
    m = len(edge_list)
    adj = array("q", bytes(8 * m))
    sids = array("q", bytes(8 * m))
    weights = array("d", bytes(8 * m))
    for src, dst, sid, w in edge_list:
        k = cursor[src]
        cursor[src] = k + 1
        adj[k] = dst
        sids[k] = sid
        weights[k] = w
    return indptr, adj, sids, weights


def build_csr(network: "RoadNetwork", directed: bool = False) -> CSRGraph:
    """Snapshot a :class:`RoadNetwork` into a :class:`CSRGraph`.

    Prefer :meth:`RoadNetwork.csr`, which memoizes the snapshot and
    invalidates it when the network is mutated.
    """
    node_ids = network.node_ids()
    index_of = {nid: i for i, nid in enumerate(node_ids)}
    edges: list[tuple[int, int, int, float]] = []
    for segment in network.segments():
        u = index_of[segment.node_u]
        v = index_of[segment.node_v]
        edges.append((u, v, segment.sid, segment.length))
        if not directed or segment.bidirectional:
            edges.append((v, u, segment.sid, segment.length))
    return CSRGraph(directed, node_ids, edges)
