"""Phase 3's kept eps-neighbour graph gives the clusters of a fresh run.

:class:`~repro.core.incremental.IncrementalNEAT` keeps the neighbour
graph of its flow pool across refreshes and evaluates only the pairs a
batch adds.  After every ``add_batch`` its clusters and pair counters
must equal a fresh :func:`~repro.core.refinement.refine_flow_clusters`
over the same flow list, with a new engine and no kept graph — through
empty batches, rollbacks, recovery and network mutations.

``shortest_path_computations`` is the one counter left out of the
comparison: a warm engine searches only what the new pairs need, which
is the point.  Instead, a full refinement on the clusterer's own engine
must find nothing left to search.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.refinement as refinement
from repro.cluster.dbscan import clusters_from_labels, dbscan
from repro.core.bounds import elb_far_mask, llb_far_mask
from repro.core.config import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.refinement import (
    NeighbourGraph,
    RefinementStats,
    euclidean_lower_bound,
    flow_distance,
    landmark_lower_bound,
    refine_flow_clusters,
)
from repro.errors import FaultInjected
from repro.mobisim.simulator import SimulationConfig, simulate_dataset
from repro.resilience import FaultInjector, FaultPlan
from repro.roadnet.generators import atlanta_like
from repro.roadnet.shortest_path import ShortestPathEngine
from repro.vec import get_numpy

BATCHES = 6


@pytest.fixture
def workload():
    """58 flows at eps 500: some pairs pruned, some merged, some not."""
    network = atlanta_like(scale=0.05, seed=5)
    trajectories = list(simulate_dataset(
        network, SimulationConfig(object_count=60, seed=5, name="ATL60")
    ))
    size = len(trajectories) // BATCHES
    batches = [
        trajectories[k * size:(k + 1) * size] for k in range(BATCHES)
    ]
    return network, batches


def config_for(min_pts=1, use_llb=False, sp_oracle="tiered") -> NEATConfig:
    return NEATConfig(
        min_card=0, eps=500.0, min_pts=min_pts, use_llb=use_llb,
        sp_oracle=sp_oracle,
    )


def shape(clusters) -> list[tuple[int, list[int]]]:
    """Cluster ids with their member flows, by flow identity."""
    return [(c.cluster_id, [id(f) for f in c.flows]) for c in clusters]


def pair_counters(stats: RefinementStats) -> RefinementStats:
    return dataclasses.replace(stats, shortest_path_computations=0)


def fresh(clusterer: IncrementalNEAT, engine=None):
    stats = RefinementStats()
    clusters = refine_flow_clusters(
        clusterer.network, clusterer.flows, clusterer.config,
        engine=engine or ShortestPathEngine(clusterer.network, directed=False),
        stats=stats,
    )
    return clusters, stats


def assert_matches_fresh(clusterer: IncrementalNEAT, result) -> None:
    clusters, stats = fresh(clusterer)
    assert shape(result.clusters) == shape(clusters)
    assert shape(clusterer.clusters) == shape(clusters)
    assert pair_counters(result.refinement_stats) == pair_counters(stats)
    assert shape(clusters) == reference_shape(clusterer)


def reference_shape(clusterer: IncrementalNEAT) -> list[tuple[int, list[int]]]:
    """Phase 3 read literally: DBSCAN whose region query scans every
    other flow with Eq. 5, no bounds and no graph."""
    flows, config = clusterer.flows, clusterer.config
    engine = ShortestPathEngine(clusterer.network, directed=False)

    def region_query(index: int) -> list[int]:
        return [
            other for other in range(len(flows))
            if other != index and flow_distance(
                engine, flows[index], flows[other], cutoff=config.eps
            ) <= config.eps
        ]

    order = sorted(
        range(len(flows)), key=lambda i: (-flows[i].route_length, i)
    )
    labels = dbscan(len(flows), region_query, config.min_pts, order=order)
    groups = clusters_from_labels(labels)
    clustered = {i for group in groups for i in group}
    groups += [[i] for i in range(len(flows)) if i not in clustered]
    return [
        (cluster_id, [id(flows[i]) for i in group])
        for cluster_id, group in enumerate(groups)
    ]


def reference_counters(clusterer: IncrementalNEAT) -> RefinementStats:
    """The pair counters of a full per-pair scan, from the scalar bounds."""
    flows, config = clusterer.flows, clusterer.config
    llb = (
        clusterer.engine.landmark_bounds(config.llb_landmarks)
        if config.use_llb else None
    )
    stats = RefinementStats()
    for a in flows:
        for b in flows:
            if a is b:
                continue
            stats.pair_checks += 1
            if euclidean_lower_bound(clusterer.network, a, b) > config.eps:
                stats.elb_pruned += 1
                continue
            if llb is not None:
                stats.llb_evaluations += 1
                if landmark_lower_bound(llb, a, b) > config.eps:
                    stats.llb_pruned += 1
                    continue
            stats.hausdorff_evaluations += 1
    return stats


def assert_nothing_left(clusterer: IncrementalNEAT) -> None:
    """A full refinement on the warm engine runs no search."""
    before = clusterer.engine.computations
    clusters, _stats = fresh(clusterer, engine=clusterer.engine)
    assert clusterer.engine.computations == before
    assert shape(clusters) == shape(clusterer.clusters)


class TestKeptGraphMatchesFreshRun:
    @pytest.mark.parametrize("sp_oracle", ["tiered", "pairwise"])
    @pytest.mark.parametrize("use_llb", [False, True])
    @pytest.mark.parametrize("min_pts", [1, 2])
    def test_every_refresh(self, workload, min_pts, use_llb, sp_oracle):
        network, batches = workload
        clusterer = IncrementalNEAT(
            network, config_for(min_pts, use_llb, sp_oracle)
        )
        for index, batch in enumerate(batches):
            assert_matches_fresh(clusterer, clusterer.add_batch(batch))
            if index == 2:
                # An empty batch refreshes over an unchanged pool.
                assert_matches_fresh(clusterer, clusterer.add_batch([]))
        assert len(clusterer.flows) > 40
        assert_nothing_left(clusterer)

    def test_counters_are_not_trivial(self, workload):
        network, batches = workload
        clusterer = IncrementalNEAT(network, config_for(use_llb=True))
        for batch in batches:
            result = clusterer.add_batch(batch)
        stats = result.refinement_stats
        assert pair_counters(stats) == reference_counters(clusterer)
        n = len(clusterer.flows)
        assert stats.pair_checks == n * (n - 1)
        assert 0 < stats.elb_pruned < stats.pair_checks
        assert 0 < stats.llb_pruned < stats.llb_evaluations
        assert stats.hausdorff_evaluations > 0
        assert 1 < len(result.clusters) < n

    def test_pairwise_searches_each_pair_once(self, workload):
        network, batches = workload
        clusterer = IncrementalNEAT(network, config_for(sp_oracle="pairwise"))
        for batch in batches:
            clusterer.add_batch(batch)
        cold = ShortestPathEngine(network, directed=False)
        fresh(clusterer, engine=cold)
        assert clusterer.engine.computations == cold.computations
        assert clusterer.engine.nodes_expanded == cold.nodes_expanded


class TestGraphReuse:
    """A graph passed back to refine_flow_clusters is only grown when it
    still describes a prefix of the flow list under the same settings."""

    @pytest.fixture
    def pool(self, workload):
        network, batches = workload
        clusterer = IncrementalNEAT(network, config_for())
        for batch in batches:
            clusterer.add_batch(batch)
        return network, clusterer.flows

    def check(self, network, graph, flows, config):
        kept_stats, reference_stats = RefinementStats(), RefinementStats()
        kept = refine_flow_clusters(
            network, flows, config, stats=kept_stats, graph=graph
        )
        reference = refine_flow_clusters(
            network, flows, config, stats=reference_stats
        )
        assert shape(kept) == shape(reference)
        assert pair_counters(kept_stats) == pair_counters(reference_stats)

    def test_grown_over_appended_flows(self, pool):
        network, flows = pool
        graph = NeighbourGraph()
        for stop in (10, 30, len(flows)):
            self.check(network, graph, flows[:stop], config_for())
        assert graph.flows == flows

    def test_other_flows_rebuild(self, pool):
        network, flows = pool
        graph = NeighbourGraph()
        self.check(network, graph, flows[:30], config_for())
        self.check(network, graph, flows[:30][::-1] + flows[30:], config_for())
        self.check(network, graph, flows[:20], config_for())

    def test_directed_engine_rejected(self, pool):
        # The graph evaluates each unordered pair once, which needs Eq. 5
        # to be symmetric.
        network, flows = pool
        with pytest.raises(ValueError, match="undirected"):
            refine_flow_clusters(
                network, flows, config_for(),
                engine=ShortestPathEngine(network, directed=True),
            )

    @pytest.mark.parametrize("change", [
        dict(eps=900.0), dict(use_elb=False), dict(use_llb=True),
    ])
    def test_changed_settings_rebuild(self, pool, change):
        network, flows = pool
        graph = NeighbourGraph()
        self.check(network, graph, flows[:30], config_for())
        changed = dataclasses.replace(config_for(), **change)
        self.check(network, graph, flows, changed)


class TestWorkPerRefresh:
    def test_only_pairs_touching_new_flows_are_evaluated(
        self, workload, monkeypatch
    ):
        network, batches = workload
        clusterer = IncrementalNEAT(network, config_for())
        evaluated: list[tuple[int, int]] = []
        real = refinement.flow_distance

        def counting(engine, flow_a, flow_b, cutoff=None):
            evaluated.append((id(flow_a), id(flow_b)))
            return real(engine, flow_a, flow_b, cutoff=cutoff)

        monkeypatch.setattr(refinement, "flow_distance", counting)
        seen: set[int] = set()
        for batch in batches:
            evaluated.clear()
            clusterer.add_batch(batch)
            new = {id(f) for f in clusterer.flows} - seen
            assert all(a in new or b in new for a, b in evaluated)
            # Each unordered pair once.
            assert len({frozenset(pair) for pair in evaluated}) == len(evaluated)
            seen |= new
        evaluated.clear()
        clusterer.add_batch([])
        assert evaluated == []


class TestRollback:
    def test_failure_mid_refresh(self, workload, monkeypatch):
        network, batches = workload
        clusterer = IncrementalNEAT(network, config_for())
        for batch in batches[:3]:
            clusterer.add_batch(batch)
        flows_before = clusterer.flows
        version_before = clusterer.state_version

        calls = []
        real = refinement.flow_distance

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise FaultInjected("phase3", len(calls))
            return real(*args, **kwargs)

        monkeypatch.setattr(refinement, "flow_distance", failing)
        with pytest.raises(FaultInjected):
            clusterer.add_batch(batches[3])
        monkeypatch.setattr(refinement, "flow_distance", real)
        assert len(calls) == 5
        assert [id(f) for f in clusterer.flows] == [id(f) for f in flows_before]
        assert clusterer.state_version > version_before

        for batch in batches[3:]:
            assert_matches_fresh(clusterer, clusterer.add_batch(batch))
        assert_nothing_left(clusterer)

    def test_failure_after_refresh(self, workload, tmp_path):
        # The journal append fails after the refresh grew the graph over
        # flows the rollback then drops.
        network, batches = workload
        faults = FaultInjector()
        clusterer = IncrementalNEAT(network, config_for())
        clusterer.enable_persistence(tmp_path, fsync=False, faults=faults)
        for batch in batches[:2]:
            clusterer.add_batch(batch)
        faults.arm("journal.mid_append", FaultPlan(fail_nth=1))
        with pytest.raises(Exception):
            clusterer.add_batch(batches[2])
        faults.disarm("journal.mid_append")
        for batch in batches[3:]:
            assert_matches_fresh(clusterer, clusterer.add_batch(batch))


class TestRecover:
    def test_recovered_clusterer_keeps_matching(self, workload, tmp_path):
        network, batches = workload
        config = config_for(use_llb=True)
        clusterer = IncrementalNEAT(network, config)
        clusterer.enable_persistence(tmp_path, checkpoint_every=2, fsync=False)
        for batch in batches[:3]:
            clusterer.add_batch(batch)

        recovered = IncrementalNEAT.recover(tmp_path, network, config)
        assert len(recovered.flows) == len(clusterer.flows)
        for batch in batches[3:]:
            assert_matches_fresh(recovered, recovered.add_batch(batch))
        assert_nothing_left(recovered)


class TestNetworkMutation:
    def test_shortcut_reaches_the_next_refresh(self, workload):
        network, batches = workload
        clusterer = IncrementalNEAT(network, config_for())
        for batch in batches[:4]:
            clusterer.add_batch(batch)
        before = shape(clusterer.clusters)

        # Join the endpoints of two flows in different clusters with
        # straight segments (the Euclidean lower bound stays valid), so
        # their distance drops to at most eps.
        a, b = _separate_but_close(clusterer)
        network.add_segment(a.endpoints[0], b.endpoints[0])
        network.add_segment(a.endpoints[1], b.endpoints[1])

        result = clusterer.add_batch(batches[4])
        assert_matches_fresh(clusterer, result)
        merged = [c for c in result.clusters if a in c.flows]
        assert b in merged[0].flows
        assert shape(result.clusters)[:len(before)] != before
        assert_matches_fresh(clusterer, clusterer.add_batch(batches[5]))
        assert_nothing_left(clusterer)


def _separate_but_close(clusterer: IncrementalNEAT):
    """Two flows in different clusters whose endpoints pair up within eps."""
    network, eps = clusterer.network, clusterer.config.eps
    cluster_of = {
        id(flow): cluster.cluster_id
        for cluster in clusterer.clusters for flow in cluster.flows
    }

    def gap(u: int, v: int) -> float:
        return network.node_point(u).distance_to(network.node_point(v))

    for a in clusterer.flows:
        for b in clusterer.flows:
            if cluster_of[id(a)] == cluster_of[id(b)]:
                continue
            (a1, a2), (b1, b2) = a.endpoints, b.endpoints
            if len({a1, a2, b1, b2}) == 4 and max(gap(a1, b1), gap(a2, b2)) <= eps:
                return a, b
    raise AssertionError("workload has no such pair")


class TestBlockMasks:
    """The bound masks of the appended-flow columns are exactly those
    columns of the full mask, with and without numpy."""

    @pytest.mark.parametrize("kernel", ["elb", "llb"])
    def test_columns_of_the_full_mask(self, workload, kernel):
        network, batches = workload
        clusterer = IncrementalNEAT(network, config_for())
        for batch in batches:
            clusterer.add_batch(batch)
        flows, eps = clusterer.flows, 500.0
        if kernel == "elb":
            source = network
            build = elb_far_mask
        else:
            source = clusterer.engine.landmark_bounds(8)
            build = llb_far_mask
        backends = ["python"] + (["numpy"] if get_numpy() is not None else [])
        n = len(flows)
        full = build(source, flows, eps, "python")
        assert any(full)
        for backend in backends:
            for start in (0, 1, 20, n - 1, n):
                block = build(source, flows, eps, backend, start=start)
                expected = bytearray(
                    full[i * n + j] for i in range(n) for j in range(start, n)
                )
                assert block == expected, (backend, start)
