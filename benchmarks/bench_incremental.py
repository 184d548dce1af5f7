"""Incremental (online) NEAT: the Section III-C deployment scenario.

Measures the cost profile of streaming ingestion: trajectories arrive in
batches; each batch runs Phases 1-2 locally and merges its flows into the
global Phase 3 clustering of the growing flow pool.  The clusterer keeps
the pool's eps-neighbour graph, so a refresh evaluates only the flow
pairs that touch the batch's new flows, against a memoized
shortest-path engine — the amortization the paper designs Phase 3
around.
"""

from __future__ import annotations

from conftest import NEAT_COUNTS

from repro.core.config import NEATConfig
from repro.core.incremental import IncrementalNEAT
from repro.core.pipeline import NEAT
from repro.experiments.figures import DEFAULT_EPS
from repro.experiments.harness import format_seconds, format_table, timed
from repro.experiments.workloads import build_suite


def bench_incremental_stream(benchmark, emit):
    """Stream the largest ATL dataset in 5 batches vs one-shot."""
    network, datasets = build_suite("ATL", NEAT_COUNTS)
    trajectories = list(datasets[-1])
    batch_count = 5
    size = (len(trajectories) + batch_count - 1) // batch_count
    batches = [
        trajectories[i * size: (i + 1) * size] for i in range(batch_count)
    ]

    config = NEATConfig(eps=DEFAULT_EPS["ATL"], min_card=5)
    incremental = IncrementalNEAT(network, config)
    rows = []
    for index, batch in enumerate(batches):
        sp_before = incremental.engine.computations
        result, seconds = timed(lambda b=batch: incremental.add_batch(b))
        rows.append(
            (
                index,
                len(batch),
                len(result.new_flows),
                len(incremental.flows),
                len(result.clusters),
                incremental.engine.computations - sp_before,
                format_seconds(seconds),
            )
        )

    oneshot, oneshot_seconds = timed(
        lambda: NEAT(network, config).run_opt(trajectories)
    )

    benchmark.pedantic(
        lambda: IncrementalNEAT(network, config).add_batch(batches[0]),
        rounds=2,
        iterations=1,
    )
    emit(
        "incremental",
        "Incremental NEAT (Section III-C online scenario, largest ATL set)\n"
        + format_table(
            ("batch", "trips", "new flows", "pool", "clusters",
             "new Dijkstras", "time"),
            rows,
        )
        + f"\nOne-shot opt-NEAT over the same data: "
        f"{format_seconds(oneshot_seconds)} "
        f"({oneshot.flow_count} flows, {oneshot.cluster_count} clusters).\n"
        "(Each refresh evaluates only the flow pairs that touch the "
        "batch's new flows, and the warm distance cache keeps per-batch "
        "Dijkstra growth sublinear.)",
    )
