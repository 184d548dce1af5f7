"""Fold one run's samples and spans into the benchmark's metrics."""

from __future__ import annotations

import math
import statistics

from harness import Run, cpu_count
from spans import self_time_by_op


def _finished(run: Run) -> list:
    """Untraced samples that completed, correct or not (latency counts
    every answered call; correctness is ``success_rate``)."""
    return [
        sample for sample in run.samples
        if not sample.traced and math.isfinite(sample.total_s)
    ]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def detail(run: Run) -> dict:
    """Raw material behind the metrics, printed for later analysis."""
    return {
        "workload": run.workload,
        "seed": run.seed,
        "digest": run.digest,
        "cpu_count": cpu_count(),
        "points": run.inputs.points,
        "setup_s": run.setup_s,
        "trajectories": len(run.inputs.trajectories),
        "simulate_s": run.inputs.simulate_s,
        "build_s": run.inputs.build_s,
        "peak_rss_mb": run.peak_rss_mb,
        "probe_best_s": min(run.probe_s),
        "probe_s": run.probe_s,
        "stream_walls": run.stream_walls,
        "samples": [
            [sample.op, sample.ok, sample.traced, sample.total_s, sample.calls]
            for sample in run.samples
        ],
    }


def best_calls(run: Run) -> list[tuple[float, float]]:
    """Per call, the fastest ``(submit_s, query_s)`` over the run's
    untraced repetitions of it.

    Interference from other work on the host only ever slows a call
    down, and on a shared host it comes and goes over seconds, so the
    fastest repetition is the steady estimate of the call's own cost.
    """
    best: dict[int, list[float]] = {}
    for sample in _finished(run):
        for call, submit, query in sample.calls:
            low = best.setdefault(call, [math.inf, math.inf])
            low[0], low[1] = min(low[0], submit), min(low[1], query)
    return [(submit, query) for submit, query in best.values()]


#: ``SpeedProbe``'s fastest time on the reference host (2 vCPUs,
#: Python 3.11.7) in a quiet period.
PROBE_REFERENCE_S = 0.040


def speed_factor(run: Run) -> float:
    """How much faster than this run the reference host ran.

    On a shared host other tenants slow whole runs down, for a minute at
    a time: the same serial op read 0.52 s and 0.90 s in two runs of one
    seed.  The probe runs between ops and slows down with them.
    """
    return PROBE_REFERENCE_S / min(run.probe_s)


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of an untraced run.

    ``submit_s`` is the time to ingest and cluster the whole input: the
    clustering requests (``NEAT.run`` / ``coordinator.run`` of each
    group, or every ``submit`` of the stream).  ``cluster_s`` adds the
    document builds (``result_to_dict``, or every ``get_clustering``).
    Each call counts with its fastest repetition in the run.  Every
    time, ``setup_s`` included, is scaled by ``speed_factor`` to the
    reference host's speed.
    """
    calls = best_calls(run)
    scale = speed_factor(run)
    submit_s = scale * sum(submit for submit, _ in calls)
    query_s = scale * sum(query for _, query in calls)
    good = sum(sample.ok for sample in run.samples)
    return {
        "setup_s": (scale * statistics.median(run.setup_s), "s"),
        "cluster_s": (submit_s + query_s, "s"),
        "submit_s": (submit_s, "s"),
        "success_rate": (good / len(run.samples), "ratio"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def result_line(run: Run) -> dict:
    attempted = len(run.samples)
    failed = sum(not sample.ok for sample in run.samples)
    metrics = per_layer(run) if run.recorder is not None else end_to_end(run)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


# ----------------------------------------------------------------------
# Per-layer metrics (the traced run)
# ----------------------------------------------------------------------
#: Span name -> per-layer metric: median self time per traced op.
SPAN_METRICS = {
    "phase1": "phase1.s",
    "phase2": "phase2.s",
    "phase3": "phase3.s",
    "validate": "validate.s",
    "serialize": "serialize.s",
    "incremental.add_batch": "incremental.add_batch_s",
    "service.submit": "service.submit_self_s",
    "service.query": "service.query_self_s",
    "parallel.wait": "parallel.wait_s",
    "transport.encode": "transport.encode_s",
    "transport.decode": "transport.decode_s",
    "transport.wait": "transport.wait_s",
    "coordinator.merge": "coordinator.merge_s",
    "shardmap.shard": "shardmap.shard_s",
}

#: Counter, which is also the metric's name -> unit: median per traced op.
COUNT_METRICS = {
    "phase1.t_fragments": "count",
    "phase1.base_clusters": "count",
    "phase2.flows": "count",
    "phase3.pair_checks": "count",
    "phase3.hausdorff_evaluations": "count",
    "roadnet.sp_computations": "count",
    "serialize.doc_bytes": "bytes",
    "incremental.retained_flows": "count",
    "service.retries": "count",
    "service.stale_queries": "count",
    "parallel.tasks": "count",
    "parallel.bytes_shipped": "bytes",
    "parallel.serial_fallbacks": "count",
    "parallel.crash_recoveries": "count",
    "transport.requests": "count",
    "transport.bytes_sent": "bytes",
    "transport.bytes_received": "bytes",
    "transport.reconnects": "count",
    "transport.errors": "count",
    "coordinator.phase3_remote_pairs": "count",
    "coordinator.phase3_local_fallbacks": "count",
    "shardmap.max_shard_share": "ratio",
    "ring.boundary_segments": "count",
}

#: Ratio metric -> (numerator counter, denominator counters).
RATIO_METRICS = {
    "phase3.prune_ratio": ("phase3.pruned", ("phase3.pair_checks",)),
    "roadnet.sp_cache_hit_ratio": (
        "roadnet.sp_cache_hits",
        ("roadnet.sp_cache_hits", "roadnet.sp_computations"),
    ),
}


def _trace_overhead(run: Run) -> float:
    """Median of traced op time over the mean of its untraced neighbours.

    Ops alternate traced and untraced, and a stream's rounds grow in
    cost, so each traced op is compared with the ops right around it.
    """
    by_op = {
        sample.op: sample for sample in run.samples
        if math.isfinite(sample.total_s)
    }
    ratios = []
    for sample in by_op.values():
        before, after = by_op.get(sample.op - 1), by_op.get(sample.op + 1)
        if sample.traced and before and after and not (
            before.traced or after.traced
        ):
            ratios.append(
                2 * sample.total_s / (before.total_s + after.total_s)
            )
    return _median(ratios)


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    recorder = run.recorder
    traced = [sample.op for sample in run.samples if sample.traced]
    self_times = self_time_by_op(recorder.spans)
    counts = [recorder.counters.get(op, {}) for op in traced]
    metrics: dict[str, tuple[float, str]] = {
        "mobisim.simulate_s": (run.inputs.simulate_s, "s"),
        "mobisim.points": (float(run.inputs.points), "count"),
        "roadnet.build_s": (run.inputs.build_s, "s"),
    }
    for span, name in SPAN_METRICS.items():
        metrics[name] = (
            _median([self_times.get(op, {}).get(span, 0.0) for op in traced]),
            "s",
        )
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (_median([c.get(name, 0.0) for c in counts]), unit)
    for name, (numerator, denominator) in RATIO_METRICS.items():
        ratios = []
        for c in counts:
            total = sum(c.get(key, 0.0) for key in denominator)
            ratios.append(c.get(numerator, 0.0) / total if total else 0.0)
        metrics[name] = (_median(ratios), "ratio")
    metrics["obs.trace_overhead_ratio"] = (_trace_overhead(run), "ratio")
    return dict(sorted(metrics.items()))
