"""The NEAT end-to-end benchmark: workloads, correctness checks, metrics.

Every workload clusters the same inputs with ``NEATConfig(eps=6500.0)``:
the full-scale ATL network carrying about ``POINT_BUDGET`` points of
traffic from ``LAYOUTS`` simulations (see ``make_inputs``).  The seed
reaches the program only through the generated traces.
One process, one thread and one client drive the load (a closed loop:
the next call starts when the previous one returned).

* ``batch_serial``  — cold ``NEAT.run(mode="opt")`` + ``result_to_dict``.
* ``batch_pool2``   — the same op with ``workers=2`` (the worker pool).
* ``batch_shards2`` — the same op through ``NeatCoordinator`` over two
  shard processes (trid routing, pooled connections, remote Phase 3).
* ``service_stream`` — the input in 50 ``submit`` s to an in-process
  ``NeatService``, each followed by one ``get_clustering``.

See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import heapq
import json
import math
import os
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from spans import Probe, Recorder, install

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "digests.json"

REGION = "ATL"
OBJECTS = 500
NETWORK_SCALE = 1.0
EPS = 6500.0  # the paper's ATL eps
#: The input is ``LAYOUTS`` trace sets on one network, from independent
#: simulations (each with its own 2 hotspots and 3 destinations), each
#: cut to an equal share of ``POINT_BUDGET`` points.  One layout's trip
#: lengths swing its point count 2x from seed to seed, and even at a fixed
#: point count its structure made op cost vary 25-40% between seeds; a
#: fixed point count spread over several layouts keeps runs on different
#: seeds comparable.
POINT_BUDGET = 24_000
LAYOUTS = 16
#: Objects a layout simulates first (see ``make_inputs``); a layout's
#: share of the budget takes 6-16 of them.
FIRST_OBJECTS = 16
#: A batch op clusters the layouts in ``GROUPS`` separate runs of
#: ``LAYOUTS // GROUPS`` layouts each (see ``Inputs.groups``).
GROUPS = 4
NETWORK_SEED = 7
STREAM_ROUNDS = 50
SETUP_REPEATS = 3
MIN_BATCH_OPS = 4
PROBE_EVERY_ROUNDS = 5
RPC_TIMEOUT_S = 120.0

WORKLOADS = ("batch_serial", "batch_pool2", "batch_shards2", "service_stream")


def workload_spec(seed: int, objects: int = OBJECTS, scale: float = NETWORK_SCALE):
    from repro.experiments.workloads import WorkloadSpec

    return WorkloadSpec(REGION, objects, network_scale=scale, seed=seed)


def document_digest(document: dict) -> tuple[str, int]:
    """SHA-256 of the sort-keyed JSON encoding, and its size in bytes."""
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest(), len(encoded)


class SpeedProbe:
    """A fixed pure-Python reference job: Dijkstra from 6 sources over a
    seeded random graph of 3 000 nodes, built with no program code.

    It runs between ops.  Its fastest time in a run tracks how fast the
    shared host let the run go (see ``metrics.speed_factor``).
    """

    def __init__(self) -> None:
        rng = random.Random(12345)
        nodes = [(rng.random(), rng.random()) for _ in range(3000)]
        self.adjacency: list[list[tuple[int, float]]] = [[] for _ in nodes]
        for here, point in enumerate(nodes):
            for there in rng.sample(range(len(nodes)), 3):
                length = math.dist(point, nodes[there])
                self.adjacency[here].append((there, length))
                self.adjacency[there].append((here, length))
        self.times: list[float] = []

    def __call__(self) -> None:
        adjacency = self.adjacency
        started = time.perf_counter()
        for source in range(0, len(adjacency), 500):
            best = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                distance, node = heapq.heappop(heap)
                if distance > best[node]:
                    continue
                for neighbour, length in adjacency[node]:
                    candidate = distance + length
                    if candidate < best.get(neighbour, math.inf):
                        best[neighbour] = candidate
                        heapq.heappush(heap, (candidate, neighbour))
        self.times.append(time.perf_counter() - started)


def golden_digest(seed: int, key: str) -> str | None:
    """The recorded digest for ``seed`` (full-size inputs only)."""
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text()).get(str(seed), {}).get(key)


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
def _descendants(root: int) -> list[int]:
    parents: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process whose parent exits, such as the ``multiprocessing``
    resource tracker, is then re-parented here instead of to init, so
    ``stop_descendants`` can wait for it.
    """
    import ctypes

    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _reap(pid: int) -> bool:
    """Whether ``pid`` is gone (and, if it was a child, waited for)."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return not os.path.exists(f"/proc/{pid}")
    return done == pid


def stop_descendants(grace_s: float = 5.0) -> list[int]:
    """Stop every process this one started and wait until each has ended.

    The pool and the shards are closed by the workload itself; what is
    left is the ``multiprocessing`` resource tracker, which the program
    starts with its first shared-memory segment and which would outlive
    this process, and anything a failed run left behind.  Returns the
    pids that had to be signalled.
    """
    from multiprocessing import resource_tracker

    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    leftover = _descendants(os.getpid())
    for pid in leftover:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    pending = set(leftover)
    for sig in (signal.SIGKILL, None):
        deadline = time.monotonic() + grace_s
        while pending and time.monotonic() < deadline:
            pending = {pid for pid in pending if not _reap(pid)}
            pending.update(_descendants(os.getpid()))
            time.sleep(0.02 if pending else 0)
        for pid in pending if sig is not None else ():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
    with contextlib.suppress(ChildProcessError):  # zombies of adopted orphans
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    return leftover


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Summed peak RSS of this process and every live process it started.

    Forked pool workers share pages with this process, so the sum is an
    upper bound on the joint peak.
    """
    pids = [os.getpid(), *_descendants(os.getpid())]
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Probes: where the traced run opens spans
# ----------------------------------------------------------------------
def _refine_before(rec: Recorder, args: tuple, kwargs: dict):
    engine, stats = kwargs.get("engine"), kwargs.get("stats")
    return (
        engine,
        (engine.computations, engine.cache_hits) if engine is not None else (0, 0),
        stats,
        (stats.pair_checks, stats.elb_pruned + stats.llb_pruned,
         stats.hausdorff_evaluations) if stats is not None else (0, 0, 0),
    )


def _refine_after(rec: Recorder, state, result) -> None:
    engine, (computations, hits), stats, (checks, pruned, hausdorff) = state
    if engine is not None:
        rec.count("roadnet.sp_computations", engine.computations - computations)
        rec.count("roadnet.sp_cache_hits", engine.cache_hits - hits)
    if stats is not None:
        rec.count("phase3.pair_checks", stats.pair_checks - checks)
        rec.count(
            "phase3.pruned", stats.elb_pruned + stats.llb_pruned - pruned
        )
        rec.count(
            "phase3.hausdorff_evaluations",
            stats.hausdorff_evaluations - hausdorff,
        )


def _count_base_clusters(rec: Recorder, state, clusters) -> None:
    rec.count("phase1.base_clusters", len(clusters))
    rec.count("phase1.t_fragments", sum(len(cluster) for cluster in clusters))


def _count_flows(rec: Recorder, state, formation) -> None:
    rec.count("phase2.flows", len(formation.flows))


def _retained_flows(rec: Recorder, args: tuple, kwargs: dict):
    return args[0]


def _set_retained_flows(rec: Recorder, incremental, result) -> None:
    rec.set("incremental.retained_flows", len(incremental.flows))


def _shard_share(rec: Recorder, state, by_node) -> None:
    sizes = [len(shard) for shard in by_node.values()]
    if sum(sizes):
        rec.set("shardmap.max_shard_share", max(sizes) / sum(sizes))


def program_probes() -> list[Probe]:
    """Every layer boundary the traced run records a span at."""
    from repro.core import incremental, pipeline, serialize
    from repro.distributed import nodes, service, shardmap, transport
    from repro import parallel

    phase1 = dict(name="phase1", after=_count_base_clusters)
    phase2 = dict(name="phase2", after=_count_flows)
    phase3 = dict(name="phase3", before=_refine_before, after=_refine_after)
    return [
        Probe(pipeline, "form_base_clusters", **phase1),
        Probe(incremental, "form_base_clusters", **phase1),
        Probe(pipeline, "form_flow_clusters", **phase2),
        Probe(incremental, "form_flow_clusters", **phase2),
        Probe(nodes, "form_flow_clusters", **phase2),
        Probe(pipeline, "refine_flow_clusters", **phase3),
        Probe(incremental, "refine_flow_clusters", **phase3),
        Probe(nodes, "refine_flow_clusters", **phase3),
        Probe(service, "validate_result", "validate"),
        Probe(serialize, "result_to_dict", "serialize"),
        Probe(service, "result_to_dict", "serialize"),
        Probe(
            incremental.IncrementalNEAT, "add_batch", "incremental.add_batch",
            before=_retained_flows, after=_set_retained_flows,
        ),
        Probe(service.NeatService, "submit", "service.submit"),
        Probe(service.NeatService, "get_clustering", "service.query"),
        Probe(parallel.WorkerPool, "run_batch", "parallel.wait"),
        Probe(transport, "trajectories_to_packed", "transport.encode"),
        Probe(transport.TransportClient, "start", "transport.encode"),
        Probe(transport, "read_frame", "transport.wait"),
        Probe(transport.TransportClient, "finish", "transport.decode"),
        Probe(transport, "clusters_from_packed", "transport.decode"),
        Probe(
            nodes, "merge_base_clusters", "coordinator.merge",
            after=_count_base_clusters,
        ),
        Probe(
            shardmap.RegionShardMap, "shard", "shardmap.shard",
            after=_shard_share,
        ),
    ]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """The network and the trace sets of every layout, in layout order
    and renumbered."""

    network: Any
    trajectories: list
    points: int
    simulate_s: float
    build_s: float
    layout_ends: list[int]

    @property
    def groups(self) -> list[list]:
        """The trajectories cut into ``GROUPS`` runs of whole layouts.

        One run over all 16 layouts swung op time 25-45% between seeds
        with its Phase 3 pair count; four runs of four layouts stayed
        within 10% on the same seeds, and each run is still large enough
        (32+ trajectories) for the pool to fan Phase 1 out.
        """
        per_group = len(self.layout_ends) // GROUPS
        bounds = [0] + self.layout_ends[per_group - 1::per_group]
        return [
            self.trajectories[lo:hi] for lo, hi in zip(bounds, bounds[1:])
        ]


def layout_specs(spec) -> list:
    """One spec per layout; together they simulate ``spec.object_count``."""
    from repro.experiments.workloads import WorkloadSpec

    return [
        WorkloadSpec(
            spec.region, -(-spec.object_count // LAYOUTS),
            network_scale=spec.network_scale,
            seed=spec.seed * LAYOUTS + layout,
        )
        for layout in range(LAYOUTS)
    ]


def make_inputs(spec) -> Inputs:
    """The network and the point-budgeted trace sets of every layout.

    Each layout contributes the longest prefix of its trajectories that
    fits its share of the budget (a prefix of a simulated dataset is the
    dataset of that many objects: datasets nest by object count).  So a
    layout first simulates ``FIRST_OBJECTS`` objects and only re-simulates
    more, up to its full count, when they all fit: the prefix is the same
    as from the full simulation, at about half its cost.
    """
    from repro.core.model import Trajectory
    from repro.experiments.workloads import build_dataset

    started = time.perf_counter()
    network = build_network(spec)
    built = time.perf_counter()
    share = POINT_BUDGET // LAYOUTS
    trajectories, total, layout_ends = [], 0, []
    for layout in layout_specs(spec):
        count = min(FIRST_OBJECTS, layout.object_count)
        while True:
            points, prefix, full = 0, [], True
            for trajectory in build_dataset(
                network, dataclasses.replace(layout, object_count=count)
            ).trajectories:
                if points + len(trajectory.locations) > share:
                    full = False
                    break
                points += len(trajectory.locations)
                prefix.append(trajectory.locations)
            if not full or count == layout.object_count:
                break
            count = min(2 * count, layout.object_count)
        for locations in prefix:
            trajectories.append(Trajectory(len(trajectories), locations))
        total += points
        layout_ends.append(len(trajectories))
    simulated = time.perf_counter()
    return Inputs(
        network, trajectories, total, simulated - built, built - started,
        layout_ends,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One timed op: its wall time, whether its output was correct, and
    its calls as ``(call, submit_s, query_s)``.

    A call is one clustering request and the document build after it:
    one group of a batch op (``call`` = group), or one stream round
    (``call`` = round).  The same call recurs in every op or stream of a
    run.
    """

    op: int
    total_s: float
    calls: list[tuple[int, float, float]]
    ok: bool
    traced: bool


def build_network(spec):
    from repro.experiments import workloads

    return workloads.build_network(spec.region, spec.network_scale, NETWORK_SEED)


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def serial_digest(network, groups: list[list]) -> str:
    """Digest of the plain serial results: what every batch op must match."""
    from repro.core.config import NEATConfig
    from repro.core.pipeline import NEAT
    from repro.core.serialize import result_to_dict

    return combined_digest([
        document_digest(result_to_dict(
            NEAT(network, NEATConfig(eps=EPS)).run(group, mode="opt"),
            network_name=network.name,
        ))[0]
        for group in groups
    ])


class BatchWorkload:
    """Cold opt-NEAT plus the result document, for every group in turn.

    ``mode`` is ``"serial"``, ``"pool2"`` or ``"shards2"``.  Every op
    must reproduce ``reference``, the serial results' digest.
    """

    def __init__(
        self, mode: str, network, groups: list[list], workdir: Path,
        reference: str,
    ) -> None:
        from repro.core.config import NEATConfig

        self.mode = mode
        self.network = network
        self.groups = groups
        self.workdir = workdir
        self.reference = reference
        self.config = NEATConfig(eps=EPS, workers=2 if mode == "pool2" else 1)
        self.doc_bytes = 0
        self.telemetry = None
        self._shards: list = []
        self._nodes: list = []
        self._shardmap = None

    def start(self) -> None:
        """Mode start-up; the pool itself starts on the first op."""
        if self.mode != "shards2":
            return
        from repro.distributed import (
            RegionShardMap, RemoteDataNode, TransportClient, spawn_local_shards,
        )
        from repro.obs import Telemetry
        from repro.roadnet.io import save_network

        self.workdir.mkdir(parents=True, exist_ok=True)
        network_path = self.workdir / "network.json"
        save_network(self.network, network_path)
        self._shards = spawn_local_shards(
            network_path, 2, work_dir=self.workdir / "shards",
            startup_timeout_s=60.0,
        )
        self.telemetry = Telemetry.create()
        self._nodes = [
            RemoteDataNode(shard.node_id, TransportClient(
                shard.host, shard.port, timeout_s=RPC_TIMEOUT_S,
                metrics=self.telemetry.metrics, pool_size=1,
            ))
            for shard in self._shards
        ]
        self._shardmap = RegionShardMap(
            self.network, [shard.node_id for shard in self._shards],
            route="trid",
        )

    def close(self) -> None:
        if self.mode == "pool2":
            from repro.parallel import shutdown_pool

            shutdown_pool()
        for node in self._nodes:
            node.client.close()
        if self._shards:
            from repro.distributed import stop_shards

            stop_shards(self._shards)
        self._nodes, self._shards = [], []

    def counters(self) -> dict[str, float]:
        """The program's own cumulative counters this mode exercises."""
        if self.mode == "pool2":
            from repro.parallel import pool_counters

            return {
                f"parallel.{name[len('pool.'):]}": float(value)
                for name, value in pool_counters().items()
            }
        if self.mode == "shards2":
            metrics = self.telemetry.metrics
            return {name: metrics.value(name) for name in SHARD_COUNTERS}
        return {}

    def _cluster(self, trajectories: list):
        if self.mode != "shards2":
            from repro.core.pipeline import NEAT

            return NEAT(self.network, self.config).run(trajectories, mode="opt")
        from repro.distributed import NeatCoordinator

        coordinator = NeatCoordinator(
            self.network, self.config, nodes=self._nodes,
            shardmap=self._shardmap, telemetry=self.telemetry,
            remote_phase3=True,
        )
        return coordinator.run(trajectories, mode="opt")

    def op(self, index: int, traced: bool) -> Sample:
        from repro.core import serialize

        calls, digests, dropped, self.doc_bytes = [], [], False, 0
        for group, trajectories in enumerate(self.groups):
            started = time.perf_counter()
            result = self._cluster(trajectories)
            clustered = time.perf_counter()
            document = serialize.result_to_dict(
                result, network_name=self.network.name
            )
            finished = time.perf_counter()
            calls.append((group, clustered - started, finished - clustered))
            digest, size = document_digest(document)
            digests.append(digest)
            self.doc_bytes += size
            dropped = dropped or bool(result.dropped_shards)
        return Sample(
            index, sum(submit + query for _, submit, query in calls), calls,
            combined_digest(digests) == self.reference and not dropped,
            traced,
        )

    def after_op(self) -> None:
        """Untimed: every op starts with cold distance memos."""
        for node in self._nodes:
            node.client.call("reset")
        gc.collect()


SHARD_COUNTERS = (
    "transport.requests", "transport.bytes_sent", "transport.bytes_received",
    "transport.reconnects", "transport.errors",
    "coordinator.phase3_remote_pairs", "coordinator.phase3_local_fallbacks",
    "ring.boundary_segments",
)


class StreamWorkload:
    """One client streaming the input to an in-process ``NeatService``.

    Runs without ``state_dir``: persistence (fsync timing on a shared
    disk) is deliberately not measured.
    """

    def __init__(self, network, trajectories: list) -> None:
        self.network = network
        self.trajectories = trajectories
        self.final_digests: list[str] = []

    def stream(
        self, number: int, trace: bool, recorder: Recorder | None,
        probe: SpeedProbe,
    ) -> tuple[list[Sample], float]:
        """All rounds of one stream; returns the samples and its wall time.

        In a traced run every other round is traced, so traced and
        untraced rounds of the same stream give the tracing overhead.
        Round ``i`` of stream ``number`` is op ``1000 * number + i``.
        """
        from repro.core.config import NEATConfig
        from repro.distributed.service import NeatService

        service = NeatService(self.network, NEATConfig(eps=EPS))
        trajectories = self.trajectories
        rounds = min(STREAM_ROUNDS, len(trajectories))
        samples: list[Sample] = []
        document: dict = {}
        started = time.perf_counter()
        for index in range(rounds):
            batch = trajectories[
                index * len(trajectories) // rounds:
                (index + 1) * len(trajectories) // rounds
            ]
            op = 1000 * number + index
            traced = trace and index % 2 == 0
            before = service.stats()
            if recorder is not None:
                recorder.active, recorder.op = traced, op
            t0 = time.perf_counter()
            try:
                ok = service.submit(batch)["accepted"] == len(batch)
            except Exception:
                ok = False
            t1 = time.perf_counter()
            try:
                document = service.get_clustering()
                ok = ok and not document.get("stale") and not document.get(
                    "slo_degraded"
                )
            except Exception:
                ok = False
            t2 = time.perf_counter()
            if recorder is not None:
                recorder.active = False
                if traced:
                    after = service.stats()
                    recorder.set("service.retries", after.retries - before.retries)
                    recorder.set("service.stale_queries", (
                        after.stale_queries + after.slo_stale_queries
                        - before.stale_queries - before.slo_stale_queries
                    ))
                    recorder.set(
                        "serialize.doc_bytes", document_digest(document)[1]
                    )
            samples.append(Sample(
                op, t2 - t0, [(index, t1 - t0, t2 - t1)], ok, traced,
            ))
            if index % PROBE_EVERY_ROUNDS == 0:
                probe()
        wall = time.perf_counter() - started
        digest = document_digest(document)[0]
        if self.final_digests and digest != self.final_digests[0]:
            samples[-1].ok = False
        self.final_digests.append(digest)
        return samples, wall


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Everything one run measured, before it is folded into metrics."""

    workload: str
    seed: int
    setup_s: list[float]
    inputs: Inputs
    samples: list[Sample]
    peak_rss_mb: float
    digest: str
    probe_s: list[float]
    stream_walls: list[float] = field(default_factory=list)
    recorder: Recorder | None = None


def _measure_batch(
    workload: BatchWorkload, seconds: float, trace: bool,
    recorder: Recorder | None, probe: SpeedProbe,
) -> list[Sample]:
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_BATCH_OPS or time.perf_counter() < deadline:
        index = len(samples)
        traced = trace and index % 2 == 0
        before = workload.counters()
        if recorder is not None:
            recorder.active, recorder.op = traced, index
        try:
            sample = workload.op(index, traced)
        except Exception:
            sample = Sample(index, math.nan, [], False, traced)
        if recorder is not None:
            recorder.active = False
            if traced:
                after = workload.counters()
                for key, value in after.items():
                    recorder.set(key, value - before.get(key, 0.0))
                recorder.set("serialize.doc_bytes", workload.doc_bytes)
        samples.append(sample)
        workload.after_op()
        probe()
    return samples


def _freeze_heap() -> None:
    """Move everything set-up made (network, inputs) out of the collector's
    reach, as a long-running server would after start-up, so a full
    collection during an op scans only what ops allocate."""
    gc.collect()
    gc.freeze()


def run_workload(name: str, spec, seconds: float, trace: bool) -> Run:
    """Generate inputs, set up, measure for ``seconds``, tear down.

    Set-up (network build, mode start-up, one untimed warm-up op) runs
    ``SETUP_REPEATS`` times; the last one serves the measurement.  Trace
    generation happens once, outside set-up.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; pick from {WORKLOADS}")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    recorder = Recorder() if trace else None
    undo = install(program_probes(), recorder) if recorder is not None else None
    workload: BatchWorkload | None = None
    setups: list[float] = []
    failed_warmups: list[Sample] = []
    walls: list[float] = []
    probe = SpeedProbe()
    try:
        inputs = make_inputs(spec)
        if name == "service_stream":
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                stream = StreamWorkload(build_network(spec), inputs.trajectories)
                setups.append(time.perf_counter() - started)
            samples = []
            _freeze_heap()
            deadline = time.perf_counter() + seconds
            while not walls or time.perf_counter() < deadline:
                part, wall = stream.stream(len(walls), trace, recorder, probe)
                samples.extend(part)
                walls.append(wall)
            rss = peak_rss_mb()
            digest = stream.final_digests[0]
        else:
            reference = serial_digest(inputs.network, inputs.groups)
            for repeat in range(SETUP_REPEATS):
                if workload is not None:
                    workload.close()
                started = time.perf_counter()
                workload = BatchWorkload(
                    name.split("_", 1)[1], build_network(spec),
                    inputs.groups, workdir / f"setup-{repeat}", reference,
                )
                workload.start()
                warm = workload.op(-1 - repeat, False)
                workload.after_op()
                setups.append(time.perf_counter() - started)
                if not warm.ok:
                    failed_warmups.append(warm)
            _freeze_heap()
            samples = failed_warmups + _measure_batch(
                workload, seconds, trace, recorder, probe
            )
            rss = peak_rss_mb()
            digest = reference
    finally:
        gc.unfreeze()
        if workload is not None:
            workload.close()
        if undo is not None:
            undo()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            scratch.rmdir()
    full_size = (spec.region, spec.object_count, spec.network_scale) == (
        REGION, OBJECTS, NETWORK_SCALE
    )
    expected = golden_digest(
        spec.seed, "stream" if name == "service_stream" else "batch"
    ) if full_size else None
    if expected is not None and expected != digest:
        for sample in samples:
            sample.ok = False
    return Run(
        name, spec.seed, setups, inputs, samples, rss, digest, probe.times,
        walls, recorder,
    )
