"""Tests of the benchmark itself, on smoke-size inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from harness import run_workload, workload_spec
from metrics import result_line
from spans import Recorder, Span, self_time_by_op, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_spec(seed: int = 3):
    # 160 objects make groups of ~40 trajectories: enough for the pool
    # to fan Phase 1 out.
    return workload_spec(seed, objects=160, scale=0.05)


#: Span names each workload's traced run must record.
LAYER_SPANS = {
    "batch_serial": {"phase1", "phase2", "phase3", "serialize"},
    "batch_pool2": {"phase1", "phase2", "phase3", "serialize", "parallel.wait"},
    "batch_shards2": {
        "phase2", "phase3", "serialize", "transport.encode",
        "transport.wait", "transport.decode", "coordinator.merge",
        "shardmap.shard",
    },
    "service_stream": {
        "service.submit", "service.query", "incremental.add_batch",
        "phase1", "phase2", "phase3", "validate", "serialize",
    },
}


@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for workload in harness.WORKLOADS:
        for trace in (False, True):
            runs[workload, trace] = run_workload(
                workload, smoke_spec(), seconds=0.01, trace=trace
            )
    return runs


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(smoke_runs, workload):
    line = result_line(smoke_runs[workload, False])
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert line["metrics"]["success_rate"]["value"] == 1.0
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(smoke_runs, workload):
    line = result_line(smoke_runs[workload, True])
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == _declared("per_layer")
    assert line["correct"]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_records_a_span_per_layer(smoke_runs, workload):
    run = smoke_runs[workload, True]
    traced_ops = {s.op for s in run.samples if s.traced}
    names = {span.name for span in run.recorder.spans if span.op in traced_ops}
    assert LAYER_SPANS[workload] <= names
    # Untraced ops of the same run record nothing.
    assert all(span.op in traced_ops for span in run.recorder.spans)


def test_a_digest_other_than_the_recorded_one_fails_every_op(monkeypatch):
    spec = smoke_spec()
    monkeypatch.setattr(harness, "OBJECTS", spec.object_count)
    monkeypatch.setattr(harness, "NETWORK_SCALE", spec.network_scale)
    monkeypatch.setattr(harness, "golden_digest", lambda seed, key: "0" * 64)
    line = result_line(run_workload("batch_serial", spec, 0.01, trace=False))
    assert not line["correct"]
    assert line["failed"] == line["attempted"]
    assert line["metrics"]["success_rate"]["value"] == 0.0


def test_no_process_outlives_the_run(smoke_runs):
    # The pool run started the multiprocessing resource tracker, which
    # would otherwise outlive this process.
    assert harness._descendants(os.getpid())
    harness.stop_descendants()
    assert harness._descendants(os.getpid()) == []


def test_orphaned_grandchildren_are_adopted_and_stopped():
    harness.adopt_orphans()
    # The shell exits at once; its background sleep is orphaned.
    pid = int(subprocess.run(
        ["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
        capture_output=True, text=True, check=True,
    ).stdout)
    assert pid in harness._descendants(os.getpid())
    assert pid in harness.stop_descendants()
    assert not Path(f"/proc/{pid}").exists()


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(0, None, 1, "root", 0.0, 10.0),
        # Two children overlapping on [3, 4] and one nested grandchild:
        # the root's covered part is [2, 6] = 4 s, not 3 + 2 = 5 s.
        Span(1, 0, 1, "a", 2.0, 5.0),
        Span(2, 0, 1, "b", 3.0, 6.0),
        Span(3, 1, 1, "c", 2.5, 3.5),
        # A child running past its parent's end is clipped to the parent.
        Span(4, None, 2, "root", 20.0, 21.0),
        Span(5, 4, 2, "a", 20.5, 22.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(0.5)
    folded = self_time_by_op(spans)
    assert folded[1] == pytest.approx({"root": 6.0, "a": 2.0, "b": 3.0, "c": 1.0})
    assert folded[2] == pytest.approx({"root": 0.5, "a": 1.5})


def test_recorder_nests_spans_under_the_open_span():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.op = 7
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert (outer.parent, inner.parent, inner.op) == (None, outer.span_id, 7)
    assert self_times(recorder.spans) == {0: 2.0, 1: 1.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "batch_serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
