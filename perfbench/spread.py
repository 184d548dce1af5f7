#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workloads batch_serial service_stream \
        --seeds 101-110 --out perfbench/steadiness.json

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and reports for every end-to-end metric the quartiles of its values
(``statistics.quantiles(values, n=4)``), their spread ``(q3 - q1) /
median`` and the metric's bound from ``BENCHMARK.json``.  ``--raw``
keeps every run's full output lines for later analysis.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "q1": q1, "median": median, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--raw", type=Path)
    options = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seeds = parse_seeds(options.seeds)
    report: dict = {"seeds": seeds, "run_seconds": benchmark["run_seconds"]}
    raw: list = []
    for workload in options.workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            detail, result = run_once(workload, seed, benchmark["run_seconds"])
            raw.append({"detail": detail, "result": result})
            print(workload, seed, json.dumps({
                name: round(m["value"], 4) for name, m in result["metrics"].items()
            }), "failed", result["failed"], flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {
            name: summarize(series, bounds.get(name))
            for name, series in values.items()
        }
    text = json.dumps(report, indent=1, sort_keys=True)
    if options.out is not None:
        options.out.write_text(text + "\n")
    else:
        print(text)
    if options.raw is not None:
        options.raw.write_text(json.dumps(raw))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
