#!/usr/bin/env python3
"""Run one workload of the NEAT end-to-end benchmark.

    python3 perfbench/run.py --workload batch_serial --seed 7 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics).  The
line before it is a ``detail`` object with the raw samples and digests.
Every process the run started (pool workers, shards, the
``multiprocessing`` resource tracker) has ended before it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from harness import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if options.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SOURCE}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from harness import adopt_orphans, run_workload, stop_descendants, workload_spec
    from metrics import detail, result_line

    # A SIGTERM unwinds through the ``finally`` below like an error does;
    # forked pool workers keep the default action.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )
    adopt_orphans()
    try:
        run = run_workload(
            options.workload, workload_spec(options.seed), options.seconds,
            trace=bool(options.trace),
        )
    finally:
        stop_descendants()
    print(json.dumps({"detail": detail(run)}, sort_keys=True))
    print(json.dumps(result_line(run), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
