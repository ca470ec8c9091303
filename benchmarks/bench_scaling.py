#!/usr/bin/env python
"""Scaling benchmark: simulation wall-clock vs worker count.

Measures the swarm-sharded runtime (``repro.sim.backends``) against the
serial baseline on traces at multiples of the default benchmark size
(the 1x base is ~15K sessions, the same workload ``bench_pipeline.py``
uses; ``--sizes 10 100`` approaches the paper's full-trace regime).
Every parallel result is checked for exact equality with the serial
run before its timing is reported -- a wrong-but-fast backend fails
loudly here.

The rows are written to BENCH_scaling.json at the repo root (override
with ``--out``), stamped with the git revision, core count, Python
version and whether the C kernel was compiled, so parallel speedup
claims can cite a committed record.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py             # 10x trace
    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 10 100
    PYTHONPATH=src python benchmarks/bench_scaling.py --quick     # CI smoke

Run standalone (argparse, not pytest) so CI and operators can invoke it
without the benchmark plugin stack.  Speedup is reported relative to
the serial backend at each size; on a single-core container the
process pool cannot beat serial (there is nothing to run on), so the
exit code reflects *correctness*, never speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_london import git_revision  # noqa: E402

from repro.sim.backends import ProcessPoolBackend, SerialBackend  # noqa: E402
from repro.sim.engine import SimulationConfig, Simulator  # noqa: E402
from repro.sim.kernel_columns import HAVE_COMPILED  # noqa: E402
from repro.sim.results import SimulationResult  # noqa: E402
from repro.trace.events import Trace  # noqa: E402
from repro.trace.generator import GeneratorConfig, TraceGenerator  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"

#: The 1x workload (matches bench_pipeline.py's trace).
BASE_CONFIG = GeneratorConfig(
    num_users=2_000, num_items=150, days=3, expected_sessions=15_000, seed=5
)


def build_trace(size: float) -> Trace:
    """The benchmark trace at ``size`` times the 1x workload."""
    return TraceGenerator(config=BASE_CONFIG.scaled(size)).generate()


def results_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Exact (not approximate) equality at every accounting level.

    Delegates to ``SimulationResult.identical_to`` -- the runtime's own
    canonical determinism check -- so new accounting fields are covered
    automatically.
    """
    return a.identical_to(b)


def time_run(simulator: Simulator, trace: Trace, repeat: int) -> tuple:
    """Best-of-``repeat`` wall-clock seconds and the (last) result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = simulator.run(trace)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_benchmark(
    sizes: Sequence[float], worker_counts: Sequence[int], repeat: int
) -> List[dict]:
    rows = []
    for size in sizes:
        trace = build_trace(size)
        print(
            f"\n-- trace {size:g}x: {len(trace)} sessions, "
            f"{len(trace.user_ids)} users, {trace.num_days} days --"
        )
        serial_secs, serial_result = time_run(
            Simulator(SimulationConfig(), backend=SerialBackend()), trace, repeat
        )
        rows.append(
            {"size": size, "sessions": len(trace), "workers": 1,
             "backend": "serial", "seconds": serial_secs, "speedup": 1.0,
             "identical": True}
        )
        print(f"   serial           {serial_secs:8.3f}s   1.00x")
        for workers in worker_counts:
            if workers <= 1:
                continue
            backend = ProcessPoolBackend(workers)
            secs, result = time_run(
                Simulator(SimulationConfig(), backend=backend), trace, repeat
            )
            identical = results_identical(serial_result, result)
            speedup = serial_secs / secs if secs > 0 else float("inf")
            rows.append(
                {"size": size, "sessions": len(trace), "workers": workers,
                 "backend": "process", "seconds": secs, "speedup": speedup,
                 "identical": identical}
            )
            flag = "" if identical else "   !! RESULT MISMATCH"
            print(
                f"   process x{workers:<3d}     {secs:8.3f}s   "
                f"{speedup:.2f}x{flag}"
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=float, nargs="+", default=[10.0],
        help="trace size multipliers over the 1x base (default: 10)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[2, 4],
        help="worker counts to benchmark against serial (default: 2 4)",
    )
    parser.add_argument(
        "--repeat", type=int, default=2, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: 1x trace, 2 workers, single repetition",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"where to write the JSON record (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    sizes = [1.0] if args.quick else args.sizes
    workers = [2] if args.quick else args.workers
    repeat = 1 if args.quick else max(1, args.repeat)

    cores = os.cpu_count() or 1
    print(f"cpu cores: {cores}; sizes: {sizes}; workers: {workers}")
    if cores == 1:
        print("note: single-core host -- process-pool speedup is bounded at 1x")

    rows = run_benchmark(sizes, workers, repeat)

    mismatches = [r for r in rows if not r["identical"]]
    best = max((r["speedup"] for r in rows if r["backend"] == "process"), default=0.0)
    print(f"\nbest parallel speedup: {best:.2f}x; mismatches: {len(mismatches)}")
    record = {
        "benchmark": "bench_scaling",
        "revision": git_revision(),
        "nproc": cores,
        "python": platform.python_version(),
        "compiled": HAVE_COMPILED,
        "sizes": sizes,
        "workers": workers,
        "repeat": repeat,
        "rows": rows,
        "best_speedup": best,
        "mismatches": len(mismatches),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
