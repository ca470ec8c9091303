#!/usr/bin/env python
"""Sweep benchmark: run_sweep vs K independent runs, plus the shard cache.

The paper's headline figures are parameter *sweeps*: Fig. 2 simulates
the same exemplar sub-traces once per upload ratio, and the other
figures re-run near-identical configs over one catalogue trace.  The
sweep runtime (``Simulator.run_sweep``) groups the trace once and, on
the compiled kernel, packs each swarm's schedule once for all K configs
-- so a K-ratio sweep should cost much closer to one run than to K.
Without the compiled kernel a sweep is K object-kernel runs sharing one
grouping, and saves little.  This benchmark measures the claim on two
workloads:

* ``exemplar`` -- the Fig. 2 trace (three pinned popularity tiers,
  uniform bitrate) under the paper's five-ratio q/beta sweep;
* ``catalogue`` -- the full-catalogue city trace (Figs. 3/4/6's
  workload) under the same ratio sweep.

and **fails loudly** if

* any sweep result differs (bit for bit) from its independent-run
  baseline,
* a sweep is slower than its K-run baseline (or below ``--min-speedup``),
* the second sweep over an explicit ``--shard-dir`` misses the
  content-addressed shard cache (``GroupingStats.cache_hit``),
* with ``--check-baseline FILE``: any per-ratio offload fraction
  deviates from the committed baseline (the CI smoke pins the quick
  preset's physics against ``benchmarks/baselines/sweep_quick.json``,
  so a silent behaviour change cannot hide behind a green equality
  check that only compares the run against itself).

A machine-readable ``BENCH_sweep.json`` is written at the repo root
(override with ``--out``) so the perf trajectory accumulates across
PRs: speedups, schedule-build counts and shard-cache timings, stamped
with the git revision, core count, Python version and whether the C
kernel was compiled.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py           # full
    PYTHONPATH=src python benchmarks/bench_sweep.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_sweep.py --backend process --workers 4

Run standalone (argparse, not pytest) so CI and operators can invoke it
without the benchmark plugin stack.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_london import git_revision  # noqa: E402

from repro.experiments.config import ExperimentSettings, UNIFORM_DEVICE_MIX  # noqa: E402
from repro.sim.backends import ProcessPoolBackend, SerialBackend  # noqa: E402
from repro.sim.engine import SimulationConfig, Simulator  # noqa: E402
from repro.sim.kernel_columns import HAVE_COMPILED  # noqa: E402
from repro.trace.events import Trace  # noqa: E402
from repro.trace.generator import TraceGenerator  # noqa: E402

#: The paper's Fig. 2 q/beta sweep.
UPLOAD_RATIOS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: Default output path: the repo root, so the perf trajectory is
#: versioned alongside the code it measures.
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def build_traces(scale: float, days: int) -> Dict[str, Trace]:
    """The two benchmark workloads at the given scale."""
    settings = ExperimentSettings(scale=scale, days=days)
    return {
        "exemplar": TraceGenerator(
            config=settings.exemplar_config(), device_mix=UNIFORM_DEVICE_MIX
        ).generate(),
        "catalogue": TraceGenerator(config=settings.city_config()).generate(),
    }


def make_backend(name: str, workers: int):
    if name == "serial":
        return SerialBackend()
    return ProcessPoolBackend(workers, min_sessions=0)


def measure_workload(
    name: str,
    trace: Trace,
    backend_name: str,
    workers: int,
    repetitions: int,
    violations: List[str],
) -> Dict:
    """Time K independent runs vs one sweep; verify bit-for-bit equality."""
    configs = [SimulationConfig(upload_ratio=ratio) for ratio in UPLOAD_RATIOS]
    baseline_best = sweep_best = float("inf")
    baseline_results = sweep_results = None
    sweep_stats = None
    for _ in range(repetitions):
        # Baseline: K fully independent runs, each with its own
        # simulator -- exactly what a per-ratio figure driver does.
        backend = make_backend(backend_name, workers)
        start = time.perf_counter()
        baseline_results = [
            Simulator(config, backend=backend).run(trace) for config in configs
        ]
        baseline_best = min(baseline_best, time.perf_counter() - start)

        simulator = Simulator(configs[0], backend=backend)
        start = time.perf_counter()
        sweep_results = simulator.run_sweep(trace, configs)
        sweep_best = min(sweep_best, time.perf_counter() - start)
        sweep_stats = simulator.last_sweep
        if hasattr(backend, "close"):
            backend.close()

    for ratio, base, swept in zip(UPLOAD_RATIOS, baseline_results, sweep_results):
        if not base.identical_to(swept):
            violations.append(
                f"{name}: sweep result at q/beta={ratio} differs from the "
                f"independent run"
            )
    offload_fractions = [result.offload_fraction() for result in sweep_results]
    speedup = baseline_best / sweep_best if sweep_best > 0 else float("inf")
    print(
        f"   {name:>10}: {len(trace):>7} sessions  "
        f"{len(UPLOAD_RATIOS)}x run {baseline_best:7.3f}s  "
        f"run_sweep {sweep_best:7.3f}s  speedup {speedup:5.2f}x  "
        f"schedules {sweep_stats.schedule_builds}/{sweep_stats.tasks * len(configs)}"
    )
    return {
        "sessions": len(trace),
        "configs": len(configs),
        "baseline_seconds": baseline_best,
        "sweep_seconds": sweep_best,
        "speedup": speedup,
        "schedule_builds": sweep_stats.schedule_builds,
        "tasks": sweep_stats.tasks,
        "offload_fractions": offload_fractions,
    }


def measure_shard_cache(trace: Trace, violations: List[str]) -> Dict:
    """Build-then-reuse through the content-addressed shard cache."""
    configs = [SimulationConfig(upload_ratio=ratio) for ratio in UPLOAD_RATIOS]
    reference = Simulator(configs[0]).run_sweep(trace, configs)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache-") as temp_dir:
        cached = SimulationConfig(
            upload_ratio=1.0, grouping="external", shard_dir=str(Path(temp_dir) / "shards")
        )
        first = Simulator(cached)
        start = time.perf_counter()
        built = first.run_sweep(trace, configs)
        build_seconds = time.perf_counter() - start
        first_hit = first.last_grouping.cache_hit

        # A *fresh* simulator: nothing survives but the shard directory,
        # exactly like a second process sweeping the same trace.
        second = Simulator(cached)
        start = time.perf_counter()
        reused = second.run_sweep(trace, configs)
        reuse_seconds = time.perf_counter() - start
        second_hit = second.last_grouping.cache_hit

    if first_hit is not False:
        violations.append(f"first sweep should build the cache (cache_hit False), got {first_hit}")
    if second_hit is not True:
        violations.append(f"second sweep did not reuse the cached shard (cache_hit {second_hit})")
    for ratio, base, result in zip(UPLOAD_RATIOS, reference, built):
        if not base.identical_to(result):
            violations.append(f"cache-building sweep differs at q/beta={ratio}")
    for ratio, base, result in zip(UPLOAD_RATIOS, reference, reused):
        if not base.identical_to(result):
            violations.append(f"cache-reusing sweep differs at q/beta={ratio}")
    print(
        f"   shard cache: build {build_seconds:7.3f}s (cache_hit={first_hit})  "
        f"reuse {reuse_seconds:7.3f}s (cache_hit={second_hit})"
    )
    return {
        "build_seconds": build_seconds,
        "reuse_seconds": reuse_seconds,
        "first_cache_hit": first_hit,
        "second_cache_hit": second_hit,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=None,
        help="trace scale (default: 0.1; with --quick: 0.05)",
    )
    parser.add_argument("--days", type=int, default=7, help="trace length in days")
    parser.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="execution backend for both sides of the comparison",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker count for the process backend (default: 2)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=None,
        help="timing repetitions, best-of (default: 3; with --quick: 2)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.0,
        help="fail below this sweep speedup on every workload (default: 1.0 "
        "-- a sweep must never lose to independent runs)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"where to write the JSON record (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: small scale, fewer repetitions",
    )
    parser.add_argument(
        "--check-baseline", type=Path, default=None, metavar="FILE",
        help="fail if per-ratio offload fractions deviate from this "
        "committed baseline JSON (see benchmarks/baselines/)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.05 if args.quick else 0.1)
    repetitions = args.repetitions if args.repetitions is not None else (2 if args.quick else 3)

    print(
        f"sweep benchmark: {len(UPLOAD_RATIOS)}-ratio q/beta sweep "
        f"(Fig. 2 axis), scale {scale:g}, {args.days} days, "
        f"backend {args.backend}, best of {repetitions}, "
        f"compiled kernel {'yes' if HAVE_COMPILED else 'no'}"
    )
    traces = build_traces(scale, args.days)
    violations: List[str] = []
    workloads = {
        name: measure_workload(
            name, trace, args.backend, args.workers, repetitions, violations
        )
        for name, trace in traces.items()
    }
    cache = measure_shard_cache(traces["exemplar"], violations)

    if args.check_baseline is not None:
        baseline = json.loads(args.check_baseline.read_text())
        for name, row in workloads.items():
            expected = baseline.get("offload_fractions", {}).get(name)
            if expected is None:
                violations.append(f"{name}: no offload baseline in {args.check_baseline}")
                continue
            if len(expected) != len(UPLOAD_RATIOS):
                violations.append(
                    f"{name}: baseline has {len(expected)} offload "
                    f"fractions for {len(UPLOAD_RATIOS)} ratios -- "
                    f"regenerate {args.check_baseline}"
                )
                continue
            for ratio, want, got in zip(
                UPLOAD_RATIOS, expected, row["offload_fractions"]
            ):
                if abs(want - got) > 1e-12:
                    violations.append(
                        f"{name}: offload fraction at q/beta={ratio} is "
                        f"{got!r}, baseline says {want!r} "
                        f"(physics changed -- regenerate the baseline only "
                        f"if the change is intended)"
                    )

    for name, row in workloads.items():
        if row["speedup"] < args.min_speedup:
            violations.append(
                f"{name}: sweep speedup {row['speedup']:.2f}x below the "
                f"--min-speedup floor ({args.min_speedup:g}x)"
            )

    record = {
        "benchmark": "bench_sweep",
        "revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiled": HAVE_COMPILED,
        "upload_ratios": list(UPLOAD_RATIOS),
        "scale": scale,
        "days": args.days,
        "backend": args.backend,
        "repetitions": repetitions,
        "workloads": workloads,
        "shard_cache": cache,
        "violations": violations,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if violations:
        for violation in violations:
            print(f"VIOLATION: {violation}")
        return 1
    print(
        "ok: every sweep bit-for-bit identical to its independent-run "
        "baseline, faster than the baseline, and the second sweep reused "
        "the cached shard"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
