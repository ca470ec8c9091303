#!/usr/bin/env python
"""Memory benchmark: coordinator residency vs reduction mode and trace size.

Both reduction modes (``streaming`` and ``spill``, see
``repro.sim.reduce``) fold shard outputs as they complete and must keep
the coordinator's resident partial count bounded by ``workers + 1`` no
matter how large the trace gets.  This benchmark measures both (peak
resident partial count straight from the runtime's own
``ReductionStats``, Python heap peak via ``tracemalloc``) across a
sweep of trace sizes, verifies every mode is bit-for-bit identical to
the in-order reference fold (``merge_outputs`` over object-kernel
outputs, no engine involved), and **fails loudly** if

* a run ever holds more than ``workers + 1`` partials,
* the streaming peak does not stay flat across trace sizes,
* the largest trace folds no more outputs than the bound (so the bound
  would constrain nothing), or
* any mode's result differs from the reference.

A second, **grouping** axis (``--grouping-axis``) measures the other
memory ceiling: ``grouping="memory"`` buffers every session in the
coordinator while partitioning the stream (peak buffered sessions ==
trace size), while ``grouping="external"`` spills sorted runs to disk
and must keep its peak buffered session count **flat at the sort-buffer
bound** as the trace grows.  The axis streams
``TraceGenerator.iter_sessions()`` end to end (generation -> grouping
-> streaming reduction), verifies both groupings are bit-for-bit
identical, and fails loudly if the external bound is exceeded or does
not stay flat while memory grouping grows linearly.

Usage::

    PYTHONPATH=src python benchmarks/bench_memory.py            # 1x 2x 4x
    PYTHONPATH=src python benchmarks/bench_memory.py --sizes 1 4 16
    PYTHONPATH=src python benchmarks/bench_memory.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_memory.py --quick --grouping-axis

Run standalone (argparse, not pytest) so CI and operators can invoke it
without the benchmark plugin stack.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.sim.backends import ProcessPoolBackend, SerialBackend
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.grouping import ExternalGrouping, MemoryGrouping
from repro.sim.kernel import build_tasks, merge_outputs, run_swarm_object
from repro.sim.reduce import REDUCTION_MODES
from repro.sim.results import SimulationResult
from repro.trace.events import Trace
from repro.trace.generator import GeneratorConfig, TraceGenerator

#: The 1x workload (matches bench_scaling.py's trace).
BASE_CONFIG = GeneratorConfig(
    num_users=2_000, num_items=150, days=3, expected_sessions=15_000, seed=5
)


def build_trace(size: float) -> Trace:
    """The benchmark trace at ``size`` times the 1x workload."""
    return TraceGenerator(config=BASE_CONFIG.scaled(size)).generate()


def make_backend(name: str, workers: int):
    if name == "serial":
        return SerialBackend()
    return ProcessPoolBackend(workers, min_sessions=0)


def reference_fold(trace: Trace) -> SimulationResult:
    """``merge_outputs`` over object-kernel outputs, in task order."""
    config = SimulationConfig()
    outputs = [
        run_swarm_object(task, config)
        for task in build_tasks(trace, trace.horizon, config.policy)
    ]
    return merge_outputs(
        outputs,
        delta_tau=config.delta_tau,
        horizon=trace.horizon,
        upload_ratio=config.upload_ratio,
    )


def measure(backend, workers: int, reduction: str, trace: Trace) -> dict:
    """One simulation run under ``reduction``, instrumented."""
    simulator = Simulator(SimulationConfig(reduction=reduction), backend=backend)
    tracemalloc.start()
    start = time.perf_counter()
    result = simulator.run(trace)
    seconds = time.perf_counter() - start
    _, heap_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats = simulator.last_reduction
    return {
        "reduction": reduction,
        "workers": workers,
        "result": result,
        "seconds": seconds,
        "heap_peak_mb": heap_peak / 1e6,
        "blocks": stats.blocks,
        "outputs": stats.outputs,
        "peak_resident": stats.peak_resident,
        "peak_resident_outputs": stats.peak_resident_outputs,
    }


def run_benchmark(
    sizes: Sequence[float], backend_name: str, workers: int
) -> List[str]:
    """Sweep sizes x reduction modes; return the list of violations."""
    violations: List[str] = []
    streaming_peaks: List[int] = []
    outputs_folded = 0
    bound = workers + 1

    for size in sizes:
        trace = build_trace(size)
        backend = make_backend(backend_name, workers)
        print(
            f"\n-- trace {size:g}x: {len(trace)} sessions, "
            f"{len(trace.user_ids)} users --"
        )
        reference = reference_fold(trace)
        for reduction in REDUCTION_MODES:
            row = measure(backend, workers, reduction, trace)
            marks = []
            if not reference.identical_to(row["result"]):
                violations.append(
                    f"{size:g}x {reduction}: result differs from the reference fold"
                )
                marks.append("!! RESULT MISMATCH")
            if row["peak_resident"] > bound:
                violations.append(
                    f"{size:g}x {reduction}: {row['peak_resident']} resident "
                    f"partials exceeds workers + 1 = {bound}"
                )
                marks.append("!! UNBOUNDED")
            if reduction == "streaming":
                streaming_peaks.append(row["peak_resident"])
                if size == max(sizes):
                    outputs_folded = row["outputs"]
            print(
                f"   {reduction:>9}   {row['seconds']:7.3f}s   "
                f"heap peak {row['heap_peak_mb']:8.2f} MB   "
                f"resident partials {row['peak_resident']:>5d} "
                f"({row['peak_resident_outputs']} outputs) "
                f"/ {row['blocks']} blocks   {' '.join(marks)}"
            )
        if hasattr(backend, "close"):
            backend.close()

    # The bound only means something if the run folds more outputs than
    # it lets stay resident: at the largest size the shard total must
    # exceed workers + 1, while the streaming peak stays flat at the
    # worker bound across sizes.
    if outputs_folded <= bound:
        violations.append(
            f"the largest trace folded only {outputs_folded} outputs, no more "
            f"than the bound ({bound}); trace too small to measure anything"
        )
    if len(sizes) > 1:
        if max(streaming_peaks) > bound:
            violations.append(
                f"streaming resident partials exceeded the bound across "
                f"sizes: {streaming_peaks} (bound {bound})"
            )
    return violations


#: Sort-buffer size for the grouping axis: far below the 1x session
#: count, so external grouping genuinely spills and merges at every size.
GROUPING_RUN_SESSIONS = 2_000


def run_grouping_benchmark(sizes: Sequence[float]) -> List[str]:
    """Sweep sizes x grouping modes; return the list of violations.

    The population is held at the 1x size while expected sessions scale
    -- isolating the per-session grouping footprint from the O(users)
    population the generator itself holds.
    """
    violations: List[str] = []
    memory_peaks: List[int] = []
    external_peaks: List[int] = []

    for size in sizes:
        config = replace(
            BASE_CONFIG, expected_sessions=BASE_CONFIG.expected_sessions * size
        )
        print(f"\n-- trace {size:g}x: ~{config.expected_sessions:,.0f} sessions --")
        baseline = None
        for mode in ("memory", "external"):
            generator = TraceGenerator(config=config)
            strategy = (
                ExternalGrouping(run_sessions=GROUPING_RUN_SESSIONS)
                if mode == "external"
                else MemoryGrouping()
            )
            simulator = Simulator(
                SimulationConfig(reduction="streaming"),
                backend=SerialBackend(),
                grouping=strategy,
            )
            tracemalloc.start()
            start = time.perf_counter()
            result = simulator.run_stream(
                generator.iter_sessions(), config.horizon
            )
            seconds = time.perf_counter() - start
            _, heap_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            stats = simulator.last_grouping
            marks = []
            if mode == "memory":
                baseline = result
                memory_peaks.append(stats.peak_buffered_sessions)
            else:
                external_peaks.append(stats.peak_buffered_sessions)
                if not baseline.identical_to(result):
                    violations.append(
                        f"{size:g}x external: result differs from memory grouping"
                    )
                    marks.append("!! RESULT MISMATCH")
                if stats.peak_buffered_sessions > GROUPING_RUN_SESSIONS:
                    violations.append(
                        f"{size:g}x external: {stats.peak_buffered_sessions} "
                        f"buffered sessions exceeds the sort buffer "
                        f"({GROUPING_RUN_SESSIONS})"
                    )
                    marks.append("!! UNBOUNDED")
            print(
                f"   {mode:>9}   {seconds:7.3f}s   "
                f"heap peak {heap_peak / 1e6:8.2f} MB   "
                f"peak buffered sessions {stats.peak_buffered_sessions:>8,d}   "
                f"runs spilled {stats.runs_spilled:>3d}   {' '.join(marks)}"
            )

    if len(sizes) > 1:
        # Memory grouping buffers the whole trace: its peak must track
        # the session count.  External grouping must stay pinned at the
        # sort-buffer bound -- flat no matter how far the trace grows.
        if memory_peaks[-1] < memory_peaks[0] * (sizes[-1] / sizes[0]) * 0.5:
            violations.append(
                f"memory-grouping residency did not grow with trace size: "
                f"{memory_peaks}"
            )
        if memory_peaks[-1] <= GROUPING_RUN_SESSIONS:
            violations.append(
                f"memory-grouping residency ({memory_peaks[-1]}) never "
                f"exceeded the external bound ({GROUPING_RUN_SESSIONS}); "
                f"trace too small to measure anything"
            )
        if max(external_peaks) > GROUPING_RUN_SESSIONS:
            violations.append(
                f"external grouping exceeded its sort buffer across sizes: "
                f"{external_peaks} (bound {GROUPING_RUN_SESSIONS})"
            )
        if max(external_peaks) > min(external_peaks) * 1.5:
            violations.append(
                f"external-grouping residency is not flat across sizes: "
                f"{external_peaks}"
            )
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=float, nargs="+", default=None,
        help="trace size multipliers over the 1x base (default: 1 2 4; "
        "with --quick: 0.5 1)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="execution backend (default: serial -- residency is a "
        "coordinator property, so the serial bound of 1 is the tightest)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker count for the process backend (default: 2)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: small default sizes (explicit flags still win)",
    )
    parser.add_argument(
        "--grouping-axis", action="store_true",
        help="measure the grouping axis instead: coordinator residency "
        "under memory vs external grouping as the trace grows",
    )
    args = parser.parse_args(argv)

    # --quick only shrinks the *defaults*; explicit flags always win.
    if args.grouping_axis:
        sizes = args.sizes or ([1.0, 2.0] if args.quick else [1.0, 2.0, 4.0])
        print(
            f"grouping axis; sizes: {sizes}; external bound: "
            f"{GROUPING_RUN_SESSIONS} buffered sessions (sort buffer)"
        )
        violations = run_grouping_benchmark(sizes)
        print()
        if violations:
            for violation in violations:
                print(f"VIOLATION: {violation}")
            return 1
        print(
            "ok: both groupings bit-for-bit identical; external grouping "
            f"residency flat at <= {GROUPING_RUN_SESSIONS} buffered sessions "
            "while memory grouping tracks the trace size"
        )
        return 0

    sizes = args.sizes or ([0.5, 1.0] if args.quick else [1.0, 2.0, 4.0])
    backend_name = args.backend
    workers = 1 if backend_name == "serial" else max(1, args.workers)

    print(
        f"backend: {backend_name}; workers: {workers}; sizes: {sizes}; "
        f"streaming bound: workers + 1 = {workers + 1} resident partials"
    )
    violations = run_benchmark(sizes, backend_name, workers)

    print()
    if violations:
        for violation in violations:
            print(f"VIOLATION: {violation}")
        return 1
    print(
        "ok: all modes bit-for-bit identical to the reference fold; "
        f"residency bounded by {workers + 1} while the shard count grows"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
