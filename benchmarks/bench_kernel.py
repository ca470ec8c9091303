#!/usr/bin/env python
"""Kernel-vs-kernel benchmark: object sweep against the compiled sweep.

Runs the month-of-London quick workload (``bench_london --quick``
semantics: ``london_config(density)`` sessions through the paper
policy's swarm tasks) through two single-core kernels:

* ``object``   -- the reference kernel (``run_swarm_object``),
* ``columnar`` -- ``run_swarm`` under the default ``kernel="auto"``:
  the packed-column sweep in the compiled ``_ckernel`` when it is
  built.  Without the extension ``"auto"`` runs the object kernel, so
  this column then times the reference a second time.

On top of the resident-task comparison, the same workload is written
to a sorted shard (``ExternalGrouping``) and replayed end-to-end --
decode + schedule build + sweep -- through two ingest paths:

* ``pr7``         -- decode each extent to ``Session`` objects, then
  run the resident task (the previous release's external-grouping hot
  path),
* ``zero-object`` -- :func:`~repro.sim.kernel.run_ref` on the extent
  ref: the fused C decoder builds packed columns and the integer event
  schedule straight from the raw 56-byte records, with no ``Session``
  tuples ever materialised.

Every ``"auto"`` output -- resident tasks and extent refs -- is checked
bit-for-bit against the object kernel before any timing is reported --
a benchmark of a wrong kernel is meaningless.  The headline numbers are
``speedup`` (object seconds / columnar seconds, best-of-
``--repetitions``), gated against the 5x target the compiled kernel
shipped with, and ``ingest_speedup`` (pr7 seconds / zero-object
seconds), gated at 1.5x (``meets_target`` / ``meets_ingest_target`` in
the JSON).  The two sides of each pair alternate within every
repetition, so a slow phase of a noisy host slows both sides instead
of one side's whole series.  With the compiled backend present the
zero-object pass must also actually hit the fused decoder
(``fused_tasks > 0``) -- a silent fallback to object decoding fails
the run.

Results overwrite BENCH_kernel.json at the repo root (override with
``--out``), stamped with the git revision, core count, Python version
and whether the C kernel was compiled.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py           # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernel.py --profile

Run standalone (argparse, not pytest) so CI and operators can invoke it
without the benchmark plugin stack.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_london import git_revision, london_config  # noqa: E402

from repro.experiments.config import CITY_DEVICE_MIX  # noqa: E402
from repro.sim import kernel_columns  # noqa: E402
from repro.sim.engine import SimulationConfig  # noqa: E402
from repro.sim.grouping import ExternalGrouping  # noqa: E402
from repro.sim.kernel import (  # noqa: E402
    SwarmOutput,
    build_tasks,
    resolve_task,
    run_ref,
    run_swarm,
    run_swarm_object,
)
from repro.sim.profiling import PROFILE  # noqa: E402
from repro.trace.generator import TraceGenerator  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: The speedup this kernel shipped with; regressions below it should
#: fail loudly in CI rather than drift silently.
SPEEDUP_TARGET = 5.0

#: End-to-end ingest (decode + schedule + sweep) speedup the
#: zero-object path shipped with, over the decode-to-objects path.
INGEST_SPEEDUP_TARGET = 1.5


def _outputs_identical(a: SwarmOutput, b: SwarmOutput) -> bool:
    """Bit-for-bit equality of two swarm outputs, dict orders included.

    Both kernels write the same packed block (docs/BLOCK_FORMAT.md), so
    the key and the block bytes say it all.
    """
    return a.key == b.key and a.block == b.block


def _time_pair(first, second, tasks, config, repetitions: int) -> Tuple[float, float]:
    """Best-of-N seconds for one full pass of each side, GC paused.

    Each repetition times ``first`` and then ``second``, so the sides
    alternate and a slow stretch of host time hits both of them.
    """
    best = [float("inf"), float("inf")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(repetitions):
            for side, run in enumerate((first, second)):
                t0 = time.perf_counter()
                for task in tasks:
                    run(task, config)
                best[side] = min(best[side], time.perf_counter() - t0)
                gc.enable()
                gc.collect()
                gc.disable()
    finally:
        gc.enable()
    return best[0], best[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--density",
        type=float,
        default=0.0006,
        help="london workload density (default: 0.0006, the --quick smoke "
        "preset of bench_london)",
    )
    parser.add_argument(
        "--seed", type=int, default=20130901, help="trace seed (default: 20130901)"
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=3,
        help="timing repetitions, best-of (default: 3; with --quick: 2)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"result JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke preset (2 repetitions)"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase kernel profile of one zero-object pass",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repetitions = min(args.repetitions, 2)

    gen_config = london_config(args.density, args.seed)
    generator = TraceGenerator(config=gen_config, device_mix=CITY_DEVICE_MIX)
    sessions = list(generator.iter_sessions())
    horizon = gen_config.days * 86_400.0
    config = SimulationConfig()
    tasks = build_tasks(sessions, horizon, config.policy)
    print(
        f"workload: {len(sessions)} sessions, {len(tasks)} swarm tasks, "
        f"{gen_config.days} days (density {args.density}, seed {args.seed})"
    )

    compiled = kernel_columns.HAVE_COMPILED
    print(
        "compiled backend: "
        f"{'yes' if compiled else 'no (auto runs the object kernel)'}"
    )

    object_seconds, columnar_seconds = _time_pair(
        run_swarm_object, run_swarm, tasks, config, args.repetitions
    )

    # Zero-object ingest comparison: the same workload replayed from
    # the sorted shard, end to end (decode + schedule build + sweep).
    shard_tmp = tempfile.TemporaryDirectory(prefix="bench-kernel-shard-")
    plan = ExternalGrouping(shard_dir=shard_tmp.name).plan(
        sessions, horizon, config.policy
    )
    refs = plan.refs()

    def run_pr7(ref, cfg):
        """The previous external hot path: extent -> objects -> kernel."""
        return run_swarm(resolve_task(ref), cfg)

    pr7_seconds, zero_object_seconds = _time_pair(
        run_pr7, run_ref, refs, config, args.repetitions
    )

    # Correctness gate: every output must be bit-for-bit the object
    # kernel's -- resident tasks and extent refs alike.  (Timed first,
    # verified second, so the timing loops run without a thousand live
    # reference outputs dragging on the allocator.)
    mismatches = 0
    reference: List[SwarmOutput] = [run_swarm_object(task, config) for task in tasks]
    for task, expected in zip(tasks, reference):
        if not _outputs_identical(expected, run_swarm(task, config)):
            mismatches += 1
    for ref, expected in zip(refs, reference):
        if not _outputs_identical(expected, run_ref(ref, config)):
            mismatches += 1
    del reference
    identical = mismatches == 0
    print(f"bit-for-bit identity: {'OK' if identical else f'{mismatches} MISMATCHES'}")

    speedup = object_seconds / columnar_seconds if columnar_seconds > 0 else 0.0
    ingest_speedup = (
        pr7_seconds / zero_object_seconds if zero_object_seconds > 0 else 0.0
    )
    print(f"object kernel      {object_seconds * 1e3:10.1f} ms")
    print(f"columnar kernel    {columnar_seconds * 1e3:10.1f} ms  ({speedup:.2f}x)")
    print(f"ingest via objects {pr7_seconds * 1e3:10.1f} ms")
    print(
        f"ingest zero-object {zero_object_seconds * 1e3:10.1f} ms  "
        f"({ingest_speedup:.2f}x)"
    )

    # One profiled zero-object pass: surfaces the decode phase in the
    # committed record and proves the fused decoder actually ran (a
    # compiled build that quietly fell back to object decoding is a
    # regression, not a slow day).
    PROFILE.enabled = True
    PROFILE.reset()
    try:
        for ref in refs:
            run_ref(ref, config)
    finally:
        PROFILE.enabled = False
    fused_active = PROFILE.fused_tasks > 0
    if args.profile:
        print(PROFILE.report())
    profile_record = {
        "decode_seconds": PROFILE.decode_seconds,
        "schedule_seconds": PROFILE.schedule_seconds,
        "sweep_seconds": PROFILE.sweep_seconds,
        "match_seconds": PROFILE.match_seconds,
        "account_seconds": PROFILE.account_seconds,
        "reduce_seconds": PROFILE.reduce_seconds,
        "tasks": PROFILE.tasks,
        "compiled_tasks": PROFILE.compiled_tasks,
        "fused_tasks": PROFILE.fused_tasks,
    }
    plan.cleanup()
    shard_tmp.cleanup()

    meets_target = compiled and identical and speedup >= SPEEDUP_TARGET
    meets_ingest_target = (
        compiled
        and identical
        and fused_active
        and ingest_speedup >= INGEST_SPEEDUP_TARGET
    )
    record = {
        "benchmark": "bench_kernel",
        "revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiled": compiled,
        "density": args.density,
        "seed": args.seed,
        "days": gen_config.days,
        "sessions": len(sessions),
        "tasks": len(tasks),
        "repetitions": args.repetitions,
        "identical": identical,
        "object_seconds": object_seconds,
        "columnar_seconds": columnar_seconds,
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "meets_target": meets_target,
        "pr7_ingest_seconds": pr7_seconds,
        "zero_object_ingest_seconds": zero_object_seconds,
        "ingest_speedup": ingest_speedup,
        "ingest_speedup_target": INGEST_SPEEDUP_TARGET,
        "meets_ingest_target": meets_ingest_target,
        "fused_decoder_active": fused_active,
        "profile": profile_record,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not identical:
        print("FAIL: the auto kernel is not bit-for-bit identical", file=sys.stderr)
        return 1
    if compiled and not fused_active:
        print(
            "FAIL: compiled backend present but the fused decoder never ran "
            "(zero-object ingest regressed to object decoding)",
            file=sys.stderr,
        )
        return 1
    if compiled and speedup < SPEEDUP_TARGET:
        print(
            f"FAIL: speedup {speedup:.2f}x below the {SPEEDUP_TARGET:.0f}x target",
            file=sys.stderr,
        )
        return 1
    if compiled and ingest_speedup < INGEST_SPEEDUP_TARGET:
        print(
            f"FAIL: ingest speedup {ingest_speedup:.2f}x below the "
            f"{INGEST_SPEEDUP_TARGET:.1f}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
