#!/usr/bin/env python
"""Month-of-London driver: the paper's Table I workload, end to end.

The paper's headline dataset (Table I) is one month of BBC iPlayer
catch-up TV for London: **3.3M users, 23.5M sessions, 30 days**.  This
driver runs that workload -- density-scalable -- through the full
out-of-core pipeline:

    TraceGenerator.iter_sessions()        (lazy generation; no Trace)
        -> grouping="external"            (external merge-sort into a
                                           sorted shard file; manifest
                                           extents, not session lists)
        -> backend workers                 (decode their own extents;
                                           zero session pickling)
        -> reduction="spill"              (per-user deltas on disk
                                           until the result is built)

and reports the Table I numbers realised by the run (users, IPs,
sessions, hours watched) together with the paper-policy savings, a
bit-for-bit result digest (``repro.sim.service.result_digest``, the
one the repository benchmark checks its passes by) and the coordinator's
peak RSS.  The trace itself is never resident: the sort buffer and the
final result are, and the population is held as columns (user id =
position).  ``rss_at_first_session_mb`` records the peak RSS when the
first session is drawn -- population and the largest item's draws
included -- apart from the run's peak, which the final result build
sets.

``--density 1.0`` is the full 23.5M-session month: run it on a machine
with several cores and a few GB of disk (the sorted shard is ~1.3 GB at
56 bytes/session).  ``--quick`` is the CI smoke preset (~15K sessions,
tiny sort buffer so spill-and-merge genuinely happens); the default
density 0.01 is laptop-sized.

Usage::

    PYTHONPATH=src python benchmarks/bench_london.py --quick
    PYTHONPATH=src python benchmarks/bench_london.py --density 0.05 --workers 4
    PYTHONPATH=src python benchmarks/bench_london.py --density 1.0 \\
        --workers 16 --shard-dir /scratch/london

Run standalone (argparse, not pytest) so CI and operators can invoke it
without the benchmark plugin stack.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from itertools import chain, islice
from pathlib import Path
from typing import Optional, Sequence

from repro.core.energy import builtin_models
from repro.experiments.config import CITY_DEVICE_MIX
from repro.sim.backends import BACKEND_NAMES
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.grouping import ExternalGrouping
from repro.sim.kernel_columns import HAVE_COMPILED
from repro.sim.profiling import PROFILE
from repro.sim.service import result_digest
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.stats import USERS_PER_IP

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_london.json"

#: The paper's Table I, Sep 2013 column -- the density-1.0 targets.
PAPER_USERS = 3_300_000
PAPER_SESSIONS = 23_500_000.0
PAPER_DAYS = 30

#: Catalogue size at density 1.0.  iPlayer's monthly catalogue is in
#: the low thousands; what matters for the physics is per-item view
#: counts, which the Zipf head reproduces at this size.
PAPER_ITEMS = 3_000


def london_config(density: float, seed: int) -> GeneratorConfig:
    """The Table I workload scaled by ``density`` (1.0 = the paper)."""
    return GeneratorConfig(
        num_users=max(100, int(PAPER_USERS * density)),
        num_items=max(20, int(PAPER_ITEMS * min(1.0, density * 4))),
        days=PAPER_DAYS,
        expected_sessions=PAPER_SESSIONS * density,
        seed=seed,
    )


def git_revision() -> str:
    """The checkout's commit, suffixed ``-dirty`` when ``src/`` differs from it."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )

    try:
        head = git("rev-parse", "HEAD")
        changed = git("diff", "--quiet", "HEAD", "--", "src")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if changed.returncode != 0 else "")


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fmt_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}K"
    return f"{value:,.0f}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--density", type=float, default=0.01,
        help="fraction of the paper's month (1.0 = 3.3M users / 23.5M "
        "sessions; default 0.01)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the simulation (default: 1 = serial)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend (default: auto from --workers); "
        "'distributed' fans shards out over a file-based work queue "
        "(workers on any host sharing --queue-dir and the shard file)",
    )
    parser.add_argument(
        "--queue-dir", default=None,
        help="with --backend distributed: the shared work-queue root "
        "(default: a private temporary queue with local workers)",
    )
    parser.add_argument(
        "--run-sessions", type=int, default=None,
        help="external-sort buffer size in sessions (default: 1M, or "
        "5K with --quick) -- the coordinator's grouping footprint",
    )
    parser.add_argument(
        "--shard-dir", default=None,
        help="keep the sorted session shard in this directory "
        "(default: a temporary shard, removed after the run)",
    )
    parser.add_argument(
        "--seed", type=int, default=20130901, help="master seed",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"result JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: tiny density and sort buffer (explicit "
        "flags still win)",
    )
    args = parser.parse_args(argv)

    density = args.density
    run_sessions = args.run_sessions
    if args.quick:
        if args.density == parser.get_default("density"):
            density = 0.0006  # ~15K sessions, ~2K users
        if run_sessions is None:
            run_sessions = 5_000  # force real spill-and-merge
    if run_sessions is None:
        run_sessions = 1_000_000
    if density <= 0:
        parser.error(f"--density must be > 0, got {density}")

    if args.queue_dir is not None and args.backend != "distributed":
        parser.error("--queue-dir requires --backend distributed")
    config = london_config(density, args.seed)
    sim_config = SimulationConfig(
        workers=args.workers if args.workers > 1 else None,
        backend=args.backend,
        queue_dir=args.queue_dir,
        reduction="spill",
        grouping="external",
    )
    generator = TraceGenerator(config=config, device_mix=CITY_DEVICE_MIX)
    simulator = Simulator(
        sim_config,
        grouping=ExternalGrouping(
            shard_dir=args.shard_dir, run_sessions=run_sessions
        ),
    )

    print(
        f"month of London at density {density:g}: "
        f"~{fmt_count(config.expected_sessions)} sessions expected from "
        f"{fmt_count(config.num_users)} users, {config.days} days, "
        f"{config.num_items} items"
    )
    print(
        f"pipeline: iter_sessions -> external grouping "
        f"(sort buffer {run_sessions:,} sessions) -> "
        f"{simulator.backend.name} backend -> spill reduction"
    )

    rss_before = peak_rss_mb()
    start = time.perf_counter()
    # Phase profiling is per-process: with parallel backends the decode
    # runs in the workers, so the coordinator's counters only capture
    # the serial/inline share of the ingest.
    PROFILE.enabled = True
    PROFILE.reset()
    try:
        sessions = generator.iter_sessions()
        head = list(islice(sessions, 1))  # the population is drawn here
        rss_at_first_session = peak_rss_mb()
        result = simulator.run_stream(chain(head, sessions), config.horizon)
    finally:
        PROFILE.enabled = False
        # The distributed backend owns spawned workers + maybe a temp queue.
        simulator.close()
    seconds = time.perf_counter() - start
    decode_seconds = PROFILE.decode_seconds
    fused_tasks = PROFILE.fused_tasks

    grouping = simulator.last_grouping
    reduction = simulator.last_reduction
    num_users = len(result.per_user)
    num_sessions = result.total.sessions

    print(f"\n== Table I (realised at density {density:g}) ==")
    rows = [
        ("Number of Users", fmt_count(num_users)),
        ("Number of IP addresses", fmt_count(round(num_users / USERS_PER_IP))),
        ("Number of Sessions", fmt_count(num_sessions)),
        ("Days covered", str(config.days)),
        ("Hours watched", fmt_count(result.total.watch_seconds / 3600.0)),
        (
            "Mean concurrent viewers",
            f"{result.total.watch_seconds / config.horizon:,.1f}",
        ),
    ]
    for label, value in rows:
        print(f"   {label:<26} {value}")

    print("\n== Paper-policy savings ==")
    print(f"   offload fraction G: {result.offload_fraction():.4f}")
    for model in builtin_models():
        print(f"   {model.name:>10}: savings {result.savings(model):.4f}")

    print("\n== Pipeline accounting ==")
    print(
        f"   grouping: {grouping.tasks:,} swarms from {grouping.sessions:,} "
        f"sessions; peak buffered {grouping.peak_buffered_sessions:,} "
        f"sessions; {grouping.runs_spilled} runs spilled"
    )
    print(
        f"   reduction: {reduction.outputs:,} outputs in "
        f"{reduction.blocks:,} blocks; peak resident "
        f"{reduction.peak_resident} blocks"
    )
    if grouping.shard_path is not None:
        print(f"   sorted shard kept at: {grouping.shard_path}")
    # The decode rate covers one kernel sub-stage (a few percent of the
    # wall); the end-to-end rate is the pipeline's throughput.
    decode_rate = num_sessions / decode_seconds if decode_seconds > 0 else 0.0
    end_to_end_rate = num_sessions / seconds
    if decode_seconds > 0:
        print(
            f"   decode stage: {decode_seconds:,.2f}s "
            f"({decode_rate:,.0f} sessions/s, {fused_tasks:,} swarms "
            f"fused-decoded)"
        )
    print(
        f"   wall clock: {seconds:,.1f}s "
        f"({end_to_end_rate:,.0f} sessions/s end to end)"
    )
    print(
        f"   coordinator peak RSS: {peak_rss_mb():,.1f} MB "
        f"(was {rss_before:,.1f} MB before the run, "
        f"{rss_at_first_session:,.1f} MB at the first session)"
    )

    record = {
        "benchmark": "bench_london",
        "revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiled": HAVE_COMPILED,
        "density": density,
        "seed": args.seed,
        "days": config.days,
        "backend": simulator.backend.name,
        "workers": args.workers,
        "run_sessions": run_sessions,
        "sessions": num_sessions,
        "users": num_users,
        "swarms": grouping.tasks,
        "wall_seconds": seconds,
        "end_to_end_sessions_per_second": end_to_end_rate,
        "decode_seconds": decode_seconds,
        "decode_sessions_per_second": decode_rate,
        "fused_tasks": fused_tasks,
        "offload_fraction": result.offload_fraction(),
        "peak_rss_mb": peak_rss_mb(),
        "rss_at_first_session_mb": rss_at_first_session,
        "runs_spilled": grouping.runs_spilled,
    }
    # After the RSS reading: the digest streams the result's rows.
    record["digest"] = result_digest(result)
    print(f"   result digest: {record['digest']}")
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"   wrote {args.out}")

    # Sanity gates: the run must actually have exercised the pipeline.
    failures = []
    if num_sessions == 0:
        failures.append("no sessions were simulated")
    if grouping.mode != "external":
        failures.append(f"grouping mode was {grouping.mode!r}, not external")
    if grouping.peak_buffered_sessions > run_sessions:
        failures.append(
            f"grouping buffered {grouping.peak_buffered_sessions} sessions, "
            f"exceeding the {run_sessions} sort buffer"
        )
    if grouping.sessions > run_sessions and grouping.runs_spilled == 0:
        failures.append(
            "trace exceeded the sort buffer but no runs were spilled"
        )
    if reduction.mode != "spill":
        failures.append(f"reduction mode was {reduction.mode!r}, not spill")
    if failures:
        print()
        for failure in failures:
            print(f"VIOLATION: {failure}")
        return 1
    print(
        "\nok: full out-of-core pipeline (lazy generation -> external "
        "grouping -> manifest-fed workers -> spill reduction) completed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
