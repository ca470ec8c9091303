"""Command-line interface: ``consume-local``.

Subcommands::

    consume-local tables              # Tables I, III, IV
    consume-local fig2 ... fig6      # one figure each
    consume-local all                # everything (writes files with --out)
    consume-local generate trace.jsonl    # emit a synthetic trace
    consume-local synth city.store --region east  # generative city workload
    consume-local simulate trace.jsonl    # simulate a saved trace (.jsonl or .store)
    consume-local simulate --federate east=east.store --federate west=west.store
    consume-local worker --queue-dir DIR  # serve a distributed work queue
    consume-local serve feed.jsonl --state-dir DIR  # always-on service mode

Common options: ``--scale`` (trace size multiplier), ``--days``,
``--seed``, ``--quick`` (preset small scale), ``--out DIR``,
``--workers N`` (shard simulation swarms over N worker processes;
bit-for-bit identical results, just faster on multi-core hardware),
``--reduction MODE`` (where per-user deltas live while shard outputs
fold, with at most workers + 1 shards resident: "streaming" default
packs them in memory, "spill" keeps them on disk; bit-for-bit
identical)
and ``--grouping MODE`` (how the session stream becomes swarm tasks:
"memory" default, "external" groups out-of-core through a sorted shard
file -- with ``--shard-dir DIR`` keeping the shard for out-of-core
consumers *and enabling the content-addressed shard cache*, so repeat
runs over the same trace + policy skip the sort entirely; bit-for-bit
identical either way).  ``simulate --upload-ratios 0.2 0.6 1.0`` runs a
whole q/beta sweep in one amortized pass (``Simulator.run_sweep``),
bit-for-bit identical to the per-ratio runs.

Generative synthesis: ``consume-local synth out.store --region NAME``
writes a seeded parametric city workload (catalogue churn, popularity
drift, diurnal demand, ISP/attachment skew -- see
:mod:`repro.trace.synth`) straight into the binary session store; equal
parameters always produce byte-identical stores.  ``simulate`` accepts
``.store`` files directly, and ``simulate --federate REGION=STORE``
(repeated per city) runs each region as its own job and reconciles them
at the reducer (:mod:`repro.sim.federate`): for disjoint regions the
merged result is bit-for-bit the single run over the union trace, and
cross-region swarms are reported as a federation ledger.

Distributed execution: ``--backend distributed --queue-dir DIR`` makes
the run a *coordinator* over a crash-safe file-based work queue, and
``consume-local worker --queue-dir DIR`` serves that queue from any
host sharing the directory (see :mod:`repro.sim.queue` /
:mod:`repro.sim.worker`).  Without external workers the coordinator
spawns ``--workers`` local ones.  Bit-for-bit identical to serial.

Service mode: ``consume-local serve feed.jsonl --state-dir DIR`` tails a
live-appended session feed, partitions it into bounded simulation
epochs, and appends one result record per closed epoch to a JSONL sink
-- checkpointing after every epoch so a killed coordinator restarted
over the same state dir resumes mid-stream with no duplicated and no
dropped epochs (see :mod:`repro.sim.service`).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.core.energy import builtin_models
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_all, run_experiment
from repro.sim.backends import BACKEND_NAMES
from repro.sim.engine import KERNEL_MODES, SimulationConfig, Simulator
from repro.sim.grouping import GROUPING_MODES
from repro.sim.profiling import PROFILE
from repro.sim.reduce import REDUCTION_MODES
from repro.trace.events import SECONDS_PER_DAY
from repro.trace.generator import TraceGenerator
from repro.trace.store import file_fingerprint
from repro.trace.loader import (
    iter_jsonl,
    load_jsonl,
    read_jsonl_horizon,
    save_jsonl,
)
from repro.trace.stats import summarise

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consume-local",
        description=(
            "Reproduction of 'Consume Local: Towards Carbon Free Content "
            "Delivery' (ICDCS 2018): analytical model, trace generator and "
            "hybrid-CDN simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("tables", "fig2", "fig3", "fig4", "fig5", "fig6", "all"):
        cmd = sub.add_parser(name, help=f"run the {name} reproduction")
        _add_settings_args(cmd)
        cmd.add_argument(
            "--out", type=Path, default=None, help="directory to write report files to"
        )

    generate = sub.add_parser("generate", help="generate a synthetic trace file")
    _add_settings_args(generate, include_workers=False)  # generation never simulates
    generate.add_argument("path", type=Path, help="output .jsonl path")

    synth = sub.add_parser(
        "synth",
        help=(
            "synthesize a parametric city workload straight into a binary "
            ".store file (seeded and deterministic: equal parameters give "
            "byte-identical stores; see repro.trace.synth)"
        ),
    )
    synth.add_argument("path", type=Path, help="output .store path")
    synth.add_argument(
        "--region", default="metro",
        help="city/region label prefixing content ids and ISP names "
        "([A-Za-z0-9_]+; default: metro)",
    )
    synth.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    synth.add_argument(
        "--days", type=_positive_int, default=7,
        help="horizon length in whole days (default: 7)",
    )
    synth.add_argument(
        "--users", type=_positive_int, default=1000,
        help="population size (default: 1000)",
    )
    synth.add_argument(
        "--catalogue", type=_positive_int, default=300, dest="catalogue_size",
        help="concurrently available catalogue slots (default: 300)",
    )
    synth.add_argument(
        "--sessions-per-user-day", type=float, default=1.2,
        help="expected weekday sessions per user per day (default: 1.2)",
    )
    synth.add_argument(
        "--zipf", type=float, default=0.9, dest="zipf_exponent",
        help="catalogue popularity skew exponent (default: 0.9)",
    )
    synth.add_argument(
        "--drift", type=float, default=0.0, dest="popularity_drift",
        help="fraction of the rank range an item drifts over the "
        "horizon, in [0, 1] (default: 0)",
    )
    synth.add_argument(
        "--churn", type=float, default=0.0, dest="catalogue_churn",
        help="fraction of catalogue slots replaced per day, in [0, 1] "
        "(default: 0)",
    )
    synth.add_argument(
        "--peak-hour", type=float, default=20.0,
        help="centre of the diurnal demand peak, 0-23 (default: 20)",
    )
    synth.add_argument(
        "--diurnal-strength", type=float, default=0.7,
        help="0 flat daily profile .. 1 all demand in the evening bump "
        "(default: 0.7)",
    )
    synth.add_argument(
        "--weekend-multiplier", type=float, default=1.15,
        help="demand multiplier on weekend days (default: 1.15)",
    )
    synth.add_argument(
        "--isps", type=_positive_int, default=4, dest="num_isps",
        help="ISPs in the region (default: 4)",
    )
    synth.add_argument(
        "--isp-skew", type=float, default=1.0,
        help="Zipf exponent over ISP market shares (default: 1.0)",
    )
    synth.add_argument(
        "--exchanges", type=_positive_int, default=48, dest="num_exchanges",
        help="exchanges per ISP (default: 48)",
    )
    synth.add_argument(
        "--pops", type=_positive_int, default=4, dest="num_pops",
        help="PoPs per ISP (default: 4)",
    )
    synth.add_argument(
        "--exchange-skew", type=float, default=0.6,
        help="Zipf exponent over exchange attachment (default: 0.6)",
    )
    synth.add_argument(
        "--activity-skew", type=float, default=0.5, dest="user_activity_skew",
        help="Zipf exponent over per-user demand weight (default: 0.5)",
    )
    synth.add_argument(
        "--mean-duration", type=float, default=1500.0,
        help="mean session length in seconds (default: 1500)",
    )
    synth.add_argument(
        "--duration-sigma", type=float, default=0.5,
        help="log-normal sigma of session length (default: 0.5)",
    )
    synth.add_argument(
        "--catalogue-prefix", default=None,
        help="content-id prefix (default: the region name; give several "
        "regions the same prefix to model a shared catalogue whose "
        "swarms span regions)",
    )
    synth.add_argument(
        "--force", action="store_true",
        help="regenerate even when the existing store's sidecar already "
        "matches this config's fingerprint",
    )

    simulate = sub.add_parser("simulate", help="simulate a saved trace file")
    simulate.add_argument(
        "path", type=Path, nargs="?", default=None,
        help="input trace (.jsonl or binary .store); omit with --federate",
    )
    simulate.add_argument(
        "--federate",
        action="append",
        default=None,
        metavar="REGION=STORE",
        help=(
            "run REGION's .store as its own job and reconcile all regions "
            "at the reducer (repeat per city; see repro.sim.federate) -- "
            "for disjoint regions the merged result is bit-for-bit the "
            "single run over the union trace"
        ),
    )
    simulate.add_argument(
        "--horizon", type=float, default=None,
        help=(
            "with --federate: explicit shared horizon in seconds "
            "(default: the maximum of the region stores' horizons)"
        ),
    )
    simulate.add_argument(
        "--upload-ratio", type=float, default=1.0, help="q/beta (default 1.0)"
    )
    simulate.add_argument(
        "--upload-ratios",
        type=float,
        nargs="+",
        default=None,
        metavar="RATIO",
        help=(
            "sweep several q/beta values in ONE pass (grouped once, "
            "decoded once; bit-for-bit identical to per-ratio runs -- "
            "see Simulator.run_sweep); overrides --upload-ratio"
        ),
    )
    simulate.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes for swarm shards (default: serial)",
    )
    simulate.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend (default: auto from --workers)",
    )
    simulate.add_argument(
        "--kernel",
        choices=KERNEL_MODES,
        default=None,
        help=(
            "swarm kernel: 'auto' (default; the compiled columnar sweep "
            "when the C extension is built, else the object kernel) or "
            "'object' (the reference) -- results are bit-for-bit "
            "identical either way"
        ),
    )
    simulate.add_argument(
        "--profile-kernel",
        action="store_true",
        help=(
            "print a per-phase kernel time breakdown (decode, schedule "
            "build, sweep, matching, drain, reduce) after the run; the "
            "sweep phases time the compiled path only"
        ),
    )
    _add_queue_dir_arg(simulate)
    _add_reduction_arg(simulate)
    simulate.add_argument(
        "--spill-dir",
        type=Path,
        default=None,
        help=(
            "with --reduction spill: keep the per-user delta log in this "
            "directory for out-of-core processing (default: a temporary "
            "log, removed after the run)"
        ),
    )
    _add_grouping_args(simulate)

    worker = sub.add_parser(
        "worker",
        help=(
            "serve a distributed work queue (claim swarm shards enqueued "
            "by --backend distributed coordinators; run on any host that "
            "shares the queue directory)"
        ),
    )
    worker.add_argument(
        "--queue-dir", type=Path, action="append", required=True,
        help="queue root directory shared with the coordinator; repeat "
        "to steal work from additional roots when the first (home) "
        "root is idle",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.1,
        help="seconds between queue scans when idle (default: 0.1)",
    )
    worker.add_argument(
        "--lease-timeout", type=float, default=30.0,
        help="fallback lease horizon for renewal pacing when a job "
        "does not publish the coordinator's own (default: 30)",
    )
    worker.add_argument(
        "--max-tasks", type=_positive_int, default=None,
        help="exit after processing this many items (default: serve forever)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None,
        help="exit after this many seconds without work (default: never)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable worker identity for lease files (default: host:pid)",
    )
    worker.add_argument(
        "--job-ttl", type=float, default=None,
        help="quarantine jobs with no pending/claimed items and no "
        "activity for this many seconds -- orphans left by crashed "
        "coordinators (default: never)",
    )
    worker.add_argument(
        "--max-rss", default=None,
        help="self-limit resident memory (e.g. 800M, 2G): release any "
        "unstarted claim and exit with status 33 instead of dying to "
        "the OOM killer (default: unlimited)",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "always-on service mode: tail a live JSONL session feed, "
            "simulate it in bounded epochs, and append one result record "
            "per closed epoch to a sink -- checkpointed, so restarting "
            "over the same --state-dir resumes mid-stream"
        ),
    )
    serve.add_argument(
        "path", type=Path,
        help="JSONL session feed to follow (may still be growing)",
    )
    serve.add_argument(
        "--state-dir", type=Path, required=True,
        help=(
            "service state directory (checkpoint + default sink); a "
            "restarted coordinator pointed at the same directory resumes "
            "from its checkpoint"
        ),
    )
    serve.add_argument(
        "--results", type=Path, default=None,
        help="per-epoch results sink (default: STATE_DIR/results.jsonl)",
    )
    serve.add_argument(
        "--epoch-seconds", type=float, default=SECONDS_PER_DAY,
        help="epoch length in simulated seconds (default: one day)",
    )
    serve.add_argument(
        "--horizon", type=float, default=None,
        help=(
            "fixed accounting horizon in seconds (required for exact "
            "batch parity; default: the feed header's horizon when "
            "present, else a rolling per-epoch horizon)"
        ),
    )
    serve.add_argument(
        "--allowed-lateness", type=float, default=0.0,
        help=(
            "seconds a session may lag the watermark before its epoch "
            "has already closed (late sessions are counted and dropped; "
            "default: 0)"
        ),
    )
    serve.add_argument(
        "--upload-ratio", type=float, default=1.0, help="q/beta (default 1.0)"
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="seconds between feed polls while no complete line is "
        "available (default: 0.2)",
    )
    serve.add_argument(
        "--idle-exit", type=float, default=None,
        help=(
            "stop following after this many seconds without new records "
            "(default: follow until a trace-end marker)"
        ),
    )
    serve.add_argument(
        "--no-flush", action="store_true",
        help=(
            "leave open epochs buffered in the checkpoint when the follow "
            "ends, instead of force-closing them -- for coordinators that "
            "will be restarted to continue the same stream"
        ),
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes for swarm shards (default: serial)",
    )
    serve.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend (default: auto from --workers)",
    )
    _add_queue_dir_arg(serve)
    _add_grouping_args(serve)
    return parser


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value!r}")
    return number


def _add_queue_dir_arg(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--queue-dir",
        type=Path,
        default=None,
        help=(
            "with --backend distributed: the shared work-queue directory "
            "(start workers anywhere it is visible via "
            "'consume-local worker --queue-dir DIR'; default: a private "
            "temporary queue served by locally spawned workers)"
        ),
    )


def _add_reduction_arg(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--reduction",
        choices=REDUCTION_MODES,
        default=None,
        help=(
            "shard-output reduction mode (default: streaming; spill keeps "
            "per-user deltas on disk, identical results)"
        ),
    )


def _add_grouping_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--grouping",
        choices=GROUPING_MODES,
        default=None,
        help=(
            "session grouping mode (default: memory; external groups "
            "out-of-core through a sorted shard file, identical results)"
        ),
    )
    cmd.add_argument(
        "--shard-dir",
        type=Path,
        default=None,
        help=(
            "with --grouping external: keep the sorted session shard in "
            "this directory for out-of-core processing (default: a "
            "temporary shard, removed after the run)"
        ),
    )


def _add_settings_args(
    cmd: argparse.ArgumentParser, *, include_workers: bool = True
) -> None:
    cmd.add_argument("--scale", type=float, default=1.0, help="trace size multiplier")
    cmd.add_argument("--days", type=int, default=30, help="trace length in days")
    cmd.add_argument("--seed", type=int, default=20130901, help="master seed")
    cmd.add_argument(
        "--quick", action="store_true", help="preset small scale for a fast run"
    )
    if include_workers:
        cmd.add_argument(
            "--workers",
            type=_positive_int,
            default=None,
            help=(
                "worker processes for simulation swarm shards (results are "
                "bit-for-bit identical at any worker count; default: serial)"
            ),
        )
        cmd.add_argument(
            "--backend",
            choices=BACKEND_NAMES,
            default=None,
            help="execution backend (default: auto from --workers)",
        )
        _add_queue_dir_arg(cmd)
        _add_reduction_arg(cmd)
        _add_grouping_args(cmd)


def _settings_from(args: argparse.Namespace) -> ExperimentSettings:
    workers = getattr(args, "workers", None)
    backend = getattr(args, "backend", None)
    queue_dir = getattr(args, "queue_dir", None)
    reduction = getattr(args, "reduction", None)
    grouping = getattr(args, "grouping", None)
    shard_dir = getattr(args, "shard_dir", None)
    if getattr(args, "quick", False):
        settings = ExperimentSettings.quick()
        overrides = {}
        if workers is not None:
            overrides["workers"] = workers
        if backend is not None:
            overrides["backend"] = backend
        if queue_dir is not None:
            overrides["queue_dir"] = str(queue_dir)
        if reduction is not None:
            overrides["reduction"] = reduction
        if grouping is not None:
            overrides["grouping"] = grouping
        if shard_dir is not None:
            overrides["shard_dir"] = str(shard_dir)
        return replace(settings, **overrides) if overrides else settings
    return ExperimentSettings(
        scale=args.scale,
        days=args.days,
        seed=args.seed,
        workers=workers,
        backend=backend,
        queue_dir=str(queue_dir) if queue_dir is not None else None,
        reduction=reduction,
        grouping=grouping,
        shard_dir=str(shard_dir) if shard_dir is not None else None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "worker":
        from repro.sim import faults
        from repro.sim.worker import parse_size, run_worker

        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        faults.install_from_env()
        result = run_worker(
            args.queue_dir,
            poll_interval=args.poll_interval,
            lease_timeout=args.lease_timeout,
            max_tasks=args.max_tasks,
            idle_exit=args.idle_exit,
            worker_id=args.worker_id,
            job_ttl=args.job_ttl,
            max_rss=(
                parse_size(args.max_rss) if args.max_rss is not None else None
            ),
        )
        print(
            f"worker processed {int(result)} work item(s), "
            f"exiting: {result.reason}"
        )
        return result.code

    if args.command == "synth":
        from repro.trace.synth import SynthConfig, synthesize

        config = SynthConfig(
            region=args.region,
            seed=args.seed,
            days=args.days,
            users=args.users,
            catalogue_size=args.catalogue_size,
            sessions_per_user_day=args.sessions_per_user_day,
            zipf_exponent=args.zipf_exponent,
            popularity_drift=args.popularity_drift,
            catalogue_churn=args.catalogue_churn,
            peak_hour=args.peak_hour,
            diurnal_strength=args.diurnal_strength,
            weekend_multiplier=args.weekend_multiplier,
            num_isps=args.num_isps,
            isp_skew=args.isp_skew,
            num_exchanges=args.num_exchanges,
            num_pops=args.num_pops,
            exchange_skew=args.exchange_skew,
            user_activity_skew=args.user_activity_skew,
            mean_duration=args.mean_duration,
            duration_sigma=args.duration_sigma,
            catalogue_prefix=args.catalogue_prefix,
        )
        try:
            result = synthesize(config, args.path, force=args.force)
        except ValueError as exc:
            parser.error(str(exc))
        verb = "reused" if result.reused else "wrote"
        print(
            f"{verb} {result.sessions} sessions / {result.users_active} "
            f"users / {result.distinct_items} items to {result.path}"
        )
        print(
            f"region {config.region}  horizon {result.horizon / SECONDS_PER_DAY:g} "
            f"days  fingerprint {result.fingerprint}"
        )
        return 0

    if getattr(args, "spill_dir", None) is not None and args.reduction != "spill":
        parser.error("--spill-dir requires --reduction spill")
    if getattr(args, "shard_dir", None) is not None and args.grouping != "external":
        parser.error("--shard-dir requires --grouping external")
    if (
        getattr(args, "queue_dir", None) is not None
        and getattr(args, "backend", None) != "distributed"
    ):
        parser.error("--queue-dir requires --backend distributed")
    if args.command == "serve":
        return _run_serve(args)

    settings = _settings_from(args) if hasattr(args, "scale") else None

    if args.command == "all":
        reports = run_all(settings, out_dir=args.out)
        for report in reports:
            print(report.render())
            print()
        return 0

    if args.command == "tables":
        reports = [run_experiment(n, settings) for n in ("table1", "table3", "table4")]
        for report in reports:
            print(report.render())
            print()
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            for report in reports:
                (args.out / f"{report.name}.txt").write_text(report.render() + "\n")
        return 0

    if args.command.startswith("fig"):
        report = run_experiment(args.command, settings)
        print(report.render())
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{report.name}.txt").write_text(report.render() + "\n")
        return 0

    if args.command == "generate":
        trace = TraceGenerator(config=settings.city_config()).generate()
        save_jsonl(trace, args.path)
        stats = summarise(trace)
        print(
            f"wrote {stats.num_sessions} sessions / "
            f"{stats.num_users} users to {args.path}"
        )
        return 0

    if args.command == "simulate":
        if args.federate and args.path is not None:
            parser.error("give either a trace path or --federate, not both")
        if not args.federate and args.path is None:
            parser.error("a trace path (or --federate REGION=STORE) is required")
        if args.horizon is not None and not args.federate:
            parser.error("--horizon requires --federate")
        if args.federate and args.upload_ratios:
            parser.error("--upload-ratios is not supported with --federate")
        config = SimulationConfig(
            upload_ratio=args.upload_ratio,
            workers=args.workers,
            backend=args.backend,
            queue_dir=str(args.queue_dir) if args.queue_dir is not None else None,
            **({"reduction": args.reduction} if args.reduction else {}),
            spill_dir=str(args.spill_dir) if args.spill_dir is not None else None,
            grouping=args.grouping or "memory",
            shard_dir=str(args.shard_dir) if args.shard_dir is not None else None,
            kernel=args.kernel or "auto",
        )
        if args.profile_kernel:
            PROFILE.reset()
            PROFILE.enabled = True
        try:
            if args.federate:
                return _run_federate(args, config, parser)
            simulator = Simulator(config)
            try:
                horizon = _trace_horizon(args.path)
                return _run_simulate(args, config, simulator, horizon)
            finally:
                # Release backend resources deterministically (the
                # distributed backend owns spawned worker processes and
                # possibly a temporary queue directory).
                simulator.close()
        finally:
            if args.profile_kernel:
                PROFILE.enabled = False
                print(PROFILE.report())

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _run_serve(args) -> int:
    """The body of the ``serve`` subcommand (always-on service mode)."""
    from repro.sim.service import ServiceConfig, serve_jsonl

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    simulation = SimulationConfig(
        upload_ratio=args.upload_ratio,
        workers=args.workers,
        backend=args.backend,
        queue_dir=str(args.queue_dir) if args.queue_dir is not None else None,
        grouping=args.grouping or "memory",
        shard_dir=str(args.shard_dir) if args.shard_dir is not None else None,
    )
    horizon = args.horizon
    if horizon is None:
        # A headerless feed falls back to rolling per-epoch horizons.
        horizon = read_jsonl_horizon(args.path) or None
    config = ServiceConfig(
        simulation=simulation,
        epoch_seconds=args.epoch_seconds,
        horizon=horizon,
        allowed_lateness=args.allowed_lateness,
    )
    sink_path = (
        args.results if args.results is not None else args.state_dir / "results.jsonl"
    )
    service = serve_jsonl(
        args.path,
        args.state_dir,
        config,
        sink_path=sink_path,
        poll_interval=args.poll_interval,
        idle_timeout=args.idle_exit,
        flush=not args.no_flush,
    )
    print(
        f"epochs emitted: {service.emitted}  "
        f"late sessions dropped: {service.late_sessions}"
    )
    result = service.result()
    if result.total.sessions:
        print(
            f"cumulative: {result.total.sessions} sessions, "
            f"offload G {result.offload_fraction():.4f}"
        )
    print(f"per-epoch results: {sink_path}")
    return 0


def _trace_horizon(path: Path) -> float:
    """The recorded horizon of a ``.jsonl`` or binary ``.store`` trace."""
    if path.suffix == ".store":
        from repro.trace.store import StoreReader

        with StoreReader(path) as reader:
            return reader.horizon
    return read_jsonl_horizon(path)


def _store_cache_token(path: Path) -> str:
    """Shard-cache token for a ``.store`` trace.

    A synthesized store's ``<path>.synth.json`` sidecar supplies the
    config fingerprint (``synth:<fp>``), making repeat simulations of a
    re-synthesized byte-identical store cache hits without hashing the
    file; any other store falls back to hashing its content.
    """
    import json as _json

    sidecar = path.with_name(path.name + ".synth.json")
    if sidecar.exists():
        try:
            fingerprint = _json.loads(sidecar.read_text())["fingerprint"]
        except (ValueError, KeyError, OSError):
            fingerprint = None
        if isinstance(fingerprint, str) and fingerprint:
            return f"synth:{fingerprint}"
    return file_fingerprint(path)


def _run_federate(args, config, parser) -> int:
    """The body of ``simulate --federate REGION=STORE ...``."""
    from repro.sim.federate import RegionJob, run_federation

    jobs = []
    for spec in args.federate:
        region, sep, store = spec.partition("=")
        if not sep or not region or not store:
            parser.error(f"--federate expects REGION=STORE, got {spec!r}")
        cache_token = (
            _store_cache_token(Path(store))
            if config.grouping == "external" and config.shard_dir is not None
            else None
        )
        try:
            jobs.append(
                RegionJob(name=region, store=store, cache_token=cache_token)
            )
        except ValueError as exc:
            parser.error(str(exc))
    try:
        fed = run_federation(jobs, config, horizon=args.horizon)
    except ValueError as exc:
        parser.error(str(exc))
    merged = fed.merged
    print(
        f"regions: {len(fed.per_region)}  sessions: {merged.total.sessions}  "
        f"offload G: {merged.offload_fraction():.4f}"
    )
    for model in builtin_models():
        print(
            f"{model.name:>10}: savings {merged.savings(model):.4f}, "
            f"carbon-positive users {merged.carbon_positive_share(model):.1%}"
        )
    for name in sorted(fed.per_region):
        regional = fed.per_region[name]
        print(
            f"  region {name}: {regional.total.sessions} sessions, "
            f"{fed.region_tasks[name]} swarms, "
            f"offload G {regional.offload_fraction():.4f}"
        )
    ledger = fed.ledger.summary()
    print(
        f"federation: {ledger['cross_region_swarms']} cross-region "
        f"swarm(s), {ledger['inter_region_bits']:.0f} inter-region "
        f"demanded bits"
    )
    for flow in ledger["flows"]:
        print(
            f"  flow {flow['source']} -> {flow['home']}: "
            f"{flow['demanded_bits']:.0f} demanded bits over "
            f"{flow['sessions']} session(s)"
        )
    return 0


def _run_simulate(args, config, simulator, horizon) -> int:
    """The body of the ``simulate`` subcommand (backend closed by caller)."""
    if args.path.suffix == ".store":
        return _run_simulate_store(args, config, simulator, horizon)
    ratios = getattr(args, "upload_ratios", None)
    if ratios:
        # Whole sweep in one pass: grouped once, decoded once, the
        # membership timeline swept once for every ratio.
        sweep = [replace(config, upload_ratio=ratio) for ratio in ratios]
        if config.grouping == "external" and horizon > 0:
            # Streamed out-of-core sweep; with --shard-dir the shard
            # cache is keyed on the trace file's content, so a
            # second invocation (a second process) skips the sort.
            results = simulator.run_sweep_stream(
                iter_jsonl(args.path),
                horizon,
                sweep,
                cache_token=(
                    file_fingerprint(args.path)
                    if simulator.grouping.supports_cache
                    else None
                ),
            )
        else:
            results = simulator.run_sweep(load_jsonl(args.path), sweep)
        print(f"sessions: {results[0].total.sessions}  ({len(ratios)}-ratio sweep)")
        for ratio, result in zip(ratios, results):
            savings = ", ".join(
                f"{model.name} {result.savings(model):.4f}"
                for model in builtin_models()
            )
            print(
                f"  q/beta {ratio:g}: offload G {result.offload_fraction():.4f}, "
                f"savings {savings}"
            )
        sweep_stats = simulator.last_sweep
        if sweep_stats is not None:
            line = (
                f"sweep: {sweep_stats.tasks} swarms x {sweep_stats.configs} "
                f"configs, {sweep_stats.schedule_builds} schedules built"
            )
            if sweep_stats.cache_hit is not None:
                line += f", shard cache {'hit' if sweep_stats.cache_hit else 'miss'}"
            print(line)
    else:
        if config.grouping == "external" and horizon > 0:
            # The out-of-core path: the trace file streams straight
            # into external grouping (no full Trace materialized);
            # with --shard-dir the shard cache is keyed on the trace
            # file's content, so repeat runs skip the sort.
            result = simulator.run_stream(
                iter_jsonl(args.path),
                horizon,
                cache_token=(
                    file_fingerprint(args.path)
                    if simulator.grouping.supports_cache
                    else None
                ),
            )
            num_sessions = result.total.sessions
        else:
            # Memory grouping -- or a headerless file whose horizon
            # must be re-derived from session ends before simulating.
            trace = load_jsonl(args.path)
            result = simulator.run(trace)
            num_sessions = len(trace)
        print(f"sessions: {num_sessions}  offload G: {result.offload_fraction():.4f}")
        for model in builtin_models():
            print(
                f"{model.name:>10}: savings {result.savings(model):.4f}, "
                f"carbon-positive users {result.carbon_positive_share(model):.1%}"
            )
    _print_pipeline_stats(simulator)
    return 0


def _run_simulate_store(args, config, simulator, horizon) -> int:
    """``simulate`` over a binary ``.store`` trace (always streamed)."""
    from repro.trace.store import StoreReader

    if horizon <= 0:
        raise SystemExit(
            f"{args.path}: store records no horizon; re-synthesize it or "
            "simulate the original feed"
        )
    cache_token = (
        _store_cache_token(args.path) if simulator.grouping.supports_cache else None
    )
    ratios = getattr(args, "upload_ratios", None)
    with StoreReader(args.path) as reader:
        if ratios:
            sweep = [replace(config, upload_ratio=ratio) for ratio in ratios]
            results = simulator.run_sweep_stream(
                reader.iter_sessions(), horizon, sweep, cache_token=cache_token
            )
            print(
                f"sessions: {results[0].total.sessions}  "
                f"({len(ratios)}-ratio sweep)"
            )
            for ratio, result in zip(ratios, results):
                savings = ", ".join(
                    f"{model.name} {result.savings(model):.4f}"
                    for model in builtin_models()
                )
                print(
                    f"  q/beta {ratio:g}: offload G "
                    f"{result.offload_fraction():.4f}, savings {savings}"
                )
        else:
            result = simulator.run_stream(
                reader.iter_sessions(), horizon, cache_token=cache_token
            )
            print(
                f"sessions: {result.total.sessions}  "
                f"offload G: {result.offload_fraction():.4f}"
            )
            for model in builtin_models():
                print(
                    f"{model.name:>10}: savings {result.savings(model):.4f}, "
                    "carbon-positive users "
                    f"{result.carbon_positive_share(model):.1%}"
                )
    _print_pipeline_stats(simulator)
    return 0


def _print_pipeline_stats(simulator) -> None:
    """Report spill/shard artefacts the run left for out-of-core use."""
    stats = simulator.last_reduction
    if stats is not None and stats.spill_path is not None:
        print(f"per-user delta log: {stats.spill_path}")
    grouping_stats = simulator.last_grouping
    if grouping_stats is not None and grouping_stats.shard_path is not None:
        line = f"sorted session shard: {grouping_stats.shard_path}"
        if grouping_stats.cache_hit is not None:
            line += (
                " (cache hit: reused, no re-sort)"
                if grouping_stats.cache_hit
                else " (cache miss: built)"
            )
        print(line)


if __name__ == "__main__":
    sys.exit(main())
