"""The benchmark's workloads: inputs, set-up, one pass, and references.

Each workload drives the program only through its public API.  A
workload object lives in one child process and is used in this order:

1. :meth:`Workload.prepare` writes the inputs (load generation: untimed);
2. :meth:`Workload.setup` builds the system (timed as ``setup_s``);
3. :meth:`Workload.run_pass` runs one closed-loop pass (timed) and
   returns the sessions simulated and the results;
   :meth:`Workload.finish_pass` cleans up after it (untimed);
4. :meth:`Workload.reference` recomputes the expected results through
   one of the program's documented identity contracts (untimed).

Given a :class:`~tracing.SpanLog`, :meth:`Workload.setup` also builds a
traced twin of the system, which ``run_pass(traced=True)`` uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.sim.backends import resolve_backend
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.grouping import ExternalGrouping, resolve_grouping
from repro.sim.profiling import PROFILE
from repro.sim.service import (
    JsonlSink,
    ServiceCheckpoint,
    ServiceConfig,
    SimulationService,
    result_to_payload,
    serve_jsonl,
)
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.loader import (
    append_jsonl_end,
    follow_jsonl,
    iter_store,
    load_jsonl,
    save_jsonl,
)
from repro.trace.population import DeviceProfile
from repro.trace.store import StoreWriter, file_fingerprint

from tracing import (
    EpochTimer,
    SpanLog,
    TimedSink,
    TracedBackend,
    TracedGrouping,
    add_checkpoint_spans,
    coverage,
    layer_totals,
    now,
    timed_iter,
    traced_wall,
)

#: The seed whose reference digests are recorded in ``references.json``.
DEFAULT_SEED = 20130901

#: The paper's Table I month (Sep 2013) at density 1.0.
PAPER_USERS = 3_300_000
PAPER_SESSIONS = 23_500_000.0
PAPER_ITEMS = 3_000
PAPER_DAYS = 30

#: The city device mix of the paper's month: 70% desktop at 1.5 Mb/s,
#: 20% TV at 3 Mb/s, 10% mobile at 0.8 Mb/s.
CITY_DEVICE_MIX = (
    DeviceProfile("desktop", bitrate=1.5e6, share=0.70),
    DeviceProfile("tv", bitrate=3.0e6, share=0.20),
    DeviceProfile("mobile", bitrate=0.8e6, share=0.10),
)

#: Month density of the batch workloads (~23.5K sessions, 3,300 users).
MONTH_DENSITY = 0.001

#: Month density of the service feed (~1.2K sessions, 165 users).
SERVICE_DENSITY = 0.00005

#: External-sort runs per month: the buffer holds ~1/24 of the month's
#: sessions, the merge fan-in the full 23.5M-session month has with a
#: 1M-session buffer.
MERGE_FAN_IN = 24

#: Fig. 2's upload-ratio axis.
UPLOAD_RATIOS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: Service epoch length: 6 hours, 120 closes over the month.
EPOCH_SECONDS = 6 * 3600.0


def month_config(density: float, seed: int) -> GeneratorConfig:
    """The Table I month scaled by ``density`` (1.0 = the paper)."""
    return GeneratorConfig(
        num_users=max(100, int(PAPER_USERS * density)),
        num_items=max(20, int(PAPER_ITEMS * min(1.0, density * 4))),
        days=PAPER_DAYS,
        expected_sessions=PAPER_SESSIONS * density,
        seed=seed,
    )


def digest(result) -> str:
    """A bit-for-bit digest of a ``SimulationResult``.

    Hashes the canonical JSON payload (floats by shortest round-trip
    ``repr``), list fields in chunks so no whole-result string is built.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for key, value in sorted(result_to_payload(result).items()):
        hasher.update(key.encode())
        if isinstance(value, list):
            for index in range(0, len(value), 1024):
                hasher.update(json.dumps(value[index : index + 1024]).encode())
        else:
            hasher.update(json.dumps(value).encode())
    return hasher.hexdigest()


class Workload:
    """Shared plumbing: inputs directory, seed, traced twin and counters."""

    name = "abstract"
    density = MONTH_DENSITY

    def __init__(self, work: Path, seed: int, density: Optional[float] = None) -> None:
        self.work = Path(work)
        self.config = month_config(density or self.density, seed)
        self.horizon = self.config.horizon
        self.sort_buffer = max(100, round(self.config.expected_sessions / MERGE_FAN_IN))
        self.log: Optional[SpanLog] = None
        #: Layer counters summed over traced passes.
        self.counters: Dict[str, float] = {}
        #: Duration of every traced service epoch close.
        self.closes: List[float] = []

    def generator(self) -> TraceGenerator:
        return TraceGenerator(config=self.config, device_mix=CITY_DEVICE_MIX)

    def prepare(self) -> None:
        """Write the inputs; by default there are none."""

    def setup(self, log: Optional[SpanLog] = None) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool = False) -> Tuple[int, List]:
        raise NotImplementedError

    def finish_pass(self) -> None:
        """Clean up after a pass, outside timing."""

    def reference(self) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built."""

    def _trace(self, config: SimulationConfig, backend, grouping) -> Simulator:
        """The traced twin: the same backend and grouping, wrapped."""
        self.traced_backend = TracedBackend(backend, self.log)
        self.traced_grouping = TracedGrouping(grouping, self.log)
        return Simulator(
            config, backend=self.traced_backend, grouping=self.traced_grouping
        )

    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _engine_done(self, simulator: Simulator) -> None:
        """Close a traced engine pass: result span and reducer counters."""
        self.log.add("reduce.result", self.traced_backend.exhausted_at, now())
        reduction = simulator.last_reduction
        self._add("reduce.blocks", reduction.blocks)
        self._max("reduce.peak_resident", reduction.peak_resident)

    def after_traced_pass(self) -> None:
        """Fold plan statistics and the kernel's ``PROFILE`` into the counters."""
        for stats in self.traced_grouping.stats:
            self._add("grouping.runs_spilled", stats.runs_spilled)
            self._max("grouping.peak_buffered_sessions", stats.peak_buffered_sessions)
            self._add("grouping.cache_hits", 1 if stats.cache_hit else 0)
            self._add("grouping.plans", 1)
        self.traced_grouping.stats.clear()
        self._add("profile.tasks", PROFILE.tasks)
        self._add("profile.compiled_tasks", PROFILE.compiled_tasks)
        self._add("profile.fused_tasks", PROFILE.fused_tasks)


class LondonMonth(Workload):
    """The Table I month: generator -> external grouping -> spill reduction."""

    name = "london_month"

    def setup(self, log: Optional[SpanLog] = None) -> None:
        self.log = log
        config = SimulationConfig(reduction="spill", grouping="external")
        self.simulator = Simulator(
            config, grouping=ExternalGrouping(run_sessions=self.sort_buffer)
        )
        if log is not None:
            grouping = ExternalGrouping(run_sessions=self.sort_buffer)
            self.traced = self._trace(config, self.simulator.backend, grouping)

    def run_pass(self, traced: bool = False) -> Tuple[int, List]:
        sessions = self.generator().iter_sessions()
        if not traced:
            result = self.simulator.run_stream(sessions, self.horizon)
            return result.total.sessions, [result]
        sessions = timed_iter(sessions, self.log, "generator")
        result = self.traced.run_stream(sessions, self.horizon)
        self._engine_done(self.traced)
        self._add("generator.sessions", result.total.sessions)
        return result.total.sessions, [result]

    def reference(self) -> List[str]:
        """External grouping + spill equals memory grouping + streaming."""
        simulator = Simulator(SimulationConfig(reduction="streaming"))
        result = simulator.run_stream(self.generator().iter_sessions(), self.horizon)
        return [digest(result)]


class Fig2Sweep(Workload):
    """Fig. 2's upload-ratio sweep over the month, from a cached shard."""

    name = "fig2_sweep"

    @property
    def store(self) -> Path:
        return self.work / "month.store"

    def prepare(self) -> None:
        with StoreWriter(self.store, horizon=self.horizon) as writer:
            for session in self.generator().iter_sessions():
                writer.append(session)

    def _grouping(self) -> ExternalGrouping:
        return ExternalGrouping(shard_dir=self.shard_dir, run_sessions=self.sort_buffer)

    def setup(self, log: Optional[SpanLog] = None) -> None:
        self.log = log
        self.shard_dir = self.work / f"shards-{os.getpid()}"
        self.token = file_fingerprint(self.store)
        self.configs = [SimulationConfig(upload_ratio=r) for r in UPLOAD_RATIOS]
        config = SimulationConfig(reduction="streaming", grouping="external")
        grouping = self._grouping()
        self.simulator = Simulator(config, grouping=grouping)
        grouping.plan(
            iter_store(self.store),
            self.horizon,
            self.configs[0].policy,
            cache_token=self.token,
        ).cleanup()
        if log is not None:
            self.traced = self._trace(config, self.simulator.backend, self._grouping())

    def run_pass(self, traced: bool = False) -> Tuple[int, List]:
        simulator = self.traced if traced else self.simulator
        results = simulator.run_sweep_stream(
            iter_store(self.store), self.horizon, self.configs, cache_token=self.token
        )
        if traced:
            self._engine_done(simulator)
        return sum(r.total.sessions for r in results), results

    def reference(self) -> List[str]:
        """Each sweep config equals an independent ``run_stream``.

        The reference runs use memory grouping and no shard cache, so a
        fault in external grouping or the cache cannot reach both sides.
        """
        digests = []
        for config in self.configs:
            simulator = Simulator(replace(config, reduction="streaming"))
            result = simulator.run_stream(iter_store(self.store), self.horizon)
            digests.append(digest(result))
        return digests

    def close(self) -> None:
        self.simulator.close()


class ServiceFeed(Workload):
    """A finished JSONL feed of the month, served in 6-hour epochs.

    Every pass serves the feed from scratch with ``serve_jsonl``, which
    builds the ``SimulationService`` (and its ``Simulator``) over an
    empty state directory, so that construction is timed in the pass.
    """

    name = "service_6h"
    density = SERVICE_DENSITY

    @property
    def feed(self) -> Path:
        return self.work / "feed.jsonl"

    @property
    def state_dir(self) -> Path:
        return self.work / f"state-{os.getpid()}"

    def prepare(self) -> None:
        save_jsonl(self.generator().generate(), self.feed)
        append_jsonl_end(self.feed)

    def setup(self, log: Optional[SpanLog] = None) -> None:
        self.log = log
        self.service_config = ServiceConfig(
            simulation=SimulationConfig(),
            epoch_seconds=EPOCH_SECONDS,
            horizon=self.horizon,
        )
        if log is not None:
            scoped = self.service_config.scoped_config
            self.traced = self._trace(
                scoped,
                resolve_backend(scoped.backend, scoped.workers, scoped.queue_dir),
                resolve_grouping(scoped.grouping, scoped.shard_dir),
            )

    def run_pass(self, traced: bool = False) -> Tuple[int, List]:
        if traced:
            service, result = self._serve_traced()
        else:
            service = serve_jsonl(self.feed, self.state_dir, self.service_config)
            result = service.result()
        if service.late_sessions:
            raise RuntimeError(f"{service.late_sessions} late sessions were dropped")
        return result.total.sessions, [result]

    def _serve_traced(self) -> Tuple[SimulationService, object]:
        """``serve_jsonl`` over the traced simulator, with timed subscribers."""
        log, state_dir = self.log, self.state_dir
        first, blocks = len(log), self.traced_backend.blocks
        checkpoint = state_dir / ServiceCheckpoint.FILENAME
        timer = EpochTimer(log, self.traced_backend, checkpoint)
        service = SimulationService(
            self.service_config, state_dir, subscribers=[timer], simulator=self.traced
        )
        sink = TimedSink(JsonlSink(state_dir / "results.jsonl"), log)
        service.add_subscriber(sink)
        feed = follow_jsonl(self.feed, start_record=service.cursor)
        try:
            service.run(_ingest_spans(feed, log), flush=False)
            with log.span("service.flush"):
                service.flush()
        finally:
            service.close()
        with log.span("reduce.result"):
            result = service.result()
        self.closes.extend(add_checkpoint_spans(log, first))
        self._add("service.checkpoint_bytes", timer.checkpoint_bytes)
        self._add("service.checkpoint_bytes", checkpoint.stat().st_size)
        self._add("service.closes", sink.calls)
        self._add("reduce.blocks", self.traced_backend.blocks - blocks)
        return service, result

    def finish_pass(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def reference(self) -> List[str]:
        """The service's cumulative result equals the scoped batch run."""
        simulator = Simulator(self.service_config.scoped_config)
        return [digest(simulator.run(load_jsonl(self.feed)))]


def _ingest_spans(feed, log: SpanLog):
    """Feed the service: a parse span per record, then an ingest span."""
    for session in timed_iter(feed, log, "service.parse"):
        span = log.open("service.ingest")
        try:
            yield session
        finally:
            log.close(span)


WORKLOADS = {
    cls.name: cls for cls in (LondonMonth, Fig2Sweep, ServiceFeed)
}


def layer_metrics(
    workload: Workload, passes: int, untraced_s: float
) -> Dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes, as per-pass figures.

    ``untraced_s`` is the time of as many untraced passes, the base of
    ``trace.overhead``.
    """
    log = workload.log
    closes = workload.closes
    totals = layer_totals(log)
    counters = workload.counters
    backend = workload.traced_backend

    def seconds(name: str) -> float:
        return totals.get(name, 0.0) / passes

    def per_pass(name: str) -> float:
        return counters.get(name, 0) / passes

    ingest, merge = seconds("grouping.plan"), seconds("grouping.merge")
    return {
        "generator.busy_s": seconds("generator"),
        "generator.sessions": per_pass("generator.sessions"),
        "grouping.ingest_s": ingest,
        "grouping.merge_s": merge,
        "grouping.plan_s": ingest + merge,
        "grouping.plans": per_pass("grouping.plans"),
        "grouping.runs_spilled": per_pass("grouping.runs_spilled"),
        "grouping.peak_buffered_sessions": counters.get(
            "grouping.peak_buffered_sessions", 0
        ),
        "grouping.cache_hit_ratio": _ratio(
            counters.get("grouping.cache_hits", 0), counters.get("grouping.plans", 0)
        ),
        "kernel.busy_s": seconds("kernel"),
        "kernel.tasks": backend.tasks / passes,
        "kernel.fused_ratio": _ratio(
            counters.get("profile.fused_tasks", 0), backend.tasks
        ),
        "kernel.compiled_ratio": _ratio(
            counters.get("profile.compiled_tasks", 0), counters.get("profile.tasks", 0)
        ),
        "backends.blocks": backend.blocks / passes,
        "backends.ship_bytes": backend.ship_bytes / passes,
        "reduce.fold_s": seconds("reduce.fold"),
        "reduce.result_s": seconds("reduce.result"),
        "reduce.blocks": per_pass("reduce.blocks"),
        "reduce.peak_resident": counters.get("reduce.peak_resident", 0),
        "service.closes": per_pass("service.closes"),
        "service.close_p50_s": statistics.median(closes) if closes else 0.0,
        "service.close_p90_s": (
            statistics.quantiles(closes, n=10)[8] if len(closes) > 1 else 0.0
        ),
        "service.checkpoint_s": seconds("service.checkpoint"),
        "service.checkpoint_bytes": per_pass("service.checkpoint_bytes"),
        "service.sink_s": seconds("service.sink"),
        "service.parse_s": seconds("service.parse"),
        "trace.coverage": coverage(log),
        "trace.overhead": traced_wall(log) / untraced_s - 1.0,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
