"""The discrete time-step simulator (paper Section IV.A).

The paper: "we implemented a discrete time step simulator where
timestamps of events (i.e., start times and durations), and bitrates of
user sessions, are taken from the trace.  The simulator proceeds with a
fixed time step of dtau = 10 seconds where for each dtau the simulator
assesses how many peers are online, how much upload bandwidth they can
share and how much download bandwidth they require ... We match peers
that are closest to each other."

Implementation notes:

* Sessions are quantized to whole windows; a session covers windows
  ``[floor(start / dtau), ceil(end / dtau))`` and demands
  ``bitrate * dtau`` bits in each.
* Between consecutive session starts/ends the online set of a swarm is
  constant, so the per-window allocation is identical across the whole
  stretch; the engine computes it once and scales -- the results are
  *bit-for-bit identical* to stepping every window, at a cost of
  O(sessions) rather than O(watched-time / dtau) per swarm.
* Stretches are split at day boundaries so per-day ledgers stay exact
  (``dtau`` must divide a day; 2/10/30/60 s all do).

Sharding / merge architecture (the parallel runtime):

* The engine itself holds no simulation state.  It partitions the
  session stream into canonically ordered, immutable
  :class:`~repro.sim.kernel.SwarmTask` shards
  (:func:`~repro.sim.kernel.build_tasks`), hands them to an execution
  backend (:mod:`repro.sim.backends` -- serial loop, process pool or
  distributed work queue, selected via ``SimulationConfig(workers=...,
  backend=...)``), and deterministically folds the returned
  :class:`~repro.sim.kernel.SwarmOutput` partials as they complete
  (:class:`~repro.sim.reduce.StreamingReducer`).
* Each kernel run is a pure function of (task, config) and returns its
  own per-(ISP, day) and per-user deltas instead of mutating shared
  dicts; the reducer restores task order before it folds, so every
  backend -- and every worker count -- produces bit-for-bit identical
  :class:`~repro.sim.results.SimulationResult` values.
* :meth:`Simulator.run_stream` feeds the same pipeline from a lazy
  session iterator (e.g. ``TraceGenerator.iter_sessions()``) without
  ever materializing a full :class:`~repro.trace.events.Trace`.
* ``SimulationConfig(grouping=...)`` picks how the stream becomes
  tasks: "memory" (dict-of-lists in the coordinator, O(sessions)
  resident) or "external" (out-of-core merge-sort into a shard file
  whose extents workers decode themselves; coordinator grouping
  memory bounded by the sort buffer -- :mod:`repro.sim.grouping`).
* ``SimulationConfig(reduction=...)`` picks where per-user deltas
  live while shard outputs fold (at most ``workers + 1`` blocks
  resident either way): "streaming" packs them into float columns,
  "spill" keeps them on disk until the result is built
  (:mod:`repro.sim.reduce`).  All grouping and reduction modes are
  bit-for-bit identical.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.sim.backends import BACKEND_NAMES, ExecutionBackend, resolve_backend
from repro.sim.grouping import (
    GROUPING_MODES,
    GroupingStats,
    GroupingStrategy,
    TaskPlan,
    resolve_grouping,
)
from repro.sim.policies import PAPER_POLICY, SwarmPolicy
from repro.sim.reduce import (
    REDUCTION_MODES,
    FootprintAccumulator,
    ReductionStats,
    StreamingReducer,
    SweepReducer,
)
from repro.sim.results import SimulationResult
from repro.trace.events import SECONDS_PER_DAY, Session, Trace
from repro.trace.store import trace_fingerprint

__all__ = [
    "KERNEL_MODES",
    "SimulationConfig",
    "Simulator",
    "SweepStats",
    "simulate",
]

#: Selectable per-swarm kernels: the single source of truth consumed by
#: ``SimulationConfig`` validation and the CLI's ``--kernel`` choices.
#: Both modes are bit-for-bit identical (see ``SimulationConfig.kernel``).
KERNEL_MODES: tuple = ("auto", "object")

#: ``SimulationConfig`` fields that choose how a run executes, never
#: what it computes: every value of each gives bit-for-bit identical
#: results (see :meth:`SimulationConfig.results_config`).
_EXECUTION_FIELDS = frozenset(
    {
        "workers",
        "backend",
        "queue_dir",
        "reduction",
        "spill_dir",
        "grouping",
        "shard_dir",
        "kernel",
    }
)


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of a simulation run.

    Attributes:
        delta_tau: window length in seconds (paper: 10 s); must divide a
            day so per-day accounting is exact.
        upload_ratio: per-peer upload bandwidth as a fraction of the
            session bitrate (the paper's ``q / beta`` axis).
        upload_bandwidth: absolute per-peer upload bandwidth in bits/s;
            overrides ``upload_ratio`` when set (models a fixed access
            technology instead of a ratio).
        policy: swarm scoping policy (paper default: ISP-friendly,
            bitrate-split).
        allow_cross_isp_matching: enable the extra cross-ISP matching
            phase (transit-priced); only the ablation turns this on.
        locality_aware_matching: match closest-first (paper default);
            False switches to random matching for the locality ablation.
        participation_rate: fraction of users who contribute upload
            capacity.  The paper's conclusion cites Akamai NetSession,
            where "as little as 30 % of its users participate";
            non-participants still stream but never upload.  Which users
            participate is a deterministic hash of the user id, so the
            same users opt in across runs and swarms.
        seed_linger_seconds: how long a finished viewer keeps serving
            the content as an upload-only "lingering seed" (the paper's
            future-work caching direction).  0 reproduces the paper:
            peers share only what they are currently watching.
        workers: how many workers execute swarm shards.  ``None`` or 1
            runs serially; > 1 selects the process pool unless
            ``backend`` says otherwise.  Results are bit-for-bit
            identical at any worker count.
        backend: execution backend name ("serial", "process" or
            "distributed"); ``None`` auto-selects from ``workers``.
            See :mod:`repro.sim.backends`.  "distributed" fans swarm
            shards out over a file-based work queue to worker processes
            that may live on other hosts (``python -m
            repro.sim.worker``); ``workers`` then sizes the locally
            spawned worker fleet.  Results stay bit-for-bit identical
            to serial.
        queue_dir: the shared work-queue directory for
            ``backend="distributed"`` (any storage every worker host
            can see).  ``None`` uses a run-scoped private temporary
            queue served by locally spawned workers.  Only valid with
            the distributed backend.
        reduction: how shard outputs reduce into the final result (see
            :data:`repro.sim.reduce.REDUCTION_MODES`).  Both modes fold
            outputs as shards complete, holding at most ``workers + 1``
            shard blocks resident.  "streaming" (the default) packs
            per-user traffic into float columns; "spill" appends
            per-user deltas to a disk log until the final result is
            materialized.  Both modes are bit-for-bit identical -- the
            choice is a pure memory/IO trade.
        spill_dir: where "spill" mode writes its per-user delta log.
            ``None`` (the default) uses a run-scoped temporary
            directory that is removed once the result is built; an
            explicit directory keeps the log for out-of-core
            consumers (readable via
            :func:`repro.sim.reduce.iter_user_deltas`).  Only valid
            with ``reduction="spill"``.
        grouping: how the session stream is partitioned into swarm
            tasks (see :data:`repro.sim.grouping.GROUPING_MODES`).
            "memory" (the default) groups in the coordinator --
            O(sessions) resident during grouping; "external" groups by
            out-of-core merge-sort into a shard file whose extents
            workers decode themselves, bounding coordinator grouping
            memory by the sort buffer regardless of trace size.  Both
            modes are bit-for-bit identical on every backend and
            reduction mode.
        shard_dir: where "external" grouping keeps its sorted shard
            file.  ``None`` (the default) uses a run-scoped temporary
            directory that is removed once the run finishes; an
            explicit directory keeps the shard for out-of-core
            consumers.  Only valid with ``grouping="external"``.
        kernel: which per-swarm kernel sweeps the windows (see
            :data:`KERNEL_MODES`).  "object" pins the per-session-object
            kernel -- the semantics reference the fast path must
            reproduce bit for bit.  "auto" (the default) packs each
            swarm into flat per-session columns and sweeps them with
            the compiled ``repro.sim._ckernel`` extension
            (:mod:`repro.sim.kernel_columns`) when it is built, in
            single runs and sweeps alike, and runs the object kernel
            otherwise.  Both are bit-for-bit identical; the choice is
            wall-clock only.  Random (locality-blind) matching always
            runs on the object kernel regardless of this setting.
    """

    delta_tau: float = 10.0
    upload_ratio: float = 1.0
    upload_bandwidth: Optional[float] = None
    policy: SwarmPolicy = PAPER_POLICY
    allow_cross_isp_matching: bool = False
    locality_aware_matching: bool = True
    participation_rate: float = 1.0
    seed_linger_seconds: float = 0.0
    workers: Optional[int] = None
    backend: Optional[str] = None
    queue_dir: Optional[str] = None
    reduction: str = "streaming"
    spill_dir: Optional[str] = None
    grouping: str = "memory"
    shard_dir: Optional[str] = None
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.delta_tau <= 0:
            raise ValueError(f"delta_tau must be > 0, got {self.delta_tau!r}")
        if SECONDS_PER_DAY % self.delta_tau != 0:
            raise ValueError(
                f"delta_tau must divide a day (86400 s), got {self.delta_tau!r}"
            )
        if self.upload_ratio < 0:
            raise ValueError(f"upload_ratio must be >= 0, got {self.upload_ratio!r}")
        if self.upload_bandwidth is not None and self.upload_bandwidth < 0:
            raise ValueError(
                f"upload_bandwidth must be >= 0, got {self.upload_bandwidth!r}"
            )
        if not 0.0 <= self.participation_rate <= 1.0:
            raise ValueError(
                f"participation_rate must be in [0, 1], got {self.participation_rate!r}"
            )
        if self.seed_linger_seconds < 0:
            raise ValueError(
                f"seed_linger_seconds must be >= 0, got {self.seed_linger_seconds!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, got {self.backend!r}"
            )
        if self.queue_dir is not None and self.backend != "distributed":
            raise ValueError(
                "queue_dir is only valid with backend='distributed', "
                f"got backend={self.backend!r}"
            )
        if self.reduction not in REDUCTION_MODES:
            raise ValueError(
                f"reduction must be one of {REDUCTION_MODES}, got {self.reduction!r}"
            )
        if self.spill_dir is not None and self.reduction != "spill":
            raise ValueError(
                "spill_dir is only valid with reduction='spill', "
                f"got reduction={self.reduction!r}"
            )
        if self.grouping not in GROUPING_MODES:
            raise ValueError(
                f"grouping must be one of {GROUPING_MODES}, got {self.grouping!r}"
            )
        if self.shard_dir is not None and self.grouping != "external":
            raise ValueError(
                "shard_dir is only valid with grouping='external', "
                f"got grouping={self.grouping!r}"
            )
        if self.kernel not in KERNEL_MODES:
            raise ValueError(
                f"kernel must be one of {KERNEL_MODES}, got {self.kernel!r}"
            )

    def results_config(self) -> "SimulationConfig":
        """This config with every execution-only field at its default.

        Worker count, backend, queue, reduction, spill and shard
        directories, grouping and kernel change wall clock and memory,
        never a result bit; two configs compute identical results
        exactly when their ``results_config()`` are equal.
        """
        return replace(
            self,
            **{f.name: f.default for f in fields(self) if f.name in _EXECUTION_FIELDS},
        )

    def upload_rate_for(self, bitrate: float) -> float:
        """A peer's upload bandwidth in bits/s given their bitrate."""
        if self.upload_bandwidth is not None:
            return self.upload_bandwidth
        return self.upload_ratio * bitrate

    def participates(self, user_id: int) -> bool:
        """Whether a user contributes upload capacity.

        A deterministic hash of the user id, so participation is a
        stable user property (across swarms, runs and processes) rather
        than per-window noise.
        """
        if self.participation_rate >= 1.0:
            return True
        if self.participation_rate <= 0.0:
            return False
        bucket = zlib.crc32(str(user_id).encode("ascii")) % 10_000
        return bucket < self.participation_rate * 10_000


@dataclass(frozen=True)
class SweepStats:
    """What one ``run_sweep`` actually shared, for benchmarks and tests.

    Attributes:
        configs: sweep configs evaluated.
        tasks: swarm tasks swept (each grouped once for the whole
            sweep, not once per config).
        schedule_builds: packed schedules built across all tasks for
            the configs on the compiled path -- one per task per
            distinct ``(delta_tau, seed_linger, participation)``
            signature, versus ``tasks x configs`` for independent runs
            (see :func:`repro.sim.kernel.run_ref_multi`); 0 when no
            config runs compiled, and none for a task the C builders
            decline.
        cache_hit: the grouping layer's shard-cache outcome (see
            :attr:`repro.sim.grouping.GroupingStats.cache_hit`).
    """

    configs: int
    tasks: int
    schedule_builds: int
    cache_hit: Optional[bool] = None


class Simulator:
    """Runs the windowed hybrid-CDN simulation over a trace.

    Args:
        config: run parameters (including ``workers`` / ``backend``).
        backend: explicit :class:`~repro.sim.backends.ExecutionBackend`
            instance; overrides whatever the config would select (used
            by tests and benchmarks to inject a backend directly).
        grouping: explicit :class:`~repro.sim.grouping.GroupingStrategy`
            instance; overrides whatever the config would select (used
            by tests and benchmarks to inject e.g. an
            ``ExternalGrouping`` with a tiny sort buffer).
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        backend: Optional[ExecutionBackend] = None,
        grouping: Optional[GroupingStrategy] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self._backend = backend
        # An injected backend belongs to the caller; one resolved from
        # the config is owned (and released) by this simulator.
        self._owns_backend = backend is None
        self._grouping = grouping
        #: :class:`~repro.sim.reduce.ReductionStats` of the most recent
        #: run -- how many blocks folded, the peak resident partial
        #: count, and where deltas spilled.  Benchmarks and tests
        #: assert the streaming memory bound through this.
        self.last_reduction: Optional[ReductionStats] = None
        #: :class:`~repro.sim.grouping.GroupingStats` of the most recent
        #: run -- how grouping happened (mode, peak buffered sessions,
        #: spilled runs, shard location, cache outcome).  Benchmarks and
        #: tests assert the out-of-core grouping bound through this.
        self.last_grouping: Optional[GroupingStats] = None
        #: :class:`SweepStats` of the most recent :meth:`run_sweep` --
        #: how much work the sweep actually shared (schedule builds,
        #: shard-cache outcome).  ``None`` after single-config runs.
        self.last_sweep: Optional[SweepStats] = None

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend this simulator dispatches to.

        Resolved from the config once and cached (the config is frozen,
        so the resolution cannot change).
        """
        if self._backend is None:
            self._backend = resolve_backend(
                self.config.backend, self.config.workers, self.config.queue_dir
            )
        return self._backend

    @property
    def grouping(self) -> GroupingStrategy:
        """The grouping strategy this simulator partitions streams with.

        Resolved from the config once and cached (the config is frozen,
        so the resolution cannot change).
        """
        if self._grouping is None:
            self._grouping = resolve_grouping(
                self.config.grouping, self.config.shard_dir
            )
        return self._grouping

    def close(self) -> None:
        """Release backend-owned resources (pools, worker fleets, queues).

        Only closes a backend this simulator resolved from its own
        config -- an injected backend belongs to the caller.  Safe to
        call repeatedly; a closed backend re-creates its resources
        lazily if the simulator is used again.
        """
        if (
            self._owns_backend
            and self._backend is not None
            and hasattr(self._backend, "close")
        ):
            self._backend.close()

    def _cache_token(self, trace: Trace) -> Optional[str]:
        """A shard-cache token for ``trace``, when caching can pay off.

        The fingerprint is one streamed hashing pass -- far cheaper than
        the sort it can skip -- but still only worth computing when the
        grouping strategy actually persists shards
        (:attr:`~repro.sim.grouping.GroupingStrategy.supports_cache`).
        """
        if getattr(self.grouping, "supports_cache", False):
            return trace_fingerprint(trace)
        return None

    def run(self, trace: Trace) -> SimulationResult:
        """Simulate the whole trace.

        With a cache-capable grouping (``grouping="external"`` and a
        persistent ``shard_dir``), the trace is fingerprinted and the
        sorted shard is reused across runs and processes
        (:attr:`last_grouping` ``.cache_hit`` reports the outcome).

        Returns:
            A :class:`~repro.sim.results.SimulationResult` with ledgers
            at system / swarm / (ISP, day) / user level.
        """
        return self.run_stream(
            trace, trace.horizon, cache_token=self._cache_token(trace)
        )

    def run_stream(
        self,
        sessions: Iterable[Session],
        horizon: float,
        *,
        cache_token: Optional[str] = None,
    ) -> SimulationResult:
        """Simulate a session stream without materializing a Trace.

        Accepts any iterable of sessions -- in particular
        ``TraceGenerator.iter_sessions()`` -- consumed exactly once and
        partitioned directly into swarm shards.  Because shards are
        canonically ordered, the result is a pure function of the
        session *multiset*: ``run_stream(iter(trace), trace.horizon)``
        equals ``run(trace)`` bit for bit.

        The whole pipeline is end-to-end streaming: sessions in, folded
        result out, with the peak resident shard count bounded by
        ``workers + 1`` instead of the shard total (see
        :mod:`repro.sim.reduce`).  Results are bit-for-bit identical
        across reduction modes.

        Args:
            sessions: the session stream (any order).
            horizon: trace length in seconds (must cover every session).
            cache_token: optional content fingerprint of the stream
                (see :func:`repro.trace.store.trace_fingerprint`); with
                a cache-capable grouping it lets the plan come from the
                content-addressed shard cache without consuming
                ``sessions``.
        """
        config = self.config
        self.last_reduction = None  # never report a previous run's stats
        self.last_grouping = None
        self.last_sweep = None
        plan = self.grouping.plan(
            sessions, horizon, config.policy, cache_token=cache_token
        )
        try:
            return self._run_streaming(plan, horizon)
        finally:
            # Cleanup before stats: a temporary shard is deleted here,
            # and the stats must not advertise a path that is gone.
            plan.cleanup()
            self.last_grouping = plan.stats()

    def _run_streaming(self, tasks: TaskPlan, horizon: float) -> SimulationResult:
        """Fold shard blocks into one result as they complete."""
        return self._fold_blocks(tasks, horizon, [self.config], sweep=False)[0][0]

    # ------------------------------------------------------------------
    # Multi-config sweeps
    # ------------------------------------------------------------------

    def run_sweep(
        self, trace: Trace, configs: Sequence[SimulationConfig]
    ) -> List[SimulationResult]:
        """Simulate the whole trace under every config in one pass.

        The sweep-amortized counterpart of K independent :meth:`run`
        calls: the trace is grouped once, each swarm's packed schedule
        is built once per distinct schedule signature on the compiled
        path (:func:`repro.sim.kernel.run_ref_multi`), and every
        backend round-trip carries one task ref plus K config deltas.
        Results are **bit-for-bit identical** to the K independent
        runs, in config order; :attr:`last_sweep` reports what was
        shared.
        """
        return self.run_sweep_stream(
            trace, trace.horizon, configs, cache_token=self._cache_token(trace)
        )

    def run_sweep_stream(
        self,
        sessions: Iterable[Session],
        horizon: float,
        configs: Sequence[SimulationConfig],
        *,
        cache_token: Optional[str] = None,
    ) -> List[SimulationResult]:
        """Simulate a session stream under every config in one pass.

        The swept configs supply the *physics* axes (``delta_tau``,
        upload ratio/bandwidth, participation, lingering, matching
        flags) and must share one swarm policy -- the task partition is
        policy-defined, so mixed policies cannot share a plan.  The
        *runtime* knobs (backend, workers, reduction, grouping,
        spill/shard dirs) come from this simulator's own config; the
        swept configs' runtime fields are ignored.

        Returns per-config results in config order, each bit-for-bit
        equal to ``run_stream`` under that config, on every backend x
        reduction x grouping combination.
        """
        configs = list(configs)
        if not configs:
            raise ValueError("run_sweep needs at least one config")
        policy = configs[0].policy
        for config in configs[1:]:
            if config.policy != policy:
                raise ValueError(
                    "sweep configs must share one swarm policy; got "
                    f"{policy!r} and {config.policy!r} (run separate sweeps "
                    "per policy -- the task partition is policy-defined)"
                )
        self.last_reduction = None
        self.last_grouping = None
        self.last_sweep = None
        plan = self.grouping.plan(sessions, horizon, policy, cache_token=cache_token)
        try:
            results, schedule_builds = self._fold_blocks(
                plan, horizon, configs, sweep=True
            )
        finally:
            # Cleanup before stats: a temporary shard is deleted here,
            # and the stats must not advertise a path that is gone.
            plan.cleanup()
            self.last_grouping = plan.stats()
        self.last_sweep = SweepStats(
            configs=len(configs),
            tasks=len(plan),
            schedule_builds=schedule_builds,
            cache_hit=self.last_grouping.cache_hit,
        )
        return results

    def _fold_blocks(
        self,
        tasks: TaskPlan,
        horizon: float,
        configs: List[SimulationConfig],
        sweep: bool,
    ):
        """One reducer per config, fed from one block stream as it completes.

        A sweep demultiplexes ``iter_outputs_multi`` blocks; in spill mode
        every reducer spills to its own log under ``spill_dir`` or a
        temporary root.  Returns the results and the schedules built.
        """
        config = self.config
        temp_spill_dir: Optional[str] = None
        spill_root: Optional[Path] = None
        if config.reduction == "spill":
            if config.spill_dir is not None:
                spill_root = Path(config.spill_dir)
                spill_root.mkdir(parents=True, exist_ok=True)
            else:
                temp_spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
                spill_root = Path(temp_spill_dir)
        accumulators: List[FootprintAccumulator] = []
        reducers: List[StreamingReducer] = []
        for position, run_config in enumerate(configs):
            spill_path: Optional[Path] = None
            if spill_root is not None:
                handle, raw_path = tempfile.mkstemp(
                    prefix=f"user-deltas-cfg{position}-", suffix=".log", dir=spill_root
                )
                os.close(handle)
                spill_path = Path(raw_path)
            users = FootprintAccumulator(spill_path=spill_path)
            accumulators.append(users)
            reducers.append(
                StreamingReducer(
                    delta_tau=run_config.delta_tau,
                    horizon=horizon,
                    upload_ratio=run_config.upload_ratio,
                    users=users,
                )
            )
        reducer = SweepReducer(reducers) if sweep else reducers[0]
        schedule_builds = 0
        try:
            if sweep:
                for start_index, block in self.backend.iter_outputs_multi(
                    tasks, configs
                ):
                    schedule_builds += sum(multi.schedule_builds for multi in block)
                    reducer.add(start_index, block)
                results = reducer.results()
            else:
                for start_index, block in self.backend.iter_outputs(tasks, config):
                    reducer.add(start_index, block)
                results = [reducer.result()]
        finally:
            for users in accumulators:
                users.close()
            if temp_spill_dir is not None:
                shutil.rmtree(temp_spill_dir, ignore_errors=True)
        if reducer.outputs_folded != len(tasks):
            raise RuntimeError(
                f"backend {self.backend.name!r} delivered "
                f"{reducer.outputs_folded} {'sweep ' if sweep else ''}outputs "
                f"for {len(tasks)} tasks"
            )
        stats = reducer.stats(config.reduction)
        if temp_spill_dir is not None:
            # The run-scoped temp log is gone; don't advertise its path.
            stats = replace(stats, spill_path=None)
        self.last_reduction = stats
        return results, schedule_builds


def simulate(
    trace: Trace, config: Optional[SimulationConfig] = None
) -> SimulationResult:
    """One-call simulation with defaults (see :class:`SimulationConfig`)."""
    return Simulator(config).run(trace)
