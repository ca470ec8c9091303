"""Execution backends: where and how swarm kernels actually run.

The simulation is embarrassingly parallel across swarms -- the paper's
simulator sweeps each swarm independently (Section IV.A) -- so the
engine delegates the *placement* of per-swarm work to a pluggable
backend while keeping the physics in :mod:`repro.sim.kernel` and the
reduction in :class:`repro.sim.reduce.StreamingReducer`.

Sharding / merge architecture::

    sessions ──build_tasks──▶ [SwarmTask...]      (canonical order)
                                   │
                        backend.iter_outputs      (any placement, bounded
                                   │               in-flight window,
                                   ▼               completion order)
                     (start_index, [SwarmOutput...]) blocks
                                   │
                          StreamingReducer        (re-orders to task
                                   │               order, folds as
                                   ▼               blocks complete)
                           SimulationResult

Because tasks are immutable, kernels are pure, and the reducer restores
task order before it folds, every backend is bit-for-bit equivalent;
the only degrees of freedom are wall-clock time and memory residency
(at most ``workers + 1`` blocks resident in the coordinator).

Backends consume a **task plan** (:mod:`repro.sim.grouping`), not a
materialized task list: a plan knows its task count and per-task
session counts (enough to balance shards) and yields tasks or cheap
picklable *refs* lazily.  Under ``grouping="memory"`` a ref is the
:class:`~repro.sim.kernel.SwarmTask` itself; under
``grouping="external"`` it is an extent handle ``(path, offset,
length, key)`` into the sorted shard file, and the worker resolves it
itself (:func:`~repro.sim.kernel.run_ref` -- on the compiled path
straight into packed schedule columns, no ``Session`` objects at all)
-- the coordinator never pickles session tuples to workers.  Plain
task sequences are still accepted everywhere (normalized via
:func:`~repro.sim.grouping.as_task_plan`).

Each backend has one submission path per run kind:
:meth:`ExecutionBackend.iter_outputs` for single runs and
:meth:`ExecutionBackend.iter_outputs_multi` for sweeps (one task ref
plus K configs per round-trip).

Backends:

* :class:`SerialBackend` -- in-process loop; zero overhead, the
  baseline every other backend must reproduce exactly.
* :class:`ProcessPoolBackend` -- a :class:`concurrent.futures.\
ProcessPoolExecutor` over contiguous, session-balanced shards of
  tasks; each shard costs one pickle round-trip.
* :class:`DistributedBackend` -- a coordinator over a crash-safe
  file-based work queue (:mod:`repro.sim.queue`).  Work items carry
  the same picklable refs the process pool ships, but through shared
  storage instead of a pipe, so the workers
  (``python -m repro.sim.worker``) can live on **any host that sees
  the queue directory and the shard file** -- the multi-host extension
  of the same contract.  Completion-order result blocks feed the same
  streaming reducer; dead workers are survived via lease-expiry
  requeue, so results stay bit-for-bit identical to serial even when
  workers are killed mid-run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
from abc import ABC, abstractmethod
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.sim import faults
from repro.sim.grouping import TaskPlan, as_task_plan, plan_handoff
from repro.sim.queue import (
    JobSpec,
    WorkQueue,
    item_id_for,
    make_items,
    position_of,
)
from repro.sim.kernel import (
    MultiSwarmOutput,
    SwarmOutput,
    SwarmTask,
    run_ref,
    run_ref_multi,
    run_shard,
    run_shard_multi,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.engine import SimulationConfig

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "DistributedBackend",
    "resolve_backend",
    "contiguous_blocks",
]

#: What backends accept: a lazy task plan, or (the historical API) a
#: plain sequence of resident tasks.
TaskSource = Union[TaskPlan, Sequence[SwarmTask]]

#: A contiguous run of tasks, tagged with the task index of its first
#: member -- the unit the streaming submission path ships and the
#: :class:`~repro.sim.reduce.StreamingReducer` re-orders by.
OutputBlock = Tuple[int, List[SwarmOutput]]

#: The sweep counterpart: per-task :class:`~repro.sim.kernel.\
#: MultiSwarmOutput` values (one output per sweep config inside each).
MultiOutputBlock = Tuple[int, List[MultiSwarmOutput]]


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def contiguous_blocks(
    tasks: Sequence, num_blocks: int
) -> List[Tuple[int, List]]:
    """Split task refs into at most ``num_blocks`` contiguous, session-balanced runs.

    Accepts resident :class:`~repro.sim.kernel.SwarmTask` values or
    extent refs -- anything with a ``num_sessions`` attribute -- so
    balancing never forces a decode.

    Shards must be *contiguous* in task order: the reducer folds
    strictly in task order, so a shard's outputs become foldable the
    moment every earlier shard has folded -- interleaved shards would
    all have to finish before the first fold.  Balance comes from
    weighting the cut points with session counts; each block's target
    is re-paced from the weight *remaining* when it opens, so one
    overweight Zipf-head task absorbs only its own block instead of
    starving every later cut.

    Returns ``(start_index, tasks)`` pairs covering every task exactly
    once, in task order; every block is non-empty.
    """
    total_tasks = len(tasks)
    if total_tasks == 0:
        return []
    num_blocks = max(1, min(num_blocks, total_tasks))
    weights = [float(task.num_sessions) for task in tasks]
    if sum(weights) <= 0.0:  # degenerate all-empty tasks: split evenly
        weights = [1.0] * total_tasks
    blocks: List[Tuple[int, List[SwarmTask]]] = []
    start = 0
    block_weight = 0.0
    weight_left = sum(weights)  # not yet assigned to a closed block
    for index in range(total_tasks):
        block_weight += weights[index]
        open_and_unfilled = num_blocks - len(blocks)  # including the open block
        if open_and_unfilled <= 1:
            continue  # the last block swallows the remaining tasks
        tasks_left = total_tasks - (index + 1)
        target_reached = block_weight * open_and_unfilled >= weight_left
        must_close = tasks_left < open_and_unfilled
        if target_reached or must_close:
            blocks.append((start, list(tasks[start : index + 1])))
            start = index + 1
            weight_left -= block_weight
            block_weight = 0.0
    if start < total_tasks:
        blocks.append((start, list(tasks[start:])))
    return blocks


def _iter_single_tasks(
    refs: Iterable, config: "SimulationConfig"
) -> Iterator[OutputBlock]:
    """One task at a time, lazily: exactly one output ever resident.

    The shared inline streaming path -- the serial backend's whole
    strategy, and the parallel backends' small-workload fallback.
    Consumes any ref iterable (resident tasks or extent refs):
    :func:`~repro.sim.kernel.run_ref` resolves each one on demand --
    via the zero-object compiled path where eligible -- so at most one
    task's working set is resident alongside its output.
    """
    for index, ref in enumerate(refs):
        yield index, [run_ref(ref, config)]


def _iter_single_tasks_multi(
    refs: Iterable, configs: Sequence["SimulationConfig"]
) -> Iterator[MultiOutputBlock]:
    """The sweep counterpart of :func:`_iter_single_tasks`."""
    for index, ref in enumerate(refs):
        yield index, [run_ref_multi(ref, configs)]


def _stream_blocks(
    executor: Executor,
    blocks: Sequence[Tuple[int, List]],
    window: int,
    shard_fn,
    *shard_args,
) -> Iterator[Tuple[int, List]]:
    """Submit task blocks with a bounded lookahead; yield in completion order.

    ``shard_fn(chunk, *shard_args)`` is the picklable unit of work --
    :func:`~repro.sim.kernel.run_shard` with a config for single runs,
    :func:`~repro.sim.kernel.run_shard_multi` with a config list for
    sweeps.

    ``imap``-style backpressure: at most ``window`` blocks may be past
    the *yield frontier* (the earliest block not yet yielded) at any
    time -- submitted, running, or completed-and-yielded out of order.
    Since the reducer's fold frontier trails the yield frontier by at
    most the blocks we yielded out of order, its reorder buffer can
    never hold more than ``window`` blocks, no matter how long a slow
    early shard straggles.
    """
    total = len(blocks)
    pending: dict = {}  # future -> position in ``blocks``
    yielded = [False] * total
    frontier = 0  # first position not yet yielded
    next_submit = 0
    while next_submit < total or pending:
        # Every pending future sits in [frontier, next_submit), so this
        # single guard also caps len(pending) below ``window``.
        while next_submit < total and next_submit < frontier + window:
            start, chunk = blocks[next_submit]
            pending[executor.submit(shard_fn, chunk, *shard_args)] = next_submit
            next_submit += 1
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            position = pending.pop(future)
            yielded[position] = True
            yield blocks[position][0], future.result()
        while frontier < total and yielded[frontier]:
            frontier += 1


class ExecutionBackend(ABC):
    """Strategy for executing swarm kernels over a task list."""

    #: Stable identifier, usable as ``SimulationConfig(backend=...)``.
    name: str = "abstract"

    @abstractmethod
    def iter_outputs(
        self, tasks: TaskSource, config: "SimulationConfig"
    ) -> Iterator[OutputBlock]:
        """Yield ``(start_index, outputs)`` blocks as they complete.

        Accepts a lazy :class:`~repro.sim.grouping.TaskPlan` or a plain
        task sequence.  Blocks may be yielded in any placement and
        completion order, but together they must cover the task list
        exactly once in contiguous runs, tagged with the task index of
        each run's first output so the
        :class:`~repro.sim.reduce.StreamingReducer` can restore the
        canonical fold order.  Implementations bound how many blocks
        are in flight past the earliest unyielded block, which is what
        keeps the reducer's reorder buffer (and hence coordinator
        memory) bounded.
        """

    def iter_outputs_multi(
        self, tasks: TaskSource, configs: Sequence["SimulationConfig"]
    ) -> Iterator[MultiOutputBlock]:
        """Yield ``(start_index, multi outputs)`` blocks as they complete.

        The sweep counterpart of :meth:`iter_outputs`, with the same
        block contract.  Each task ref is resolved once per schedule
        signature and swept for all K configs
        (:func:`~repro.sim.kernel.run_ref_multi`), so the per-task cost
        -- pickling, shard decode, schedule build -- is paid once
        instead of K times.  The base implementation streams inline one
        task at a time, so at most one task's K outputs are resident
        beyond the reducer.
        """
        return _iter_single_tasks_multi(as_task_plan(tasks).refs(), configs)


class SerialBackend(ExecutionBackend):
    """Run every swarm in the calling thread, in task order."""

    name = "serial"

    def iter_outputs(
        self, tasks: TaskSource, config: "SimulationConfig"
    ) -> Iterator[OutputBlock]:
        """One task at a time, lazily: exactly one output ever resident."""
        return _iter_single_tasks(as_task_plan(tasks).refs(), config)


class ProcessPoolBackend(ExecutionBackend):
    """Run swarm shards on worker processes.

    Tasks are cut into contiguous, session-balanced shards
    (:func:`contiguous_blocks`) and submitted with ``workers + 1`` in
    flight; blocks come back in completion order and the reducer
    restores task order.

    What crosses the process boundary is the plan's *refs*: resident
    tasks under memory grouping, but under external grouping just
    ``(path, offset, length, key)`` extent handles -- each worker opens
    the shard file itself and decodes only its own byte ranges
    (:func:`~repro.sim.kernel.run_ref`), so the coordinator's
    session-pickling hot path disappears entirely.

    Workloads below ``min_sessions`` run inline instead: spawning a
    pool and pickling tasks costs more than sweeping a small trace
    (e.g. the per-ISP exemplar subtraces of Fig. 2), and results are
    bit-for-bit identical either way.

    The worker pool is created lazily on first parallel use and then
    **kept alive across runs**, so drivers that run
    many simulations through one backend (or one Simulator) pay pool
    startup once.  Call :meth:`close` (or rely on garbage collection /
    interpreter exit) to release the workers.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        shards_per_worker: int = 4,
        min_sessions: int = 5_000,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if shards_per_worker < 1:
            raise ValueError(
                f"shards_per_worker must be >= 1, got {shards_per_worker!r}"
            )
        if min_sessions < 0:
            raise ValueError(f"min_sessions must be >= 0, got {min_sessions!r}")
        self.workers = workers or _default_workers()
        self.shards_per_worker = shards_per_worker
        self.min_sessions = min_sessions
        self._executor: Optional[ProcessPoolExecutor] = None

    def close(self) -> None:
        """Shut down the worker pool (recreated lazily if used again)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def iter_outputs(
        self, tasks: TaskSource, config: "SimulationConfig"
    ) -> Iterator[OutputBlock]:
        """Contiguous session-balanced shards, ``workers + 1`` in flight.

        Small workloads (below ``min_sessions``) stream inline one task
        at a time instead, exactly like :class:`SerialBackend` -- same
        results, no pool spawn, and still O(1) resident outputs.

        The shard count *grows* with the trace so that each shard
        carries at most ~``min_sessions`` sessions: a resident shard's
        output size is then bounded by a constant, and with the
        ``workers + 1`` in-flight window the coordinator's resident
        memory stays O(workers), not O(trace).
        """
        return self._stream(tasks, 1, _iter_single_tasks, run_shard, config)

    def iter_outputs_multi(
        self, tasks: TaskSource, configs: Sequence["SimulationConfig"]
    ) -> Iterator[MultiOutputBlock]:
        """Contiguous sweep shards, ``workers + 1`` in flight.

        The shard quantum shrinks with the config count: a resident
        sweep block holds K outputs per task, so bounding the per-shard
        session count at ``min_sessions / K`` keeps the coordinator's
        resident-output footprint at the single-run level.  The inline
        fallback likewise weighs the workload as ``sessions x configs``.
        """
        return self._stream(
            tasks, len(configs), _iter_single_tasks_multi, run_shard_multi, configs
        )

    def _stream(self, tasks: TaskSource, num_configs: int, inline, shard_fn, arg):
        """The shared body of :meth:`iter_outputs` and :meth:`iter_outputs_multi`."""
        plan = as_task_plan(tasks)
        if len(plan) == 0:
            return
        num_configs = max(1, num_configs)
        total_sessions = sum(plan.session_counts)
        per_shard_quantum = max(1, self.min_sessions // num_configs)
        num_shards = min(
            len(plan),
            max(
                self.workers * self.shards_per_worker,
                -(-total_sessions // per_shard_quantum),  # ceil division
            ),
        )
        if (
            self.workers <= 1
            or total_sessions * num_configs < self.min_sessions
            or num_shards <= 1
        ):
            yield from inline(plan.refs(), arg)
            return
        blocks = contiguous_blocks(plan.refs(), num_shards)
        try:
            yield from _stream_blocks(
                self._pool(), blocks, self.workers + 1, shard_fn, arg
            )
        except BrokenProcessPool:
            self.close()  # next call starts a fresh pool
            raise


class DistributedBackend(ExecutionBackend):
    """Run swarm shards on worker processes over a file-based work queue.

    The multi-host counterpart of :class:`ProcessPoolBackend`: instead
    of a pipe to a local executor, each invocation publishes a *job*
    under ``queue_dir`` -- a spec (config or sweep configs), a grouping
    handoff (``plan.json``, see
    :func:`repro.sim.grouping.plan_handoff`), and one crash-safe work
    item per contiguous session-balanced task block -- and collects
    result files as independent workers (``python -m
    repro.sim.worker``) claim, run and ack them.  Workers need nothing
    from the coordinator but shared storage: the queue directory, and
    (under external grouping) the sorted shard file the
    :class:`~repro.sim.grouping.ExtentTaskRef` values point into.

    Fault tolerance: claims carry leases that live workers renew; the
    coordinator requeues any item whose lease expires (worker killed
    mid-task), honours results written by workers that died before
    acking, fails fast on poisoned items parked in ``failed/``, and
    raises if an item keeps bouncing (``max_attempts``) or nothing at
    all makes progress for ``progress_timeout`` seconds.  Because
    kernels are pure and result blocks fold in canonical task order,
    every recovery path is bit-for-bit invisible in the result.

    Args:
        workers: local worker processes to spawn (default: CPU count).
            The spawned fleet persists across runs (like the process
            pool) until :meth:`close`.
        queue_dir: the shared queue root.  ``None`` uses a private
            temporary directory (single-host convenience); point it at
            shared storage and start extra workers on other hosts to
            scale out -- the coordinator happily feeds both its own
            and foreign workers.
        spawn: set False to spawn no local workers and rely entirely
            on externally launched ones (``workers`` then only sizes
            the streaming window).
        lease_timeout: seconds an unrenewed claim may age before the
            coordinator requeues it.  Renewal runs every third of
            this, so only dead (not slow) workers trip it.
        poll_interval: coordinator/worker scan period in seconds.
        shards_per_worker: target task blocks per worker (same
            balancing role as in :class:`ProcessPoolBackend`).
        shard_quantum: cap on sessions per block, so resident
            result blocks stay O(1)-sized (the sweep path
            divides it by the config count, like the process pool).
        progress_timeout: seconds without any activity -- no new
            result, no requeue, and no live (in-lease) claim -- before
            the coordinator gives up (e.g. no worker can reach the
            queue).  A claim kept alive by lease renewal counts as
            activity, so long-running kernels never trip this.
        max_attempts: executions allowed per item before the
            coordinator declares it poisoned.
        compact_every: collected results are folded into the job's
            append-only ``results.pack`` every this many items
            (0: never), keeping huge jobs from drowning the results
            directory in loose files.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_dir: Optional[Union[str, Path]] = None,
        *,
        spawn: bool = True,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.05,
        shards_per_worker: int = 4,
        shard_quantum: int = 5_000,
        progress_timeout: float = 300.0,
        max_attempts: int = 5,
        compact_every: int = 256,
    ) -> None:
        # State first: __del__ -> close() must work even if validation
        # below raises on a half-constructed instance.
        self._queue_root = Path(queue_dir) if queue_dir is not None else None
        self._owned_root: Optional[Path] = None
        self._procs: List[subprocess.Popen] = []
        self._spawned = 0
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout!r}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval!r}")
        if shards_per_worker < 1:
            raise ValueError(
                f"shards_per_worker must be >= 1, got {shards_per_worker!r}"
            )
        if shard_quantum < 1:
            raise ValueError(f"shard_quantum must be >= 1, got {shard_quantum!r}")
        if progress_timeout <= 0:
            raise ValueError(
                f"progress_timeout must be > 0, got {progress_timeout!r}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts!r}")
        if compact_every < 0:
            raise ValueError(
                f"compact_every must be >= 0, got {compact_every!r}"
            )
        self.workers = workers or _default_workers()
        self.spawn = spawn
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.shards_per_worker = shards_per_worker
        self.shard_quantum = shard_quantum
        self.progress_timeout = progress_timeout
        self.max_attempts = max_attempts
        #: Fold collected results into the job's ``results.pack`` every
        #: this many items, so a million-block job never leaves a
        #: million loose ``.out`` files in one directory (shared
        #: filesystems degrade badly on huge directories).  0 disables
        #: compaction.
        self.compact_every = compact_every
        #: Stale-lease requeues performed during the most recent job --
        #: how many work items had to be recovered from dead workers.
        #: 0 on a healthy run; tests and benchmarks assert fault
        #: handling through this.
        self.last_requeues = 0
        #: Optional stable name for the *next* job's directory
        #: (``job-<token>`` instead of a fresh timestamped id).  Set by
        #: the always-on service before each epoch run: if a directory
        #: with that name already exists -- a previous coordinator was
        #: killed mid-epoch -- the job is **resumed**: only items not
        #: already known to the queue are enqueued, and acked results
        #: from the dead run are collected instead of re-run.  The
        #: caller owns token uniqueness (the service scopes tokens by a
        #: per-state-dir service id).  ``None``: historical one-shot
        #: job naming.
        self.job_token: Optional[str] = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Terminate spawned workers; delete the queue root if owned."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                proc.kill()
                proc.wait()
        self._procs = []
        if self._owned_root is not None:
            shutil.rmtree(self._owned_root, ignore_errors=True)
            self._owned_root = None
            self._queue_root = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def _root(self) -> Path:
        if self._queue_root is None:
            self._owned_root = Path(tempfile.mkdtemp(prefix="repro-queue-"))
            self._queue_root = self._owned_root
        self._queue_root.mkdir(parents=True, exist_ok=True)
        return self._queue_root

    def live_workers(self) -> int:
        """How many of the spawned local workers are still alive."""
        return sum(1 for proc in self._procs if proc.poll() is None)

    def _ensure_workers(self, root: Path) -> None:
        """Top the spawned fleet up to ``workers`` (first run, or reuse)."""
        if not self.spawn:
            return
        self._procs = [proc for proc in self._procs if proc.poll() is None]
        while len(self._procs) < self.workers:
            self._procs.append(self._spawn_worker(root))

    def _spawn_worker(self, root: Path) -> subprocess.Popen:
        import repro

        package_root = Path(repro.__file__).resolve().parent.parent
        env = os.environ.copy()
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            f"{package_root}{os.pathsep}{existing}" if existing else str(package_root)
        )
        self._spawned += 1
        if faults.PLAN_ENV_VAR in env:
            # Chaos runs: decorrelate each worker's fault streams so the
            # fleet doesn't crash in lockstep (still deterministic: the
            # salt is the spawn ordinal).
            env[faults.SALT_ENV_VAR] = f"worker-{self._spawned}"
        command = [
            sys.executable,
            "-m",
            "repro.sim.worker",
            "--queue-dir",
            str(root),
            "--poll-interval",
            str(self.poll_interval),
            "--lease-timeout",
            str(self.lease_timeout),
        ]
        return subprocess.Popen(command, env=env)

    # -- job plumbing ---------------------------------------------------

    def _streaming_shards(self, plan: TaskPlan, num_configs: int = 1) -> int:
        """Block count for a job (bounded block size)."""
        total_sessions = sum(plan.session_counts)
        quantum = max(1, self.shard_quantum // max(1, num_configs))
        return min(
            len(plan),
            max(
                self.workers * self.shards_per_worker,
                -(-total_sessions // quantum),  # ceil division
            ),
        )

    def _run_job(
        self,
        blocks: Sequence[Tuple[int, List]],
        spec: JobSpec,
        window: int,
        handoff: Optional[Dict] = None,
    ) -> Iterator[Tuple[int, List]]:
        """Publish one job, collect its result blocks, clean up.

        With :attr:`job_token` set and the token's directory already on
        disk, the job is resumed: the spec and handoff are re-published
        (byte-identical -- blocks are a deterministic function of the
        plan), a stale ``DONE`` marker from a half-retired run is
        lifted so workers serve the job again, and only items absent
        from every queue state are enqueued.
        """
        root = self._root()
        if self.job_token is not None:
            job_dir = root / f"job-{self.job_token}"
        else:
            job_dir = root / f"job-{time.time_ns():020d}-{uuid.uuid4().hex[:8]}"
        self.last_requeues = 0
        resuming = self.job_token is not None and job_dir.exists()
        queue = WorkQueue(job_dir, lease_timeout=self.lease_timeout)
        queue.write_spec(spec)
        if handoff is not None:
            (job_dir / WorkQueue.PLAN_FILENAME).write_text(
                json.dumps(handoff, indent=2) + "\n"
            )
        known = queue.known_item_ids() if resuming else frozenset()
        if resuming:
            (job_dir / WorkQueue.DONE_FILENAME).unlink(missing_ok=True)
        for item in make_items(blocks):
            if item.item_id not in known:
                queue.put(item)
        self._ensure_workers(root)
        try:
            yield from self._collect(queue, blocks, window)
        finally:
            queue.mark_done()
            shutil.rmtree(job_dir, ignore_errors=True)

    def _collect(
        self,
        queue: WorkQueue,
        blocks: Sequence[Tuple[int, List]],
        window: int,
    ) -> Iterator[Tuple[int, List]]:
        """Yield result blocks in completion order, window-bounded.

        The same invariant as :func:`_stream_blocks`, shifted to disk:
        a block is loaded and yielded only while it is fewer than
        ``window`` positions past the earliest unyielded block, so the
        reducer's reorder buffer -- the only place results are resident
        -- never exceeds ``window``.  Results completed beyond the
        window stay on disk (free) until the frontier catches up.
        """
        total = len(blocks)
        yielded = [False] * total
        frontier = 0
        ready: Set[int] = set()  # result on disk, not yet yielded
        seen: Set[str] = set()
        attempts: Dict[str, int] = {}
        compactable: List[str] = []  # yielded, not yet folded into the pack
        last_progress = time.monotonic()
        while frontier < total:
            progress = False
            for item_id in queue.result_ids() - seen:
                seen.add(item_id)
                ready.add(position_of(item_id))
                progress = True
            while True:
                eligible = sorted(p for p in ready if p < frontier + window)
                if not eligible:
                    break
                for position in eligible:
                    ready.discard(position)
                    yielded[position] = True
                    yield blocks[position][0], queue.load_result(
                        item_id_for(position)
                    )
                    compactable.append(item_id_for(position))
                while frontier < total and yielded[frontier]:
                    frontier += 1
            if self.compact_every and len(compactable) >= self.compact_every:
                queue.compact_results(compactable)
                compactable = []
            if frontier >= total:
                break
            failures = queue.failed_items()
            if failures:
                item_id, error = sorted(failures.items())[0]
                detail = ""
                if getattr(error, "exception_type", None):
                    detail = (
                        f" [{error.exception_type}, attempt {error.attempts}"
                        f", worker {error.worker_id}]"
                    )
                raise RuntimeError(
                    f"distributed worker gave up on {item_id}: {error}{detail}"
                )
            for item_id in queue.requeue_stale():
                attempts[item_id] = attempts.get(item_id, 0) + 1
                self.last_requeues += 1
                progress = True  # requeue IS progress (the lease moved)
                if attempts[item_id] >= self.max_attempts:
                    raise RuntimeError(
                        f"work item {item_id} requeued {attempts[item_id]} "
                        "times without completing; giving up"
                    )
            if not progress and queue.claimed_ids():
                # A claim that survived requeue_stale is within its
                # lease: either a live worker is renewing it (a long
                # kernel run is work, not a stall), or it will go stale
                # and be requeued -- which registers as progress above
                # -- within one lease_timeout.  Only a queue with no
                # results, no requeues AND no live claims is stalled.
                progress = True
            if self.spawn and self.live_workers() < self.workers:
                # Fleet self-healing: a worker that died mid-job
                # (crash, OOM, --max-rss self-limit) is replaced while
                # the job is still running, not at the next job.
                self._ensure_workers(queue.job_dir.parent)
            if progress:
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > self.progress_timeout:
                raise RuntimeError(
                    f"distributed run stalled for {self.progress_timeout:.0f}s: "
                    f"{len(queue.pending_ids())} pending / "
                    f"{len(queue.claimed_ids())} claimed items, "
                    f"{self.live_workers()} live local workers "
                    f"(queue: {queue.job_dir})"
                )
            else:
                time.sleep(self.poll_interval)

    # -- ExecutionBackend API -------------------------------------------

    def iter_outputs(
        self, tasks: TaskSource, config: "SimulationConfig"
    ) -> Iterator[OutputBlock]:
        plan = as_task_plan(tasks)
        if len(plan) == 0:
            return
        blocks = contiguous_blocks(plan.refs(), self._streaming_shards(plan))
        spec = JobSpec(
            kind="single", config=config, lease_timeout=self.lease_timeout
        )
        yield from self._run_job(
            blocks, spec, window=self.workers + 1, handoff=plan_handoff(plan)
        )

    def iter_outputs_multi(
        self, tasks: TaskSource, configs: Sequence["SimulationConfig"]
    ) -> Iterator[MultiOutputBlock]:
        plan = as_task_plan(tasks)
        if len(plan) == 0:
            return
        blocks = contiguous_blocks(
            plan.refs(), self._streaming_shards(plan, len(configs))
        )
        spec = JobSpec(
            kind="sweep", configs=tuple(configs), lease_timeout=self.lease_timeout
        )
        yield from self._run_job(
            blocks, spec, window=self.workers + 1, handoff=plan_handoff(plan)
        )


#: The registry of selectable backend names -- the single source of
#: truth consumed by ``SimulationConfig`` validation and the CLI's
#: ``--backend`` choices.
BACKEND_NAMES: tuple = (
    SerialBackend.name,
    ProcessPoolBackend.name,
    DistributedBackend.name,
)


def resolve_backend(
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    queue_dir: Optional[str] = None,
) -> ExecutionBackend:
    """Pick a backend from ``SimulationConfig(backend=..., workers=...)``.

    * an explicit name (one of :data:`BACKEND_NAMES`) wins;
    * otherwise ``workers`` > 1 selects the process pool;
    * otherwise the serial baseline.

    ``queue_dir`` reaches only the distributed backend (the engine
    validates it is never set for the others).
    """
    if backend is None:
        if workers is not None and workers > 1:
            return ProcessPoolBackend(workers)
        return SerialBackend()
    if backend == SerialBackend.name:
        return SerialBackend()
    if backend == ProcessPoolBackend.name:
        return ProcessPoolBackend(workers)
    if backend == DistributedBackend.name:
        return DistributedBackend(workers, queue_dir)
    raise ValueError(
        f"unknown backend {backend!r}; choose from {', '.join(BACKEND_NAMES)}"
    )
