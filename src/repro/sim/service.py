"""Always-on service mode: incremental results over an unbounded stream.

Everything else in the runtime is batch: consume a finite trace, return
one :class:`~repro.sim.results.SimulationResult`.  The paper's setting
-- carbon-aware delivery for a city of millions -- is a live feed, so
this module turns the same kernel/backend/reduction machinery into a
long-running coordinator:

* **Epochs.** The unbounded session stream is partitioned into bounded
  simulation epochs by *session start time* (``floor(start /
  epoch_seconds)``), under an :class:`~repro.sim.policies.EpochPolicy`
  that scopes swarm identity to the epoch.  Peer matching never crosses
  an epoch boundary -- that is the documented semantics of service
  mode, and what makes an epoch a self-contained simulation.
* **Closing.** An epoch closes when the stream's watermark (the latest
  session start seen) passes the epoch's horizon plus an allowed
  lateness -- for a live feed delivered in near real time this is
  exactly "when its wall-clock horizon expires".  The closed epoch runs
  through the configured grouping/backend/kernel, and its
  :class:`EpochResult` delta is pushed to every registered subscriber
  (callbacks, and a durable :class:`JsonlSink`).
* **Exactness.** :meth:`SwarmKey.sort_key` leads with the epoch, so the
  canonical task order of a *batch* run under the epoch-scoped config
  is epoch-major: the concatenation of the per-epoch canonical orders.
  The service keeps one long-lived cumulative
  :class:`~repro.sim.reduce.StreamingReducer` and folds every epoch's
  output blocks into it at their global task indices -- the exact same
  float-addition sequence the batch run performs.  The merge of all
  emitted epochs (:meth:`SimulationService.result`) is therefore
  **bit-for-bit equal** to ``Simulator.run`` over the same finite trace
  with :attr:`ServiceConfig.scoped_config` -- on every backend.  (This
  requires a fixed accounting ``horizon``; with the rolling per-epoch
  horizon of truly unbounded operation each delta is still exactly the
  batch result over its own epoch.)
* **Checkpointed resume.** After each epoch the service publishes a
  :class:`ServiceCheckpoint` -- cumulative reducer state, stream
  cursor, epoch watermark and the open-epoch buffers -- with the same
  atomic-rename discipline as the work queue.  A coordinator SIGKILLed
  at any instruction and restarted over the same state dir re-reads the
  stream from the checkpointed cursor and continues: every epoch is
  emitted exactly once to durable subscribers (the JSONL sink
  deduplicates the one at-most-one epoch that was emitted but not yet
  checkpointed), with no gaps, and the cumulative result is unchanged.
  Under the distributed backend, epoch jobs carry stable tokens
  (``job-svc-<id>-epoch-<n>``), so a restarted coordinator re-attaches
  to the killed epoch's queue directory and collects acked results
  instead of re-running them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import uuid
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.sim import faults
from repro.sim.accounting import ByteLedger
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.policies import EpochPolicy, SwarmKey
from repro.sim.queue import atomic_write_bytes
from repro.sim.reduce import StreamingReducer
from repro.sim.results import SimulationResult, SwarmResult, UserTraffic
from repro.topology.layers import NetworkLayer
from repro.trace.events import Session
from repro.trace.loader import follow_jsonl

__all__ = [
    "EpochResult",
    "JsonlSink",
    "ServiceCheckpoint",
    "ServiceConfig",
    "SimulationService",
    "result_digest",
    "result_from_payload",
    "result_to_payload",
    "serve_jsonl",
]

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceConfig:
    """How the always-on coordinator chops the stream into epochs.

    Attributes:
        simulation: the **base** simulation parameters.  Pass the plain
            (batch) swarm policy here; the service scopes it to epochs
            itself (see :attr:`scoped_config`).
        epoch_seconds: epoch length in simulated seconds (one bounded
            simulation per epoch).
        horizon: fixed accounting horizon stamped on every epoch run.
            Required for exact batch parity -- the kernel normalizes
            capacities and arrival rates by the task horizon, so all
            epochs must share the batch run's.  ``None`` switches to a
            rolling per-epoch horizon (truly unbounded operation):
            each delta is still exactly the batch result over its own
            epoch, but there is no finite batch run to compare the
            cumulative result against.
        allowed_lateness: how far (in simulated seconds) a session may
            arrive behind the watermark before its epoch has already
            closed.  An epoch closes only once the watermark passes
            ``epoch_end + allowed_lateness``.
        late_policy: what to do with a session whose epoch already
            closed: ``"drop"`` counts and skips it (the default --
            exactly-once emission beats completeness on a live feed),
            ``"error"`` raises.
    """

    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    epoch_seconds: float = 86_400.0
    horizon: Optional[float] = None
    allowed_lateness: float = 0.0
    late_policy: str = "drop"

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError(
                f"epoch_seconds must be > 0, got {self.epoch_seconds!r}"
            )
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if self.allowed_lateness < 0:
            raise ValueError(
                f"allowed_lateness must be >= 0, got {self.allowed_lateness!r}"
            )
        if self.late_policy not in ("drop", "error"):
            raise ValueError(
                f"late_policy must be 'drop' or 'error', got {self.late_policy!r}"
            )
        if isinstance(self.simulation.policy, EpochPolicy):
            raise ValueError(
                "pass the base swarm policy; the service scopes it to "
                "epochs itself (simulation.policy is already an EpochPolicy)"
            )

    @property
    def policy(self) -> EpochPolicy:
        """The epoch-scoped swarm policy every epoch runs under."""
        return EpochPolicy(
            base=self.simulation.policy, epoch_seconds=self.epoch_seconds
        )

    @property
    def scoped_config(self) -> SimulationConfig:
        """The batch-comparable config: ``simulation`` with the epoch
        policy swapped in.

        ``Simulator(config.scoped_config).run(trace)`` over a finite
        trace is the reference the service's cumulative result equals
        bit for bit (fixed ``horizon`` mode).
        """
        return replace(self.simulation, policy=self.policy)


# ----------------------------------------------------------------------
# Per-epoch emission
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EpochResult:
    """One closed epoch's delta, as delivered to subscribers.

    Attributes:
        epoch: the epoch index (``floor(start / epoch_seconds)``).
        epoch_start / epoch_end: the epoch's time interval (seconds).
        horizon: accounting horizon the epoch ran under.
        sessions: sessions simulated in this epoch.
        delta: the epoch's own :class:`SimulationResult` -- exactly the
            batch result over the epoch's sub-stream under the
            epoch-scoped policy.
    """

    epoch: int
    epoch_start: float
    epoch_end: float
    horizon: float
    sessions: int
    delta: SimulationResult


#: A subscriber receives every closed epoch, in epoch order.  Durable
#: subscribers must deduplicate by epoch index (see :class:`JsonlSink`):
#: after a crash between emission and checkpoint, the re-run epoch is
#: emitted again (deltas are deterministic, so the payload is
#: identical).
Subscriber = Callable[[EpochResult], None]


# ----------------------------------------------------------------------
# Result JSON codec (exact float round-trip via repr)
# ----------------------------------------------------------------------


def _ledger_to_payload(ledger: ByteLedger) -> Dict[str, object]:
    return {
        "server_bits": ledger.server_bits,
        "peer_bits": {
            str(layer.value): bits
            for layer, bits in sorted(ledger.peer_bits.items())
        },
        "demanded_bits": ledger.demanded_bits,
        "watch_seconds": ledger.watch_seconds,
        "sessions": ledger.sessions,
    }


def _ledger_from_payload(payload: Dict) -> ByteLedger:
    return ByteLedger(
        server_bits=float(payload["server_bits"]),
        peer_bits={
            NetworkLayer(int(layer)): float(bits)
            for layer, bits in payload["peer_bits"].items()
        },
        demanded_bits=float(payload["demanded_bits"]),
        watch_seconds=float(payload["watch_seconds"]),
        sessions=int(payload["sessions"]),
    )


def _key_to_payload(key: SwarmKey) -> Dict[str, object]:
    return {
        "content_id": key.content_id,
        "isp": key.isp,
        "bitrate_class": key.bitrate_class,
        "epoch": key.epoch,
    }


def _key_from_payload(payload: Dict) -> SwarmKey:
    return SwarmKey(
        content_id=payload["content_id"],
        isp=payload.get("isp"),
        bitrate_class=payload.get("bitrate_class"),
        epoch=payload.get("epoch"),
    )


def _payload_fields(result: SimulationResult) -> Dict[str, object]:
    """The payload's fields, its list fields as lazy canonical-order rows."""
    per_user = result.per_user
    return {
        "delta_tau": result.delta_tau,
        "horizon": result.horizon,
        "upload_ratio": result.upload_ratio,
        "total": _ledger_to_payload(result.total),
        "per_swarm": (
            {
                "key": _key_to_payload(key),
                "ledger": _ledger_to_payload(swarm.ledger),
                "capacity": swarm.capacity,
                "arrival_rate": swarm.arrival_rate,
                "mean_duration": swarm.mean_duration,
            }
            for key, swarm in sorted(
                result.per_swarm.items(), key=lambda kv: kv[0].sort_key()
            )
        ),
        "per_isp_day": (
            [isp, day, _ledger_to_payload(ledger)]
            for (isp, day), ledger in sorted(result.per_isp_day.items())
        ),
        "per_user": (
            [uid, per_user[uid].watched_bits, per_user[uid].uploaded_bits]
            for uid in sorted(per_user)
        ),
    }


def result_to_payload(result: SimulationResult) -> Dict[str, object]:
    """A :class:`SimulationResult` as deterministic JSON-able data.

    Collections are emitted in canonical sorted order and floats
    survive ``json`` round-trips bit for bit (shortest-round-trip
    ``repr``), so equal results always serialize to equal payloads --
    the property the kill/restart tests compare sink files by.
    """
    return {
        name: list(value) if isinstance(value, Iterator) else value
        for name, value in _payload_fields(result).items()
    }


def result_digest(result: SimulationResult) -> str:
    """A bit-for-bit digest of ``result`` (hex blake2b-128).

    Hashes :func:`result_to_payload`'s fields in sorted name order,
    each list field as JSON chunks of 1,024 rows.  The rows are
    streamed, so a paper-scale result (millions of users) is never
    held as one payload.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for name, value in sorted(_payload_fields(result).items()):
        hasher.update(name.encode())
        if isinstance(value, Iterator):
            while chunk := list(islice(value, 1024)):
                hasher.update(json.dumps(chunk).encode())
        else:
            hasher.update(json.dumps(value).encode())
    return hasher.hexdigest()


def result_from_payload(payload: Dict) -> SimulationResult:
    """Inverse of :func:`result_to_payload` (exact, bit for bit)."""
    per_swarm: Dict[SwarmKey, SwarmResult] = {}
    for entry in payload["per_swarm"]:
        key = _key_from_payload(entry["key"])
        per_swarm[key] = SwarmResult(
            key=key,
            ledger=_ledger_from_payload(entry["ledger"]),
            capacity=float(entry["capacity"]),
            arrival_rate=float(entry["arrival_rate"]),
            mean_duration=float(entry["mean_duration"]),
        )
    return SimulationResult(
        total=_ledger_from_payload(payload["total"]),
        per_swarm=per_swarm,
        per_isp_day={
            (isp, int(day)): _ledger_from_payload(ledger)
            for isp, day, ledger in payload["per_isp_day"]
        },
        per_user={
            int(uid): UserTraffic(
                watched_bits=float(watched), uploaded_bits=float(uploaded)
            )
            for uid, watched, uploaded in payload["per_user"]
        },
        delta_tau=float(payload["delta_tau"]),
        horizon=float(payload["horizon"]),
        upload_ratio=float(payload["upload_ratio"]),
    )


# ----------------------------------------------------------------------
# Durable subscriber
# ----------------------------------------------------------------------


class JsonlSink:
    """Append one JSON record per closed epoch to a results feed.

    The durable half of exactly-once emission: construction scans the
    existing file, truncates a torn trailing line (a coordinator killed
    mid-append), and remembers the highest epoch already present; a
    replayed emission -- the restarted coordinator re-running the one
    epoch that was emitted but not yet checkpointed -- is skipped
    instead of appended twice.  Appends are flushed and fsynced, so a
    record the checkpoint believes emitted is actually on disk.
    """

    #: Record discriminator of the per-epoch lines this sink writes.
    KIND = "epoch-result"

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.last_epoch = -1
        self._recover()

    def _recover(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if raw and not raw.endswith(b"\n"):
            # A torn tail can only be the last append (writes are
            # newline-terminated); truncating it keeps the feed parseable
            # by strict readers after the record is re-appended whole.
            cut = raw.rfind(b"\n") + 1
            raw = raw[:cut]
            self.path.write_bytes(raw)
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # defensive: never wedge recovery on one line
            if record.get("kind") == self.KIND:
                self.last_epoch = max(self.last_epoch, int(record["epoch"]))

    def __call__(self, event: EpochResult) -> None:
        if event.epoch <= self.last_epoch:
            logger.info(
                "sink %s: epoch %d already durable, skipping replay",
                self.path.name, event.epoch,
            )
            return
        record = {
            "kind": self.KIND,
            "epoch": event.epoch,
            "epoch_start": event.epoch_start,
            "epoch_end": event.epoch_end,
            "horizon": event.horizon,
            "sessions": event.sessions,
            "result": result_to_payload(event.delta),
        }
        payload = (json.dumps(record) + "\n").encode("utf-8")

        def append() -> None:
            """Append the record line through the fault-injectable facade."""
            with self.path.open("ab") as handle:
                faults.storage().write(handle, payload, site="sink.append")
                handle.flush()
                os.fsync(handle.fileno())

        # A torn append leaves a partial line at the tail; repairing
        # (truncating back to the last newline) before each retry keeps
        # the retried whole record from landing after a garbage prefix.
        faults.retrying("sink.append", append, on_retry=lambda _: self._recover())
        self.last_epoch = event.epoch

    @classmethod
    def read(cls, path: Union[str, Path]) -> List[Dict]:
        """All complete epoch records in a sink file, epoch order as
        written (tolerates a torn trailing line)."""
        path = Path(path)
        if not path.exists():
            return []
        records = []
        raw = path.read_bytes()
        if raw and not raw.endswith(b"\n"):
            raw = raw[: raw.rfind(b"\n") + 1]
        for line in raw.splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("kind") == cls.KIND:
                records.append(record)
        return records


# ----------------------------------------------------------------------
# Checkpoint
# ----------------------------------------------------------------------


@dataclass
class ServiceCheckpoint:
    """Everything a restarted coordinator needs to resume mid-stream.

    Published atomically (temp file + rename, the queue's own
    :func:`~repro.sim.queue.atomic_write_bytes`) after every epoch
    close, when the cumulative reducer has no buffered blocks -- so the
    file on disk is always a *consistent* cut: reducer state, the
    stream cursor (session records consumed), the epoch watermark
    (``next_epoch`` / ``watermark``), and the open-epoch session
    buffers that had been read but not yet simulated.  A SIGKILL at any
    instruction leaves either the previous checkpoint or this one,
    never a torn mix.
    """

    FILENAME: ClassVar[str] = "checkpoint.pkl"

    config: ServiceConfig
    service_id: str
    next_epoch: Optional[int]
    watermark: Optional[float]
    cursor: int
    task_base: int
    emitted: int
    late_sessions: int
    reducer: StreamingReducer
    buffers: Dict[int, List[Session]]
    version: int = 2

    def save(self, state_dir: Union[str, Path]) -> Path:
        """Atomically publish this checkpoint to ``path`` (temp + rename)."""
        path = Path(state_dir) / self.FILENAME
        atomic_write_bytes(path, pickle.dumps(self), site="checkpoint.save")
        return path

    @classmethod
    def load(cls, state_dir: Union[str, Path]) -> Optional["ServiceCheckpoint"]:
        """The checkpoint under ``state_dir``, or None for a fresh start.

        Raises:
            RuntimeError: if the file exists but cannot be decoded --
                rename-published checkpoints are never torn, so a
                corrupt one means real damage the operator should see,
                not silently restart from scratch -- or if its
                ``version`` is not this class's (a reducer pickled in
                another layout must not be resumed and folded into).
        """
        path = Path(state_dir) / cls.FILENAME
        if not path.exists():
            return None
        try:
            payload = pickle.loads(path.read_bytes())
        except Exception as error:
            raise RuntimeError(
                f"corrupt service checkpoint {path}: {error}"
            ) from error
        if not isinstance(payload, cls):
            raise RuntimeError(
                f"service checkpoint {path} holds {type(payload).__name__}"
            )
        if payload.version != cls.version:
            raise RuntimeError(
                f"service checkpoint {path} is version {payload.version}, "
                f"not {cls.version}: its reducer state has another layout"
            )
        return payload


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------


class SimulationService:
    """Long-running coordinator: stream in, per-epoch deltas out.

    Construct over a ``state_dir``; if a :class:`ServiceCheckpoint` is
    present the service resumes from it (``resumed`` is True and
    :attr:`cursor` tells the caller how many session records to skip
    when re-opening the stream -- :func:`follow_jsonl` takes it as
    ``start_record``).

    Args:
        config: the :class:`ServiceConfig`.
        state_dir: directory owning the checkpoint (created if absent).
        subscribers: initial subscriber callables (see
            :data:`Subscriber`); more via :meth:`add_subscriber`.
        simulator: injected :class:`Simulator` (tests/benchmarks); must
            be built over ``config.scoped_config``.  The service owns
            (and closes) one it builds itself.

    Raises:
        ValueError: when resuming with a config whose results differ
            from the checkpointed one's (epoch geometry and policy
            define the fold; silently changing them would corrupt the
            cumulative result).  Execution-only simulation fields --
            workers, backend, grouping, kernel, ... (see
            :meth:`SimulationConfig.results_config`) -- may change
            across a restart.
    """

    def __init__(
        self,
        config: ServiceConfig,
        state_dir: Union[str, Path],
        subscribers: Iterable[Subscriber] = (),
        simulator: Optional[Simulator] = None,
    ) -> None:
        self.config = config
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._subscribers: List[Subscriber] = list(subscribers)
        self._owns_sim = simulator is None
        self._sim = simulator or Simulator(config.scoped_config)
        self._policy = config.policy
        checkpoint = ServiceCheckpoint.load(self.state_dir)
        self.resumed = checkpoint is not None
        if checkpoint is not None:
            if _results_identity(checkpoint.config) != _results_identity(config):
                raise ValueError(
                    f"state dir {self.state_dir} holds a checkpoint for a "
                    "different service config; clear the state dir or match "
                    "the config"
                )
            self.service_id = checkpoint.service_id
            self._next_epoch = checkpoint.next_epoch
            self._watermark = checkpoint.watermark
            self._cursor = checkpoint.cursor
            self._task_base = checkpoint.task_base
            self.emitted = checkpoint.emitted
            self.late_sessions = checkpoint.late_sessions
            self._reducer = checkpoint.reducer
            self._buffers = {
                epoch: list(sessions)
                for epoch, sessions in checkpoint.buffers.items()
            }
            logger.info(
                "service %s resumed at epoch %s (cursor=%d, emitted=%d)",
                self.service_id, self._next_epoch, self._cursor, self.emitted,
            )
        else:
            self.service_id = uuid.uuid4().hex[:8]
            self._next_epoch: Optional[int] = None
            self._watermark: Optional[float] = None
            self._cursor = 0
            self._task_base = 0
            self.emitted = 0
            self.late_sessions = 0
            self._reducer = StreamingReducer(
                delta_tau=config.simulation.delta_tau,
                horizon=config.horizon if config.horizon is not None else 0.0,
                upload_ratio=config.simulation.upload_ratio,
            )
            self._buffers: Dict[int, List[Session]] = {}

    # -- introspection --------------------------------------------------

    @property
    def cursor(self) -> int:
        """Session records consumed so far -- pass as ``start_record``
        when re-opening the stream after :attr:`resumed`."""
        return self._cursor

    @property
    def next_epoch(self) -> Optional[int]:
        """First epoch not yet emitted (None before the first session)."""
        return self._next_epoch

    @property
    def open_epochs(self) -> List[int]:
        """Epochs with buffered sessions awaiting their close."""
        return sorted(self._buffers)

    def add_subscriber(self, subscriber: Subscriber) -> None:
        """Register ``subscriber`` for every future :class:`EpochResult`."""
        self._subscribers.append(subscriber)

    def result(self) -> SimulationResult:
        """The merge of every epoch emitted so far.

        Maintained by folding each epoch's output blocks into one
        long-lived reducer at their global task indices -- the same
        canonical fold (same float-addition sequence) the batch run
        performs, which is why, under a fixed ``horizon``, this equals
        ``Simulator(config.scoped_config).run(trace)`` bit for bit
        once the stream is exhausted.
        """
        return self._reducer.snapshot_result()

    def close(self) -> None:
        """Release the owned simulator's backend resources."""
        if self._owns_sim:
            self._sim.close()

    # -- ingestion ------------------------------------------------------

    def ingest(self, session: Session) -> None:
        """Consume one session; closes (and emits) any epoch whose
        horizon the watermark has passed."""
        self._cursor += 1
        epoch = self._policy.epoch_of(session.start)
        if self._next_epoch is None:
            # Anchor the epoch sequence at the stream's first session
            # (minus the lateness slack), so feeds with wall-clock
            # timestamps don't open thousands of empty epochs at t=0.
            self._next_epoch = self._policy.epoch_of(
                max(0.0, session.start - self.config.allowed_lateness)
            )
        if epoch < self._next_epoch:
            self.late_sessions += 1
            if self.config.late_policy == "error":
                raise RuntimeError(
                    f"session {session.session_id} arrived for epoch {epoch} "
                    f"after it closed (next open epoch: {self._next_epoch})"
                )
            logger.warning(
                "dropping late session %d (epoch %d closed; %d late so far)",
                session.session_id, epoch, self.late_sessions,
            )
        else:
            self._buffers.setdefault(epoch, []).append(session)
        if self._watermark is None or session.start > self._watermark:
            self._watermark = session.start
        self._drain_ready()

    def run(self, sessions: Iterable[Session], *, flush: bool = True) -> None:
        """Ingest a stream until it ends; optionally flush open epochs.

        The stream may be unbounded (:func:`follow_jsonl`); this
        returns when it does.  ``flush`` closes every still-open epoch
        at end-of-stream -- terminal for those epochs, so only flush
        streams that are actually over.
        """
        for session in sessions:
            self.ingest(session)
        if flush:
            self.flush()

    def flush(self) -> None:
        """Close every epoch with buffered sessions (end-of-stream)."""
        while self._buffers:
            self._close_epoch(self._next_epoch)

    # -- epoch machinery ------------------------------------------------

    def _drain_ready(self) -> None:
        if self._next_epoch is None or self._watermark is None:
            return
        while (
            self._watermark
            >= self._policy.epoch_bounds(self._next_epoch)[1]
            + self.config.allowed_lateness
        ):
            self._close_epoch(self._next_epoch)

    def _epoch_horizon(self, epoch: int, sessions: List[Session]) -> float:
        if self.config.horizon is not None:
            return self.config.horizon
        _, end = self._policy.epoch_bounds(epoch)
        latest_end = max((s.end for s in sessions), default=end)
        return max(end, latest_end)

    def _close_epoch(self, epoch: int) -> None:
        """Simulate one epoch, emit its delta, advance the checkpoint."""
        sessions = self._buffers.pop(epoch, [])
        start, end = self._policy.epoch_bounds(epoch)
        horizon = self._epoch_horizon(epoch, sessions)
        config = self._sim.config
        delta_reducer = StreamingReducer(
            delta_tau=config.delta_tau,
            horizon=horizon,
            upload_ratio=config.upload_ratio,
        )
        backend = self._sim.backend
        # Stable per-epoch job naming: a coordinator killed mid-epoch
        # and restarted re-attaches to this job's acked on-disk state
        # instead of re-running finished work (distributed backend only).
        token_set = hasattr(backend, "job_token")
        if token_set:
            backend.job_token = f"svc-{self.service_id}-epoch-{epoch:08d}"
        try:
            plan = self._sim.grouping.plan(iter(sessions), horizon, config.policy)
            try:
                count = len(plan)
                for block_start, block in backend.iter_outputs(plan, config):
                    delta_reducer.add(block_start, block)
                    self._reducer.add(self._task_base + block_start, block)
            finally:
                plan.cleanup()
        finally:
            if token_set:
                backend.job_token = None
        if delta_reducer.outputs_folded != count:
            raise RuntimeError(
                f"epoch {epoch}: backend delivered "
                f"{delta_reducer.outputs_folded} outputs for {count} tasks"
            )
        self._task_base += count
        self._reducer.advance_horizon(horizon)
        delta = delta_reducer.result()
        event = EpochResult(
            epoch=epoch,
            epoch_start=start,
            epoch_end=end,
            horizon=horizon,
            sessions=len(sessions),
            delta=delta,
        )
        self._next_epoch = epoch + 1
        self.emitted += 1
        logger.info(
            "epoch %d closed: %d sessions, %d swarms, offload %.3f",
            epoch, len(sessions), len(delta.per_swarm), delta.offload_fraction(),
        )
        # Emission before checkpoint: a crash in between replays the
        # epoch on restart, and durable subscribers deduplicate by
        # epoch index (the replayed delta is deterministic, hence
        # identical).  Checkpoint-then-emit would instead *drop* the
        # epoch -- a gap, which nothing downstream could repair.
        for subscriber in self._subscribers:
            subscriber(event)
        faults.crash_point("service.emitted")
        self._write_checkpoint()
        faults.crash_point("service.checkpointed")

    def _write_checkpoint(self) -> None:
        ServiceCheckpoint(
            config=self.config,
            service_id=self.service_id,
            next_epoch=self._next_epoch,
            watermark=self._watermark,
            cursor=self._cursor,
            task_base=self._task_base,
            emitted=self.emitted,
            late_sessions=self.late_sessions,
            reducer=self._reducer,
            buffers={e: list(s) for e, s in self._buffers.items()},
        ).save(self.state_dir)


def _results_identity(config: ServiceConfig) -> ServiceConfig:
    """``config`` with its simulation's execution-only fields defaulted."""
    return replace(config, simulation=config.simulation.results_config())


# ----------------------------------------------------------------------
# Convenience driver
# ----------------------------------------------------------------------


def serve_jsonl(
    feed_path: Union[str, Path],
    state_dir: Union[str, Path],
    config: ServiceConfig,
    *,
    sink_path: Optional[Union[str, Path]] = None,
    subscribers: Iterable[Subscriber] = (),
    poll_interval: float = 0.2,
    idle_timeout: Optional[float] = None,
    stop: Optional[Callable[[], bool]] = None,
    flush: bool = True,
) -> SimulationService:
    """Follow a live JSONL feed through a (possibly resumed) service.

    Builds a :class:`SimulationService` over ``state_dir`` (resuming
    from its checkpoint when one exists), attaches a durable
    :class:`JsonlSink` at ``sink_path`` (default:
    ``state_dir/results.jsonl``), and tails ``feed_path`` from the
    service's stream cursor.  Returns the service -- with its final
    cumulative :meth:`~SimulationService.result` available -- once the
    feed ends (``trace-end`` marker, ``stop()``, or ``idle_timeout``).
    """
    service = SimulationService(config, state_dir, subscribers=subscribers)
    sink = JsonlSink(
        sink_path if sink_path is not None else Path(state_dir) / "results.jsonl"
    )
    service.add_subscriber(sink)
    try:
        service.run(
            follow_jsonl(
                feed_path,
                poll_interval=poll_interval,
                idle_timeout=idle_timeout,
                stop=stop,
                start_record=service.cursor,
            ),
            flush=flush,
        )
    finally:
        service.close()
    return service
