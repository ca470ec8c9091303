"""Grouping strategies: how a session stream becomes swarm tasks.

``run_stream``'s "never materialize the trace" promise used to end at
the grouping step: :func:`~repro.sim.kernel.build_tasks` held every
per-swarm session list in the coordinator while partitioning the
stream, so coordinator memory stayed O(sessions) no matter how bounded
the reduction was.  This module makes grouping pluggable:

* :class:`MemoryGrouping` (``grouping="memory"``, the default) -- the
  historical dict-of-lists grouping, unchanged results, O(sessions)
  coordinator memory.  Right for laptop-scale traces.
* :class:`ExternalGrouping` (``grouping="external"``) -- out-of-core
  grouping by external merge-sort (:mod:`repro.trace.store`): each
  session is mapped once to a group id (one per distinct
  :class:`~repro.sim.policies.SwarmKey`), spills to sorted runs of at
  most ``run_sessions`` each, and the runs k-way merge into one
  globally sorted shard file ordered by ``(SwarmKey.sort_key, start,
  session_id)``; a :class:`~repro.trace.store.ShardManifest` maps each
  swarm to its ``(file, offset, length)`` extent.  Coordinator
  grouping memory is O(``run_sessions``), independent of trace size.

Both strategies produce a :class:`TaskPlan` -- the lazy interface
backends consume instead of a materialized task list.  A plan knows its
task count and per-task session counts (for shard balancing), can
iterate :class:`~repro.sim.kernel.SwarmTask` values lazily, and
exposes picklable *task refs* for shipping to worker processes:

* a memory plan's refs are the tasks themselves (sessions and all);
* an external plan's refs are :class:`ExtentTaskRef` values -- just
  ``(path, index, count, key, horizon)`` -- and the worker opens the
  shard file and decodes its own sessions
  (:func:`repro.trace.store.shared_reader`), eliminating the
  coordinator -> worker session-pickling hot path.

Determinism: the external sort key extends the canonical task order
(sorted swarm key, then ``(start, session_id)`` within a swarm) to a
total order over sessions, and the sort/merge is deterministic, so both
strategies yield *identical* task sequences -- every backend x
reduction mode is bit-for-bit equal under either grouping.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.sim.kernel import SwarmTask, build_tasks
from repro.sim.policies import SwarmKey, SwarmPolicy
from repro.trace.events import Session
from repro.trace.store import (
    STORE_VERSION,
    Extent,
    ExternalGroupSorter,
    ShardManifest,
    evict_reader,
    load_manifest,
    save_manifest,
    shared_reader,
)

__all__ = [
    "GROUPING_MODES",
    "GroupingStats",
    "TaskPlan",
    "MemoryTaskPlan",
    "ExternalTaskPlan",
    "ExtentTaskRef",
    "GroupingStrategy",
    "MemoryGrouping",
    "ExternalGrouping",
    "plan_handoff",
    "resolve_grouping",
    "as_task_plan",
]

#: Selectable grouping modes -- the single source of truth consumed by
#: ``SimulationConfig`` validation and the CLI's ``--grouping`` choices.
GROUPING_MODES = ("memory", "external")


@dataclass(frozen=True)
class GroupingStats:
    """What one grouping pass actually did, for benchmarks and tests.

    Attributes:
        mode: one of :data:`GROUPING_MODES`.
        tasks: swarm tasks produced.
        sessions: sessions grouped.
        peak_buffered_sessions: most sessions ever resident in the
            coordinator during grouping.  Memory grouping reports the
            full session count (everything is resident by
            construction); external grouping is bounded by its
            ``run_sessions`` buffer no matter the trace size -- the
            number benchmarks assert flatness of.
        runs_spilled: sorted runs written to disk (external only).
        shard_path: the sorted shard file (external only; ``None``
            after a temporary shard directory is cleaned up).
        cache_hit: whether this plan came from the content-addressed
            shard cache (``True``: the manifest was reused and the
            session stream was **never consumed** -- no re-sort, no
            re-write; ``False``: the cache was consulted and populated;
            ``None``: caching was not in play -- no cache token, or no
            persistent ``shard_dir``).
    """

    mode: str
    tasks: int
    sessions: int
    peak_buffered_sessions: int
    runs_spilled: int = 0
    shard_path: Optional[str] = None
    cache_hit: Optional[bool] = None


@dataclass(frozen=True)
class ExtentTaskRef:
    """A picklable handle to one swarm task stored in a shard file.

    The unit of zero-copy handoff: five scalar-ish fields instead of a
    pickled tuple of thousands of sessions.  Workers resolve the ref by
    opening the (immutable) shard file through the per-process reader
    cache and decoding only their own byte extent.
    """

    path: str
    index: int
    count: int
    key: "SwarmKey"
    horizon: float

    @property
    def num_sessions(self) -> int:
        """Session count (for shard balancing without decoding)."""
        return self.count

    def materialize(self) -> SwarmTask:
        """Decode the task's sessions from the shard file."""
        sessions = shared_reader(self.path).read_range(self.index, self.count)
        return SwarmTask(
            key=self.key, sessions=tuple(sessions), horizon=self.horizon
        )

    def read_raw(self) -> bytes:
        """The extent's raw 56 B records, validated, straight off disk.

        The zero-object handoff: the compiled fused decoder
        (``_ckernel.decode_build``) parses these bytes directly into
        packed schedule columns -- no ``Session`` objects anywhere.
        """
        return shared_reader(self.path).read_raw_range(self.index, self.count)


class TaskPlan(ABC):
    """A lazily consumable, canonically ordered set of swarm tasks.

    The contract between grouping strategies and execution backends:
    the plan knows how many tasks exist and how many sessions each
    carries (so backends can balance shards without decoding anything),
    yields tasks lazily in canonical order, and hands out cheap
    picklable refs for cross-process shipping.
    """

    @abstractmethod
    def __len__(self) -> int:
        """Number of swarm tasks."""

    @property
    @abstractmethod
    def session_counts(self) -> Sequence[int]:
        """Per-task session counts, aligned with task order."""

    @abstractmethod
    def iter_tasks(self) -> Iterator[SwarmTask]:
        """Yield every task in canonical order, decoding lazily."""

    @abstractmethod
    def refs(self) -> Sequence[object]:
        """Picklable per-task refs (tasks themselves, or extent refs)."""

    @abstractmethod
    def stats(self) -> GroupingStats:
        """How this plan was built (see :class:`GroupingStats`)."""

    def cleanup(self) -> None:
        """Release any resources the plan owns (temp shards, readers)."""


class MemoryTaskPlan(TaskPlan):
    """The materialized plan: a list of fully resident tasks."""

    def __init__(
        self, tasks: Sequence[SwarmTask], peak_buffered: Optional[int] = None
    ) -> None:
        self._tasks = list(tasks)
        self._counts = [len(task.sessions) for task in self._tasks]
        self._peak = (
            peak_buffered if peak_buffered is not None else sum(self._counts)
        )

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def session_counts(self) -> Sequence[int]:
        return self._counts

    def iter_tasks(self) -> Iterator[SwarmTask]:
        return iter(self._tasks)

    def refs(self) -> Sequence[SwarmTask]:
        return self._tasks

    def stats(self) -> GroupingStats:
        return GroupingStats(
            mode="memory",
            tasks=len(self._tasks),
            sessions=sum(self._counts),
            peak_buffered_sessions=self._peak,
        )


class ExternalTaskPlan(TaskPlan):
    """A plan backed by a sorted shard file and its manifest.

    Holds only the manifest (one small :class:`~repro.trace.store.\
    Extent` per swarm); sessions are decoded on demand --
    :meth:`iter_tasks` one extent at a time in the coordinator, or
    worker-side via the :class:`ExtentTaskRef` values :meth:`refs`
    exposes.  When the plan owns its shard directory (the engine's
    run-scoped temporary default), :meth:`cleanup` deletes it.
    """

    def __init__(
        self,
        manifest: ShardManifest,
        *,
        runs_spilled: int = 0,
        peak_buffered: int = 0,
        owned_dir: Optional[Path] = None,
        cache_hit: Optional[bool] = None,
    ) -> None:
        self.manifest = manifest
        self._counts = [extent.count for extent in manifest.extents]
        self._runs_spilled = runs_spilled
        self._peak = peak_buffered
        self._owned_dir = owned_dir
        self._cache_hit = cache_hit
        self._removed = False

    def __len__(self) -> int:
        return len(self.manifest.extents)

    @property
    def session_counts(self) -> Sequence[int]:
        return self._counts

    def iter_tasks(self) -> Iterator[SwarmTask]:
        for ref in self.refs():
            yield ref.materialize()

    def refs(self) -> List[ExtentTaskRef]:
        manifest = self.manifest
        return [
            ExtentTaskRef(
                path=manifest.path,
                index=extent.index,
                count=extent.count,
                key=extent.key,  # type: ignore[arg-type] - grouping stores SwarmKeys
                horizon=manifest.horizon,
            )
            for extent in manifest.extents
        ]

    def stats(self) -> GroupingStats:
        return GroupingStats(
            mode="external",
            tasks=len(self),
            sessions=sum(self._counts),
            peak_buffered_sessions=self._peak,
            runs_spilled=self._runs_spilled,
            # A removed temporary shard must not be advertised; an
            # explicit shard_dir's shard survives cleanup and is.
            shard_path=None if self._removed else self.manifest.path,
            cache_hit=self._cache_hit,
        )

    def cleanup(self) -> None:
        """Evict the cached reader; delete the shard dir if owned."""
        evict_reader(self.manifest.path)
        if self._owned_dir is not None and not self._removed:
            shutil.rmtree(self._owned_dir, ignore_errors=True)
            self._removed = True


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


class GroupingStrategy(ABC):
    """How a session stream is partitioned into a :class:`TaskPlan`."""

    #: Stable identifier, usable as ``SimulationConfig(grouping=...)``.
    name: str = "abstract"

    #: Whether :meth:`plan` can reuse content-addressed cache entries
    #: (checked by the engine before paying for a trace fingerprint).
    supports_cache: bool = False

    @abstractmethod
    def plan(
        self,
        sessions: Iterable[Session],
        horizon: float,
        policy: SwarmPolicy,
        cache_token: Optional[str] = None,
    ) -> TaskPlan:
        """Consume the stream once; return the canonical task plan.

        Args:
            sessions: the session stream (any order).
            horizon: trace length in seconds.
            policy: the swarm scoping policy.
            cache_token: optional content fingerprint of the stream
                (e.g. :func:`repro.trace.store.trace_fingerprint`).
                Strategies with a persistent shard store may use it to
                return a cached plan **without consuming the stream**;
                strategies without a cache ignore it.

        Raises:
            ValueError: if ``horizon <= 0`` or a session ends after it
                (the same contract as
                :func:`~repro.sim.kernel.build_tasks`).
        """


class MemoryGrouping(GroupingStrategy):
    """Group in coordinator memory (the historical ``build_tasks``)."""

    name = "memory"

    def plan(
        self,
        sessions: Iterable[Session],
        horizon: float,
        policy: SwarmPolicy,
        cache_token: Optional[str] = None,
    ) -> TaskPlan:
        return MemoryTaskPlan(build_tasks(sessions, horizon, policy))


class ExternalGrouping(GroupingStrategy):
    """Group out-of-core via external merge-sort, with a shard cache.

    Args:
        shard_dir: where run files, the sorted shard and its manifest
            live.  ``None`` (the default) uses a run-scoped temporary
            directory that the plan deletes on cleanup; an explicit
            directory keeps ``shard.store`` for out-of-core consumers
            **and enables the content-addressed cache**.
        run_sessions: sort-buffer size -- the coordinator's peak
            resident session count during grouping.  Smaller bounds
            memory tighter at the cost of more spilled runs.

    The cache: with a persistent ``shard_dir`` and a caller-supplied
    ``cache_token`` (a :func:`repro.trace.store.trace_fingerprint` of
    the stream), each distinct (trace fingerprint, policy, store
    version, horizon) gets its own ``cache-<digest>/`` directory
    holding the sorted shard and a JSON manifest.  A later plan call
    with the same key -- in this process or any other -- loads the
    manifest and returns **without consuming the session stream**: no
    re-sort, no re-write, just one footer read to validate the shard.
    Entries are published atomically (build in a temp dir, rename), so
    concurrent builders race benignly: one wins, the other uses the
    winner's entry.
    """

    name = "external"

    #: Name of the sorted shard file inside the shard directory.
    SHARD_FILENAME = "shard.store"

    #: Name of the persisted manifest inside a cache entry.
    MANIFEST_FILENAME = "manifest.json"

    def __init__(
        self,
        shard_dir: Optional[Union[str, Path]] = None,
        run_sessions: int = 100_000,
    ) -> None:
        if run_sessions < 1:
            raise ValueError(f"run_sessions must be >= 1, got {run_sessions!r}")
        self.shard_dir = Path(shard_dir) if shard_dir is not None else None
        self.run_sessions = run_sessions

    @property
    def supports_cache(self) -> bool:
        """True when a persistent ``shard_dir`` makes caching possible."""
        return self.shard_dir is not None

    def _cache_digest(
        self, cache_token: str, policy: SwarmPolicy, horizon: float
    ) -> str:
        """The content address of one (trace, policy, format) triple."""
        policy_fingerprint = (
            f"{type(policy).__module__}.{type(policy).__qualname__}:{policy!r}"
        )
        blob = json.dumps(
            {
                "trace": cache_token,
                "policy": policy_fingerprint,
                "store_version": STORE_VERSION,
                "horizon": horizon,
            },
            sort_keys=True,
        )
        return hashlib.blake2b(blob.encode("utf-8"), digest_size=12).hexdigest()

    def _load_cached(self, cache_dir: Path) -> Optional[ExternalTaskPlan]:
        """A plan from a published cache entry, or None if absent/corrupt."""
        manifest_path = cache_dir / self.MANIFEST_FILENAME
        if not manifest_path.exists():
            return None
        try:
            manifest, _meta = load_manifest(
                manifest_path, key_decoder=_decode_swarm_key
            )
        except (OSError, ValueError, KeyError, TypeError):
            # A torn or stale entry is treated as a miss; the rebuild
            # republishes it.
            return None
        return ExternalTaskPlan(manifest, owned_dir=None, cache_hit=True)

    def plan(
        self,
        sessions: Iterable[Session],
        horizon: float,
        policy: SwarmPolicy,
        cache_token: Optional[str] = None,
    ) -> TaskPlan:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon!r}")
        cache_dir: Optional[Path] = None
        if cache_token is not None and self.shard_dir is not None:
            digest = self._cache_digest(cache_token, policy, horizon)
            cache_dir = self.shard_dir / f"cache-{digest}"
            cached = self._load_cached(cache_dir)
            if cached is not None:
                return cached
        if self.shard_dir is not None:
            self.shard_dir.mkdir(parents=True, exist_ok=True)
            work_dir = Path(tempfile.mkdtemp(prefix="group-", dir=self.shard_dir))
            owned_dir = None
        else:
            work_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
            owned_dir = work_dir

        try:
            sorter = ExternalGroupSorter(work_dir, run_sessions=self.run_sessions)
            keys: List[SwarmKey] = []
            ids: Dict[SwarmKey, int] = {}

            def group_of(session: Session) -> int:
                """The session's group id: one per distinct swarm key."""
                key = policy.key_for(session)
                group = ids.get(key)
                if group is None:
                    group = ids[key] = sorter.group(key.sort_key())
                    keys.append(key)
                return group

            # A batch swarm key is a pure function of (content_id, isp,
            # bitrate), so it is computed once per distinct triple; a
            # time-scoped policy (EpochPolicy) also keys on the start
            # time, so it pays one key_for call per session.
            memo: Optional[Dict[tuple, int]] = (
                None if getattr(policy, "time_scoped", False) else {}
            )
            add = sorter.add
            latest_end = 0.0
            for session in sessions:
                if memo is None:
                    group = group_of(session)
                else:
                    fields = session.content_id, session.attachment.isp, session.bitrate
                    group = memo.get(fields)
                    if group is None:
                        group = memo[fields] = group_of(session)
                add(group, session)
                end = session.start + session.duration
                if end > latest_end:
                    latest_end = end
            if latest_end > horizon:
                raise ValueError(
                    f"horizon {horizon} shorter than last session end {latest_end}"
                )

            shard_path = work_dir / self.SHARD_FILENAME
            extents = [
                Extent(key=keys[group], index=index, count=count)
                for group, index, count in sorter.write(shard_path, horizon)
            ]
            manifest = ShardManifest(
                path=str(shard_path), horizon=horizon, extents=tuple(extents)
            )
            stats = sorter.stats
            if cache_dir is not None:
                manifest = self._publish(manifest, work_dir, cache_dir, cache_token)
            return ExternalTaskPlan(
                manifest,
                runs_spilled=stats.runs_spilled,
                peak_buffered=stats.peak_buffered,
                owned_dir=owned_dir,
                cache_hit=False if cache_dir is not None else None,
            )
        except BaseException:
            # Never leak a half-built shard directory on failure.
            shutil.rmtree(work_dir, ignore_errors=True)
            raise

    def _publish(
        self,
        manifest: ShardManifest,
        work_dir: Path,
        cache_dir: Path,
        cache_token: str,
    ) -> ShardManifest:
        """Atomically promote a freshly built shard into the cache.

        Writes the manifest beside the shard (shard referenced
        relatively, so the entry is relocatable), then renames the
        build directory to its content address.  If another process
        published first, the rename fails and *their* entry wins -- we
        discard our build and return their manifest, keeping exactly
        one shard per content address on disk.  Returns the manifest
        pointing at wherever the shard finally lives.
        """
        try:
            save_manifest(
                manifest,
                work_dir / self.MANIFEST_FILENAME,
                key_encoder=_encode_swarm_key,
                meta={"trace_fingerprint": cache_token},
            )
        except TypeError:
            # A custom policy with non-SwarmKey keys: usable shard, not
            # cacheable -- leave it in the work dir, skip publication.
            return manifest
        try:
            work_dir.rename(cache_dir)
        except OSError:
            published = self._load_cached(cache_dir)
            if published is not None:
                evict_reader(manifest.path)
                shutil.rmtree(work_dir, ignore_errors=True)
                return published.manifest
            return manifest  # rename failed, no usable winner: keep ours
        return ShardManifest(
            path=str(cache_dir / self.SHARD_FILENAME),
            horizon=manifest.horizon,
            extents=manifest.extents,
        )


def _encode_swarm_key(key: object) -> Dict:
    """JSON codec (encode half) for manifest extent keys."""
    if not isinstance(key, SwarmKey):
        raise TypeError(f"cannot persist non-SwarmKey extent key: {key!r}")
    payload = {
        "content_id": key.content_id,
        "isp": key.isp,
        "bitrate_class": key.bitrate_class,
    }
    # Written only for time-scoped keys, so manifests from batch
    # policies keep their historical shape (and digest inputs).
    if key.epoch is not None:
        payload["epoch"] = key.epoch
    return payload


def _decode_swarm_key(payload: Dict) -> SwarmKey:
    """JSON codec (decode half) for manifest extent keys."""
    return SwarmKey(
        content_id=payload["content_id"],
        isp=payload.get("isp"),
        bitrate_class=payload.get("bitrate_class"),
        epoch=payload.get("epoch"),
    )


def plan_handoff(plan: TaskPlan) -> Dict[str, object]:
    """A JSON-able description of where a plan's task data lives.

    The grouping half of the distributed handoff: the coordinator
    writes this next to each distributed job's work items
    (``plan.json``) so operators -- and workers on other hosts -- can
    see what storage the task refs point into.  Memory plans carry
    their sessions inside the refs ("shard": None); external plans
    reference the sorted shard file, which must be reachable at the
    same path on every worker host (shared storage), exactly like the
    :class:`ExtentTaskRef` values workers resolve.
    """
    stats = plan.stats()
    payload: Dict[str, object] = {
        "mode": stats.mode,
        "tasks": stats.tasks,
        "sessions": stats.sessions,
        "shard": None,
    }
    manifest = getattr(plan, "manifest", None)
    if manifest is not None:
        payload["shard"] = {
            "path": manifest.path,
            "horizon": manifest.horizon,
            "extents": len(manifest.extents),
        }
    return payload


def resolve_grouping(
    grouping: Optional[str] = None, shard_dir: Optional[str] = None
) -> GroupingStrategy:
    """Pick a strategy from ``SimulationConfig(grouping=..., shard_dir=...)``.

    ``None`` and ``"memory"`` select the in-memory grouping;
    ``"external"`` the out-of-core merge-sort (spilling under
    ``shard_dir``, or a run-scoped temporary directory when unset).
    """
    if grouping is None or grouping == MemoryGrouping.name:
        return MemoryGrouping()
    if grouping == ExternalGrouping.name:
        return ExternalGrouping(shard_dir=shard_dir)
    raise ValueError(
        f"unknown grouping {grouping!r}; choose from {', '.join(GROUPING_MODES)}"
    )


def as_task_plan(tasks: Union[TaskPlan, Sequence[SwarmTask]]) -> TaskPlan:
    """Normalize a backend argument into a :class:`TaskPlan`.

    Backends accept either a plan (the engine's path) or a plain task
    sequence (the historical API, kept for tests and direct callers).
    """
    if isinstance(tasks, TaskPlan):
        return tasks
    return MemoryTaskPlan(tasks)
