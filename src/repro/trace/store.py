"""Out-of-core session storage: a compact binary columnar trace format.

The paper's headline workload is a month of London catch-up TV -- 23.5M
sessions from 3.3M users (Table I).  At that scale a trace does not fit
in coordinator RAM as Python objects (a :class:`~repro.trace.events.\
Session` costs hundreds of bytes; the packed record below costs 56), so
this module provides the disk substrate the out-of-core pipeline stands
on:

* :class:`StoreWriter` / :class:`StoreReader` -- an append-only binary
  session file: fixed-width struct-packed numeric columns plus interned
  string tables for ``content_id`` / ``isp`` / ``device`` (and, via the
  interned :class:`~repro.topology.nodes.AttachmentPoint` flyweights,
  one attachment object per distinct (ISP, PoP, exchange) triple on
  read-back).  Records are fixed size, so any contiguous extent of
  sessions is addressable as ``(offset, length)`` byte ranges and a
  worker process can decode *its own* sessions straight from the file
  instead of receiving them pickled from the coordinator.
* :class:`ExternalGroupSorter` -- a classic external merge-sort into
  group order: each session is packed once into a plain tuple under
  a caller-assigned group id, bounded runs are sorted and spilled as
  internal fixed-width run files, and a k-way merge (``heapq.merge``)
  writes one globally sorted store.  Group orders are supplied by the
  caller (the simulator passes ``SwarmKey.sort_key()``), so the module
  stays independent of the simulation layer.
* :class:`Extent` / :class:`ShardManifest` -- the map from each group
  (swarm) to its ``(file, offset, length)`` extent in a sorted store,
  the unit of zero-copy handoff to workers.
* :func:`shared_reader` -- a per-process cache of open readers so a
  worker decoding many extents of the same shard file pays one open /
  one string-table parse, with thread-safe positional reads
  (``os.pread``) underneath.

Everything round-trips losslessly: floats are stored as IEEE-754
doubles, so a session read back from a store compares equal -- bit for
bit -- to the one written.
"""

from __future__ import annotations

import errno
import hashlib
import heapq
import json
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sim import faults
from repro.topology.nodes import intern_attachment
from repro.trace.events import Session

__all__ = [
    "RECORD_SIZE",
    "STORE_VERSION",
    "StoreCorruptionError",
    "StoreWriter",
    "StoreReader",
    "Extent",
    "ShardManifest",
    "ExternalGroupSorter",
    "SorterStats",
    "shared_reader",
    "evict_reader",
    "clear_reader_cache",
    "trace_fingerprint",
    "file_fingerprint",
    "save_manifest",
    "load_manifest",
]

#: File layout:  [header][records...][footer JSON][tail]
#:   header = magic (4 bytes) + version (u32 LE)
#:   record = the fixed-width struct below, one per session
#:   footer = UTF-8 JSON: record count, horizon, string tables
#:   tail   = footer byte offset (u64 LE) + magic (4 bytes)
_MAGIC = b"RPSS"
_VERSION = 1
_HEADER = struct.Struct("<4sI")
_TAIL = struct.Struct("<Q4s")

#: The on-disk format version, exported for cache keying: a cached
#: shard + manifest is only reusable by a process that writes (and
#: reads) the identical record layout, so content-addressed cache keys
#: must include this number -- bumping ``_VERSION`` automatically
#: invalidates every cache entry built by older code.
STORE_VERSION = _VERSION

#: One session: session_id, user_id, content ref, start, duration,
#: bitrate, isp ref, pop, exchange, device ref.  Little-endian, packed
#: (no padding) -- 56 bytes.
_RECORD = struct.Struct("<qqIdddHIIH")
RECORD_SIZE = _RECORD.size

#: Sequential readers and the sorted-store writer move this many
#: records per file read or write.
_CHUNK_RECORDS = 4096


class StoreCorruptionError(ValueError):
    """A store file's bytes do not match its self-description.

    Raised when a file fails structural validation: bad magic, an
    unsupported version, a tail pointing outside the file, a record
    region whose size disagrees with the footer's record count, or an
    extent read that comes back short.  Subclasses :class:`ValueError`
    so existing ``except ValueError`` call sites keep working.
    """


class _StringTable:
    """Order-preserving string interner for one store file."""

    __slots__ = ("_index", "values")

    def __init__(self, values: Optional[Sequence[str]] = None) -> None:
        self.values: List[str] = list(values or [])
        self._index: Dict[str, int] = {v: i for i, v in enumerate(self.values)}

    def ref(self, value: str) -> int:
        """Return the ref for ``value``, interning it on first encounter."""
        index = self._index.get(value)
        if index is None:
            index = self._index[value] = len(self.values)
            self.values.append(value)
        return index


class StoreWriter:
    """Append-only writer of the binary session format.

    Records are written in :meth:`append` order; string tables are
    collected incrementally and written into the footer at
    :meth:`close`.  A file is unreadable until closed (the footer is
    what makes it self-describing) -- use the context-manager form,
    which writes the footer only when the body completes (after an
    exception the file is closed footerless, so readers reject it)::

        with StoreWriter(path, horizon) as writer:
            for session in sessions:
                writer.append(session)

    Args:
        path: output file path (parent directories are created).
        horizon: trace horizon in seconds, stored in the footer so
            round-trips are lossless; 0.0 marks "not recorded".
    """

    def __init__(self, path: Union[str, Path], horizon: float = 0.0) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon!r}")
        self.path = Path(path)
        self.horizon = horizon
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "wb")
        self._file.write(_HEADER.pack(_MAGIC, _VERSION))
        self._content = _StringTable()
        self._isp = _StringTable()
        self._device = _StringTable()
        self._count = 0
        self._closed = False

    @property
    def records_written(self) -> int:
        """Sessions appended so far."""
        return self._count

    def append(self, session: Session) -> int:
        """Write one session; returns its record index in the file."""
        if self._closed:
            raise RuntimeError(f"store {self.path} is closed")
        self._file.write(
            _RECORD.pack(
                session.session_id,
                session.user_id,
                self._content.ref(session.content_id),
                session.start,
                session.duration,
                session.bitrate,
                self._isp.ref(session.attachment.isp),
                session.attachment.pop,
                session.attachment.exchange,
                self._device.ref(session.device),
            )
        )
        index = self._count
        self._count += 1
        return index

    def append_fields(
        self,
        session_id: int,
        user_id: int,
        content_id: str,
        start: float,
        duration: float,
        bitrate: float,
        isp: str,
        pop: int,
        exchange: int,
        device: str = "unknown",
    ) -> int:
        """Write one session from raw field values; returns its record index.

        The zero-object ingest entry point: bulk producers (the
        generative synthesizer, third-party importers) pack the 56 B
        record straight from scalars, never constructing a
        :class:`~repro.trace.events.Session`.  Field semantics and
        validation mirror ``Session`` exactly, so ``append_fields(...)``
        and ``append(Session(...))`` write identical bytes.
        """
        if self._closed:
            raise RuntimeError(f"store {self.path} is closed")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start!r}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration!r}")
        if bitrate <= 0:
            raise ValueError(f"bitrate must be > 0, got {bitrate!r}")
        if not content_id:
            raise ValueError("content_id must be non-empty")
        self._file.write(
            _RECORD.pack(
                session_id,
                user_id,
                self._content.ref(content_id),
                start,
                duration,
                bitrate,
                self._isp.ref(isp),
                pop,
                exchange,
                self._device.ref(device),
            )
        )
        index = self._count
        self._count += 1
        return index

    def close(self) -> None:
        """Write the footer and tail; the file becomes readable."""
        if self._closed:
            return
        footer = json.dumps(
            {
                "version": _VERSION,
                "records": self._count,
                "horizon": self.horizon,
                "content": self._content.values,
                "isp": self._isp.values,
                "device": self._device.values,
            }
        ).encode("utf-8")
        footer_offset = _HEADER.size + self._count * RECORD_SIZE
        self._file.write(footer)
        self._file.write(_TAIL.pack(footer_offset, _MAGIC))
        self._file.close()
        self._closed = True

    def _append_packed(self, records: List[bytes]) -> None:
        """Write packed records whose string refs come from this writer."""
        if self._closed:
            raise RuntimeError(f"store {self.path} is closed")
        self._file.write(b"".join(records))
        self._count += len(records)

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            # A failed body leaves no footer: a store holding only a
            # prefix of its records must never open as complete.
            self._file.close()
            self._closed = True


def _pread_exact(path: Path, descriptor: int, length: int, offset: int) -> bytes:
    """Exactly ``length`` bytes at ``offset``, via the fault-injectable facade.

    Every positional read of a store or run file goes through here (fault
    site ``store.pread``).  A short read of a complete file is treated as
    transient (EIO territory on flaky shared storage) so the retry loop
    gets a shot; one that persists means the file is corrupt.
    """

    def pread() -> bytes:
        buffer = faults.storage().pread(descriptor, length, offset, site="store.pread")
        if len(buffer) != length:
            raise OSError(
                errno.EIO,
                f"short read at byte {offset} (got {len(buffer)} of {length} bytes)",
            )
        return buffer

    try:
        return faults.retrying("store.pread", pread)
    except OSError as error:
        raise StoreCorruptionError(f"{path}: {error}") from error


class StoreReader:
    """Random-access reader of a closed store file.

    Reads go through ``os.pread`` (positional, no shared seek pointer),
    so one reader instance may serve many threads concurrently -- the
    property the shared reader cache relies on.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fd = os.open(self.path, os.O_RDONLY)
        try:
            size = os.fstat(self._fd).st_size
            if size < _HEADER.size + _TAIL.size:
                raise StoreCorruptionError(
                    f"{self.path}: not a session store (truncated)"
                )
            magic, version = _HEADER.unpack(os.pread(self._fd, _HEADER.size, 0))
            if magic != _MAGIC:
                raise StoreCorruptionError(
                    f"{self.path}: not a session store (bad magic)"
                )
            if version != _VERSION:
                raise StoreCorruptionError(
                    f"{self.path}: unsupported store version {version} "
                    f"(expected {_VERSION})"
                )
            footer_offset, tail_magic = _TAIL.unpack(
                os.pread(self._fd, _TAIL.size, size - _TAIL.size)
            )
            if tail_magic != _MAGIC or footer_offset > size - _TAIL.size:
                raise StoreCorruptionError(f"{self.path}: corrupt store tail")
            footer_bytes = os.pread(
                self._fd, size - _TAIL.size - footer_offset, footer_offset
            )
            try:
                footer = json.loads(footer_bytes.decode("utf-8"))
                self._count: int = int(footer["records"])
                self.horizon: float = float(footer["horizon"])
                self._content: List[str] = list(footer["content"])
                self._isp: List[str] = list(footer["isp"])
                self._device: List[str] = list(footer["device"])
            except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
                # A corrupt footer_offset can land the footer range inside
                # binary record bytes; surface every shape of that as the
                # one documented corruption error.
                raise StoreCorruptionError(
                    f"{self.path}: corrupt store footer ({exc})"
                ) from exc
            # The record region must hold exactly the footer's promised
            # count.  Without this check a store missing record bytes
            # (truncation, a torn copy) would open fine and short-decode
            # extents silently.
            expected_offset = _HEADER.size + self._count * RECORD_SIZE
            if footer_offset != expected_offset:
                raise StoreCorruptionError(
                    f"{self.path}: record region is "
                    f"{footer_offset - _HEADER.size} bytes but the footer "
                    f"promises {self._count} records "
                    f"({self._count * RECORD_SIZE} bytes)"
                )
        except Exception:
            os.close(self._fd)
            raise
        self._closed = False

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        """Release the underlying file descriptor (idempotent)."""
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "StoreReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- decoding ------------------------------------------------------

    def _decode(self, buffer: bytes, count: int) -> List[Session]:
        if len(buffer) != count * RECORD_SIZE:
            raise StoreCorruptionError(
                f"{self.path}: extent holds {len(buffer)} bytes, "
                f"expected {count} records ({count * RECORD_SIZE} bytes)"
            )
        content, isp, device = self._content, self._isp, self._device
        sessions: List[Session] = []
        for fields in _RECORD.iter_unpack(buffer):
            (
                session_id,
                user_id,
                content_ref,
                start,
                duration,
                bitrate,
                isp_ref,
                pop,
                exchange,
                device_ref,
            ) = fields
            sessions.append(
                Session(
                    session_id=session_id,
                    user_id=user_id,
                    content_id=content[content_ref],
                    start=start,
                    duration=duration,
                    bitrate=bitrate,
                    attachment=intern_attachment(isp[isp_ref], pop, exchange),
                    device=device[device_ref],
                )
            )
        return sessions

    def read_raw_range(self, index: int, count: int) -> bytes:
        """Read ``count`` raw 56 B records starting at record ``index``.

        The fused-kernel handoff primitive: the compiled decoder parses
        these bytes directly, so the hot path never materializes Python
        objects (or even per-field tuples).  The returned buffer is
        validated to be exactly ``count * RECORD_SIZE`` bytes.
        """
        if index < 0 or count < 0 or index + count > self._count:
            raise ValueError(
                f"record range [{index}, {index + count}) outside "
                f"[0, {self._count})"
            )
        if count == 0:
            return b""
        return _pread_exact(
            self.path,
            self._fd,
            count * RECORD_SIZE,
            _HEADER.size + index * RECORD_SIZE,
        )

    def read_range(self, index: int, count: int) -> List[Session]:
        """Decode ``count`` sessions starting at record ``index``.

        The zero-copy handoff primitive: a worker holding only
        ``(path, index, count)`` reads exactly its own bytes.
        """
        if count == 0:
            # Still bounds-check the empty range.
            self.read_raw_range(index, count)
            return []
        return self._decode(self.read_raw_range(index, count), count)

    def iter_sessions(self) -> Iterator[Session]:
        """Yield every session in record order, chunk-buffered."""
        index = 0
        while index < self._count:
            chunk = min(_CHUNK_RECORDS, self._count - index)
            yield from self.read_range(index, chunk)
            index += chunk


# ----------------------------------------------------------------------
# Shared reader cache (one open + one footer parse per file per process)
# ----------------------------------------------------------------------

_READER_LOCK = threading.Lock()
_READER_CACHE: "OrderedDict[str, StoreReader]" = OrderedDict()

#: Most readers ever cached per process.  Long-lived pool workers see a
#: fresh temporary shard file per run; without a bound every run would
#: pin one open fd (and, once the coordinator unlinks the shard, its
#: disk space) in every worker forever.  One run touches one shard
#: file, so a small LRU keeps all the reuse and none of the leak.
_READER_CACHE_MAX = 4


def shared_reader(path: Union[str, Path]) -> StoreReader:
    """A process-wide cached :class:`StoreReader` for ``path``.

    Store files are immutable once written, so caching is safe; reads
    are positional (``os.pread``), so one cached reader serves any
    number of threads.  Workers decoding many extents of the same shard
    file hit the cache after the first open.  The cache is a small LRU
    (:data:`_READER_CACHE_MAX` entries): least-recently-used readers
    are closed on overflow, so persistent worker processes never
    accumulate open fds to long-gone shard files.
    """
    key = str(Path(path))
    evicted: List[StoreReader] = []
    with _READER_LOCK:
        reader = _READER_CACHE.get(key)
        if reader is not None:
            _READER_CACHE.move_to_end(key)
            return reader
        reader = _READER_CACHE[key] = StoreReader(key)
        while len(_READER_CACHE) > _READER_CACHE_MAX:
            _, stale = _READER_CACHE.popitem(last=False)
            evicted.append(stale)
    for stale in evicted:
        stale.close()
    return reader


def evict_reader(path: Union[str, Path]) -> None:
    """Close and drop the cached reader for ``path`` (if any)."""
    key = str(Path(path))
    with _READER_LOCK:
        reader = _READER_CACHE.pop(key, None)
    if reader is not None:
        reader.close()


def clear_reader_cache() -> None:
    """Close and drop every cached reader (tests / process teardown)."""
    with _READER_LOCK:
        readers = list(_READER_CACHE.values())
        _READER_CACHE.clear()
    for reader in readers:
        reader.close()


# ----------------------------------------------------------------------
# Extents and manifests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Extent:
    """One group's contiguous slice of a sorted store file.

    Attributes:
        key: the group's identity (the simulator stores
            :class:`~repro.sim.policies.SwarmKey` values here; this
            module only requires picklability).
        index: record index of the group's first session.
        count: number of sessions in the group.
    """

    key: object
    index: int
    count: int

    @property
    def offset(self) -> int:
        """Byte offset of the extent's first record."""
        return _HEADER.size + self.index * RECORD_SIZE

    @property
    def length(self) -> int:
        """Extent size in bytes."""
        return self.count * RECORD_SIZE


@dataclass(frozen=True)
class ShardManifest:
    """Map from every group to its ``(file, offset, length)`` extent.

    The product of external grouping: ``path`` is a store file whose
    records are globally sorted so each group occupies one contiguous
    extent, and ``extents`` lists the groups in sorted-key order --
    exactly the canonical task order the simulator folds in.
    """

    path: str
    horizon: float
    extents: Tuple[Extent, ...]

    @property
    def num_sessions(self) -> int:
        """Total sessions across all extents."""
        return sum(extent.count for extent in self.extents)

    def read_extent(self, extent: Extent) -> List[Session]:
        """Decode one extent's sessions via the shared reader cache."""
        return shared_reader(self.path).read_range(extent.index, extent.count)

    def iter_groups(self) -> Iterator[Tuple[object, List[Session]]]:
        """Yield ``(key, sessions)`` per group, in manifest order."""
        for extent in self.extents:
            yield extent.key, self.read_extent(extent)


# ----------------------------------------------------------------------
# External merge-sort
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SorterStats:
    """What one external sort actually did.

    Attributes:
        sessions: total sessions sorted.
        runs_spilled: sorted runs written to disk (0 when everything
            fit in the buffer).
        peak_buffered: most sessions ever resident in the sort buffer
            -- the coordinator's grouping memory footprint, bounded by
            ``run_sessions`` regardless of trace size.
    """

    sessions: int
    runs_spilled: int
    peak_buffered: int


#: One spilled run record: start, session_id, group id, field slot,
#: user_id, duration, pop, exchange.  Internal to
#: :class:`ExternalGroupSorter` -- run files are not stores: they have
#: no header, footer or string tables, and live only until the merge.
_RUN_RECORD = struct.Struct("<dqIIqdII")


class ExternalGroupSorter:
    """Bounded-memory sort of a session stream into group order.

    The external merge-sort behind out-of-core grouping.  Callers
    register every group once with :meth:`group`, giving its *order*
    (any totally ordered value; the simulator passes
    ``SwarmKey.sort_key()``), then :meth:`add` each session under its
    group id.  :meth:`write` emits a store file sorted by ``(group
    order, start, session_id)`` and returns each group's extent in it.

    Each session is packed once into a plain tuple: its string and
    bitrate fields collapse to one integer *slot* (an interned
    ``(content_id, isp, bitrate, device)`` combination) and its group
    order leads, so the sort needs no key callback.  Full buffers of
    ``run_sessions`` tuples are sorted and spilled as fixed-width run
    records carrying the group id.  At :meth:`write`, groups get integer
    ranks from their orders (once per group, not per session), the runs
    k-way merge on ``(rank, start, session_id)`` -- reading about
    ``run_sessions`` records at a time across all runs -- and the shard
    is packed straight from the merged fields, its string tables
    interned in first-encounter order exactly as :class:`StoreWriter`
    would.  No :class:`~repro.trace.events.Session` is ever decoded.

    Session ids must be unique (the simulator's traces are), which makes
    the order total, so the output is a pure function of the session
    multiset.  Run files are deleted as soon as the merge completes.
    """

    def __init__(
        self, directory: Union[str, Path], run_sessions: int = 100_000
    ) -> None:
        if run_sessions < 1:
            raise ValueError(f"run_sessions must be >= 1, got {run_sessions!r}")
        self.directory = Path(directory)
        self.run_sessions = run_sessions
        self._orders: List[object] = []
        self._slots: Dict[Tuple[str, str, float, str], int] = {}
        self._buffer: List[tuple] = []
        self._runs: List[Tuple[Path, int]] = []
        self._sorted = 0  # sessions no longer in the buffer
        self._peak_buffered = 0
        self._finished = False

    @property
    def stats(self) -> SorterStats:
        """What the sort has done so far (see :class:`SorterStats`)."""
        buffered = len(self._buffer)
        return SorterStats(
            sessions=self._sorted + buffered,
            runs_spilled=len(self._runs),
            peak_buffered=max(self._peak_buffered, buffered),
        )

    def group(self, order: object) -> int:
        """Register one group by its sort order; returns its group id.

        Distinct groups must have distinct orders.  The caller decides
        what a group is (and deduplicates); the sorter only orders them.
        """
        self._orders.append(order)
        return len(self._orders) - 1

    def add(self, group: int, session: Session) -> None:
        """Buffer one session under ``group``, spilling a run when full."""
        if self._finished:
            raise RuntimeError("cannot add sessions after write()")
        attachment = session.attachment
        fields = (session.content_id, attachment.isp, session.bitrate, session.device)
        slot = self._slots.get(fields)
        if slot is None:
            slot = self._slots[fields] = len(self._slots)
        buffer = self._buffer
        buffer.append(
            (
                self._orders[group],
                session.start,
                session.session_id,
                group,
                slot,
                session.user_id,
                session.duration,
                attachment.pop,
                attachment.exchange,
            )
        )
        if len(buffer) >= self.run_sessions:
            self._spill()

    def _release(self) -> List[tuple]:
        """Take the buffer out, counting it as sorted."""
        buffer, self._buffer = self._buffer, []
        self._sorted += len(buffer)
        self._peak_buffered = max(self._peak_buffered, len(buffer))
        return buffer

    def _spill(self) -> None:
        buffer = self._release()
        buffer.sort()
        pack = _RUN_RECORD.pack
        path = self.directory / f"run-{len(self._runs):06d}.bin"
        records = [
            pack(start, sid, group, slot, user, duration, pop, exchange)
            for _, start, sid, group, slot, user, duration, pop, exchange in buffer
        ]
        with open(path, "wb") as handle:
            handle.write(b"".join(records))
        self._runs.append((path, len(records)))

    def write(
        self, path: Union[str, Path], horizon: float
    ) -> List[Tuple[int, int, int]]:
        """Merge everything added into a sorted store at ``path``.

        Returns ``(group, index, count)`` for every non-empty group, in
        sorted order: each group's contiguous extent in the new store.
        May be called once; spilled runs are removed when it returns or
        raises.
        """
        if self._finished:
            raise RuntimeError("write() may only be called once")
        self._finished = True
        by_rank = sorted(range(len(self._orders)), key=self._orders.__getitem__)
        rank_of = [0] * len(by_rank)
        for rank, group in enumerate(by_rank):
            rank_of[group] = rank
        buffered = self._release()
        final = [
            (rank_of[group], start, sid, slot, user, duration, pop, exchange)
            for _, start, sid, group, slot, user, duration, pop, exchange in buffered
        ]
        final.sort()
        # Runs are read this many records at a time, so together they
        # hold about run_sessions records however many were spilled.
        chunk = max(1, self.run_sessions // (len(self._runs) + 1))
        descriptors: List[int] = []
        try:
            streams: List[Iterable[tuple]] = []
            for run_path, count in self._runs:
                descriptor = os.open(run_path, os.O_RDONLY)
                descriptors.append(descriptor)
                streams.append(_read_run(run_path, descriptor, count, chunk, rank_of))
            streams.append(final)
            return self._write_merged(heapq.merge(*streams), path, horizon, by_rank)
        finally:
            for descriptor in descriptors:
                os.close(descriptor)
            for run_path, _ in self._runs:
                try:
                    run_path.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _write_merged(
        self,
        merged: Iterable[tuple],
        path: Union[str, Path],
        horizon: float,
        by_rank: Sequence[int],
    ) -> List[Tuple[int, int, int]]:
        """Pack merged ``(rank, ...)`` tuples into a store; return extents."""
        fields = list(self._slots)
        # Per slot: its shard string refs and bitrate, interned the first
        # time the slot appears in merged order -- which interns every
        # string at its own first encounter, as StoreWriter.append would.
        refs: List[Optional[Tuple[int, float, int, int]]] = [None] * len(fields)
        pack = _RECORD.pack
        extents: List[Tuple[int, int, int]] = []
        records: List[bytes] = []
        current = first = -1
        with StoreWriter(path, horizon=horizon) as writer:
            for rank, start, sid, slot, user, duration, pop, exchange in merged:
                if rank != current:
                    index = writer.records_written + len(records)
                    if current >= 0:
                        extents.append((by_rank[current], first, index - first))
                    current, first = rank, index
                ref = refs[slot]
                if ref is None:
                    content, isp, bitrate, device = fields[slot]
                    ref = refs[slot] = (
                        writer._content.ref(content),
                        bitrate,
                        writer._isp.ref(isp),
                        writer._device.ref(device),
                    )
                content_ref, bitrate, isp_ref, device_ref = ref
                records.append(
                    pack(
                        sid,
                        user,
                        content_ref,
                        start,
                        duration,
                        bitrate,
                        isp_ref,
                        pop,
                        exchange,
                        device_ref,
                    )
                )
                if len(records) == _CHUNK_RECORDS:
                    writer._append_packed(records)
                    records = []
            writer._append_packed(records)
        if current >= 0:
            extents.append((by_rank[current], first, writer.records_written - first))
        return extents


def _read_run(
    path: Path, descriptor: int, count: int, chunk: int, rank_of: Sequence[int]
) -> Iterator[tuple]:
    """Stream one spilled run as merge tuples, ``chunk`` records per read."""
    unpack = _RUN_RECORD.iter_unpack
    for index in range(0, count, chunk):
        records = min(chunk, count - index)
        data = _pread_exact(
            path, descriptor, records * _RUN_RECORD.size, index * _RUN_RECORD.size
        )
        yield from [
            (rank_of[group], start, sid, slot, user, duration, pop, exchange)
            for start, sid, group, slot, user, duration, pop, exchange in unpack(data)
        ]


# ----------------------------------------------------------------------
# Content addressing: trace fingerprints and persisted manifests
# ----------------------------------------------------------------------

#: Per-session numeric fields fed to the fingerprint, packed exactly
#: (IEEE-754 doubles, not decimal round-trips).
_FINGERPRINT_RECORD = struct.Struct("<qqdddII")


def trace_fingerprint(sessions: Iterable[Session]) -> str:
    """A stable content hash of a session sequence.

    The cache key half of the content-addressed shard cache: two traces
    with the same fingerprint (and the same grouping policy and store
    version) would produce byte-identical sorted shards, so a cached
    shard + manifest can be reused across runs *and across processes*
    without re-reading the sessions.

    The hash covers every field a session carries -- ids, times,
    bitrate (as exact doubles), content/ISP/device strings and the
    attachment coordinates -- and is **order-sensitive**, so fingerprint
    a canonically ordered source (a :class:`~repro.trace.events.Trace`
    orders its sessions at construction; hashing it is deterministic).
    Hashing is a single streamed pass: far cheaper than the sort /
    spill / merge it lets a run skip.
    """
    hasher = hashlib.blake2b(digest_size=16)
    update = hasher.update
    pack = _FINGERPRINT_RECORD.pack
    for session in sessions:
        attachment = session.attachment
        update(
            pack(
                session.session_id,
                session.user_id,
                session.start,
                session.duration,
                session.bitrate,
                attachment.pop,
                attachment.exchange,
            )
        )
        update(session.content_id.encode("utf-8"))
        update(b"\x00")
        update(attachment.isp.encode("utf-8"))
        update(b"\x00")
        update(session.device.encode("utf-8"))
        update(b"\x1f")
    return hasher.hexdigest()


def file_fingerprint(path: Union[str, Path]) -> str:
    """A content hash of a trace *file*, for cache tokens.

    The streamed-file counterpart of :func:`trace_fingerprint`: callers
    that would rather not parse a session stream twice (the CLI's
    out-of-core path feeds a ``.jsonl`` straight into external
    grouping) can key the shard cache on the raw bytes instead.  Any
    stable content identifier is a valid token -- a byte-level and a
    session-level fingerprint of the same trace simply address separate
    (equally correct) cache entries.
    """
    hasher = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            hasher.update(chunk)
    return "file:" + hasher.hexdigest()


def save_manifest(
    manifest: ShardManifest,
    path: Union[str, Path],
    *,
    key_encoder: Callable[[object], Dict],
    meta: Optional[Dict] = None,
) -> None:
    """Persist a :class:`ShardManifest` as JSON next to its shard.

    The shard path is stored *relative to the manifest's directory*, so
    a cache directory can be moved (or mounted at a different root by a
    worker host) and still resolve.  ``key_encoder`` turns each extent
    key into a JSON object -- the simulation layer supplies the
    :class:`~repro.sim.policies.SwarmKey` codec, keeping this module
    free of simulation imports.  The write is atomic (temp file +
    ``os.replace``), so readers never observe a torn manifest.
    """
    path = Path(path)
    shard = Path(manifest.path)
    try:
        shard_ref = str(shard.relative_to(path.parent))
    except ValueError:
        shard_ref = str(shard)
    payload = {
        "store_version": STORE_VERSION,
        "shard": shard_ref,
        "horizon": manifest.horizon,
        "records": manifest.num_sessions,
        "meta": meta or {},
        "extents": [
            {
                "index": extent.index,
                "count": extent.count,
                "key": key_encoder(extent.key),
            }
            for extent in manifest.extents
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    temp_path = path.with_name(path.name + ".tmp")
    temp_path.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(temp_path, path)


def load_manifest(
    path: Union[str, Path], *, key_decoder: Callable[[Dict], object]
) -> Tuple[ShardManifest, Dict]:
    """Load a persisted manifest; returns ``(manifest, meta)``.

    Validates the store version and that the shard file both exists and
    holds exactly the record count the manifest promises (one cheap
    footer read) -- a truncated or half-written cache entry raises
    ``ValueError`` instead of producing silently wrong extents.
    """
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("store_version") != STORE_VERSION:
        raise ValueError(
            f"{path}: manifest store version {payload.get('store_version')!r} "
            f"does not match this process ({STORE_VERSION})"
        )
    shard_path = Path(payload["shard"])
    if not shard_path.is_absolute():
        shard_path = path.parent / shard_path
    extents = tuple(
        Extent(
            key=key_decoder(entry["key"]),
            index=int(entry["index"]),
            count=int(entry["count"]),
        )
        for entry in payload["extents"]
    )
    manifest = ShardManifest(
        path=str(shard_path), horizon=float(payload["horizon"]), extents=extents
    )
    expected = int(payload["records"])
    if manifest.num_sessions != expected:
        raise ValueError(
            f"{path}: extents cover {manifest.num_sessions} records, "
            f"manifest promises {expected}"
        )
    with StoreReader(shard_path) as reader:
        if len(reader) != expected:
            raise ValueError(
                f"{shard_path}: shard holds {len(reader)} records, "
                f"manifest promises {expected}"
            )
    return manifest, dict(payload.get("meta") or {})
