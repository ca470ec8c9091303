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
  group order: each session is packed once into a 48 B run record
  under a caller-assigned group id, bounded buffers are sorted in
  place and spilled as internal fixed-width run files, and a k-way
  merge writes one globally sorted store -- all in C when the compiled
  extension is loaded, with a tuple sort and ``heapq.merge`` as the
  pure-python reference.  Group orders are supplied by the caller (the
  simulator passes ``SwarmKey.sort_key()``), so the module stays
  independent of the simulation layer.
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
import sys
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
from repro.sim.profiling import PROFILE
from repro.topology.nodes import AttachmentPoint, intern_attachment
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

_INF = float("inf")

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
    """Order-preserving string interner for one store file.

    Args:
        name: the table's name in errors ("content", "isp", "device").
        size: how many distinct strings the record's ref field can
            address.
    """

    __slots__ = ("_index", "values", "name", "size")

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size
        self.values: List[str] = []
        self._index: Dict[str, int] = {}

    def ref(self, value: str) -> int:
        """Return the ref for ``value``, interning it on first encounter.

        A string past the table's ``size`` raises a ``ValueError``
        naming the table, and is not interned.
        """
        index = self._index.get(value)
        if index is None:
            index = len(self.values)
            if index == self.size:
                raise ValueError(
                    f"a store holds at most {self.size} distinct {self.name} strings"
                )
            self._index[value] = index
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
        self._content = _StringTable("content", 2**32)
        self._isp = _StringTable("isp", 2**16)
        self._device = _StringTable("device", 2**16)
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
        attachment = session.attachment
        return self._write_record(
            session.session_id,
            session.user_id,
            session.content_id,
            session.start,
            session.duration,
            session.bitrate,
            attachment.isp,
            attachment.pop,
            attachment.exchange,
            session.device,
        )

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
        # Negated comparisons, so that NaN fails them too.
        if not 0 <= start < _INF:
            raise ValueError(f"start must be >= 0 and finite, got {start!r}")
        if not 0 < duration < _INF:
            raise ValueError(f"duration must be > 0 and finite, got {duration!r}")
        if not 0 < bitrate < _INF:
            raise ValueError(f"bitrate must be finite and > 0, got {bitrate!r}")
        if not content_id:
            raise ValueError("content_id must be non-empty")
        return self._write_record(
            session_id,
            user_id,
            content_id,
            start,
            duration,
            bitrate,
            isp,
            pop,
            exchange,
            device,
        )

    def _write_record(
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
        device: str,
    ) -> int:
        """Pack and write one record; returns its index.

        A field the record cannot hold raises a ``ValueError`` naming
        the session and the field, and writes nothing.
        """
        try:
            record = _RECORD.pack(
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
        except struct.error:
            error = _field_error(session_id, user_id, pop, exchange)
            if error is None:
                raise
            raise error from None
        self._file.write(record)
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

    def _append_packed(self, records: bytes) -> None:
        """Write packed records whose string refs come from this writer."""
        if self._closed:
            raise RuntimeError(f"store {self.path} is closed")
        self._file.write(records)
        self._count += len(records) // RECORD_SIZE

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
#: user_id, duration, pop, exchange -- 48 bytes.  Internal to
#: :class:`ExternalGroupSorter` -- run files are not stores: they have
#: no header, footer or string tables, and live only until the merge.
#: The compiled sort buffer holds the same records in memory, in native
#: byte order (little-endian hosts only).
_RUN_RECORD = struct.Struct("<dqIIqdII")

#: Integer fields a packed record holds, by kind: (low, high).
_INT_RANGES = {"int64": (-(2**63), 2**63 - 1), "u32": (0, 2**32 - 1)}


def _field_error(
    session_id: object, user_id: object, pop: object, exchange: object
) -> Optional[ValueError]:
    """The error for the first field a packed record cannot hold, if any.

    Records store ids as int64 and pop / exchange as u32; ``struct``
    reports a value outside them without naming the session or field.
    """
    for field, value, kind in (
        ("session_id", session_id, "int64"),
        ("user_id", user_id, "int64"),
        ("pop", pop, "u32"),
        ("exchange", exchange, "u32"),
    ):
        low, high = _INT_RANGES[kind]
        if isinstance(value, int) and not low <= value <= high:
            return ValueError(
                f"session {session_id!r}: {field} {value!r} is outside {kind}"
            )
    return None


def _compiled_sort_buffer():
    """``_ckernel.SortBuffer`` when the compiled extension is loaded.

    Reads :mod:`repro.sim.kernel_columns`' one decision (which applies
    ``REPRO_NO_CKERNEL``) at call time, as the trace generator reads
    ``replay_item``: importing this module loads no simulation code,
    and tests that mask the extension there reach the tuple path.  Its
    records are native byte order, so other hosts keep the tuple path.
    """
    if sys.byteorder != "little":
        return None
    from repro.sim import kernel_columns

    ckernel = kernel_columns._ckernel
    return None if ckernel is None else ckernel.SortBuffer


class ExternalGroupSorter:
    """Bounded-memory sort of a session stream into group order.

    The external merge-sort behind out-of-core grouping.  Callers
    register every group once with :meth:`group`, giving its *order*
    (any totally ordered value; the simulator passes
    ``SwarmKey.sort_key()``), then :meth:`add` each session under its
    group id.  :meth:`write` emits a store file sorted by ``(group
    order, start, session_id)`` and returns each group's extent in it.

    A session's string and bitrate fields collapse to one integer
    *slot* (an interned ``(content_id, isp, bitrate, device)``
    combination).  With the compiled extension, :meth:`add` is
    ``_ckernel.SortBuffer.add``: it packs the session's fields into a
    48 B run record in one contiguous buffer, and a full buffer of
    ``run_sessions`` records is sorted in place in C and written as a
    run.  A run needs a group order before every group is known, so
    each spill ranks the groups seen so far; that order only ever grows
    (a later group slots in between earlier ones), so every run agrees
    with the final ranking.  :meth:`write` k-way merges the runs and
    the buffer in C on the final ranks, reading each run about
    ``run_sessions // (runs + 1)`` records at a time, and emits the
    shard's 56 B records, its string tables interned in first-encounter
    order of the merged stream exactly as :class:`StoreWriter` would.
    No :class:`~repro.trace.events.Session` is ever decoded.

    Without the extension (``REPRO_NO_CKERNEL=1``) each session is
    packed into a plain tuple led by its group order, spilled runs are
    tuple-sorted and merged with ``heapq.merge``: the semantics
    reference, whose shard and extents the compiled path reproduces
    byte for byte.  Both order ties beyond the key in add order, and
    between runs in spill order.

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
        self._by_rank: List[int] = []  # group ids, ranked as of the last spill
        self._slots: Dict[Tuple[str, str, float, str], int] = {}
        self._buffer: List[tuple] = []
        self._runs: List[Tuple[Path, int]] = []
        self._sorted = 0  # sessions no longer in the buffer
        self._peak_buffered = 0
        self._finished = False
        buffer_type = _compiled_sort_buffer() if run_sessions < 2**32 else None
        self._packed = None
        if buffer_type is not None:
            self._packed = buffer_type(
                run_sessions,
                self._orders,
                self._slots,
                self._spill,
                Session,
                AttachmentPoint,
            )
            self.add = self._packed.add  # type: ignore[method-assign]

    @property
    def stats(self) -> SorterStats:
        """What the sort has done so far (see :class:`SorterStats`)."""
        buffered = len(self._buffer if self._packed is None else self._packed)
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

    def _rank(self) -> List[int]:
        """Every group registered so far, as group ids in order.

        Groups registered since the last call join the ranking.  The
        ranked prefix is one run to timsort, so re-ranking costs one
        pass over the groups plus a sort of the new ones.
        """
        by_rank = self._by_rank
        if len(by_rank) < len(self._orders):
            by_rank.extend(range(len(by_rank), len(self._orders)))
            by_rank.sort(key=self._orders.__getitem__)
        return by_rank

    def _released(self, count: int) -> None:
        """Count ``count`` buffered sessions as sorted."""
        self._sorted += count
        self._peak_buffered = max(self._peak_buffered, count)

    def _spill(self) -> None:
        path = self.directory / f"run-{len(self._runs):06d}.bin"
        packed = self._packed
        if packed is None:
            buffer, self._buffer = self._buffer, []
            buffer.sort()
            count = len(buffer)
            data = _pack_runs(buffer)
        else:
            packed.sort(self._rank())
            count, data = len(packed), packed
        with open(path, "wb") as handle:
            handle.write(data)
        if packed is not None:
            packed.clear()
        self._released(count)
        self._runs.append((path, count))

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
        by_rank = self._rank()
        fields = list(self._slots)
        # Runs are read this many records at a time, so together they
        # hold about run_sessions records however many were spilled.
        chunk = max(1, self.run_sessions // (len(self._runs) + 1))
        descriptors: List[int] = []

        def read(run: int, first: int, count: int) -> bytes:
            """``count`` records of one run from record ``first`` on."""
            return _pread_exact(
                self._runs[run][0],
                descriptors[run],
                count * _RUN_RECORD.size,
                first * _RUN_RECORD.size,
            )

        try:
            for run_path, _ in self._runs:
                descriptors.append(os.open(run_path, os.O_RDONLY))
            with StoreWriter(path, horizon=horizon) as writer:

                def refs(slot: int) -> Tuple[int, float, int, int]:
                    """A slot's shard string refs and bitrate, interned now."""
                    content, isp, bitrate, device = fields[slot]
                    return (
                        writer._content.ref(content),
                        bitrate,
                        writer._isp.ref(isp),
                        writer._device.ref(device),
                    )

                if self._packed is None:
                    return self._merge_tuples(by_rank, chunk, read, refs, writer)
                self._released(len(self._packed))
                runs = [count for _, count in self._runs]
                extents = self._packed.merge(
                    by_rank, runs, chunk, read, writer._append_packed, refs, len(fields)
                )
                if PROFILE.enabled:
                    PROFILE.compiled_sorts += 1
                return extents
        finally:
            for descriptor in descriptors:
                os.close(descriptor)
            for run_path, _ in self._runs:
                try:
                    run_path.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _merge_tuples(
        self,
        by_rank: Sequence[int],
        chunk: int,
        read: Callable[[int, int, int], bytes],
        refs: Callable[[int], Tuple[int, float, int, int]],
        writer: StoreWriter,
    ) -> List[Tuple[int, int, int]]:
        """The tuple path's merge: ``heapq.merge`` of rank-led tuples."""
        rank_of = [0] * len(by_rank)
        for rank, group in enumerate(by_rank):
            rank_of[group] = rank
        buffered, self._buffer = self._buffer, []
        self._released(len(buffered))
        final = [
            (rank_of[group], start, sid, slot, user, duration, pop, exchange)
            for _, start, sid, group, slot, user, duration, pop, exchange in buffered
        ]
        final.sort()
        streams: List[Iterable[tuple]] = [
            _read_run(read, run, count, chunk, rank_of)
            for run, (_, count) in enumerate(self._runs)
        ]
        streams.append(final)
        refs_of: List[Optional[tuple]] = [None] * len(self._slots)
        pack = _RECORD.pack
        extents: List[Tuple[int, int, int]] = []
        records: List[bytes] = []
        current = first = -1
        merged = heapq.merge(*streams)
        for rank, start, sid, slot, user, duration, pop, exchange in merged:
            if rank != current:
                index = writer.records_written + len(records)
                if current >= 0:
                    extents.append((by_rank[current], first, index - first))
                current, first = rank, index
            ref = refs_of[slot]
            if ref is None:
                ref = refs_of[slot] = refs(slot)
            content_ref, bitrate, isp_ref, device_ref = ref
            try:
                record = pack(
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
            except struct.error:
                error = _field_error(sid, user, pop, exchange)
                if error is None:
                    raise
                raise error from None
            records.append(record)
            if len(records) == _CHUNK_RECORDS:
                writer._append_packed(b"".join(records))
                records = []
        writer._append_packed(b"".join(records))
        if current >= 0:
            extents.append((by_rank[current], first, writer.records_written - first))
        return extents


def _pack_runs(buffer: List[tuple]) -> bytes:
    """The tuple path's sorted buffer as run records.

    A field a record cannot hold raises the error naming its session.
    """
    pack = _RUN_RECORD.pack
    try:
        return b"".join(
            [
                pack(start, sid, group, slot, user, duration, pop, exchange)
                for _, start, sid, group, slot, user, duration, pop, exchange in buffer
            ]
        )
    except struct.error:
        for _, _, sid, _, _, user, _, pop, exchange in buffer:
            error = _field_error(sid, user, pop, exchange)
            if error is not None:
                raise error from None
        raise


def _read_run(
    read: Callable[[int, int, int], bytes],
    run: int,
    count: int,
    chunk: int,
    rank_of: Sequence[int],
) -> Iterator[tuple]:
    """Stream one spilled run as merge tuples, ``chunk`` records per read."""
    unpack = _RUN_RECORD.iter_unpack
    for index in range(0, count, chunk):
        data = read(run, index, min(chunk, count - index))
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
