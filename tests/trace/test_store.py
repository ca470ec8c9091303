"""Tests for the binary session store and external merge-sort."""

import os

import pytest

from repro.sim.policies import PAPER_POLICY
from repro.topology.nodes import AttachmentPoint
from repro.trace.events import Session
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.store import (
    RECORD_SIZE,
    Extent,
    ExternalGroupSorter,
    ShardManifest,
    StoreCorruptionError,
    StoreReader,
    StoreWriter,
    _TAIL,
    clear_reader_cache,
    evict_reader,
    shared_reader,
)


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=150, num_items=15, days=1, expected_sessions=600, seed=11
    )
    return TraceGenerator(config=config).generate()


def write_store(sessions, path, horizon=0.0):
    with StoreWriter(path, horizon=horizon) as writer:
        for session in sessions:
            writer.append(session)
    return path


class TestRoundTrip:
    def test_sessions_bit_for_bit(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store", horizon=trace.horizon)
        with StoreReader(path) as reader:
            loaded = list(reader.iter_sessions())
            assert reader.horizon == trace.horizon
        assert tuple(loaded) == trace.sessions

    def test_fixed_record_size(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        header_and_records = 8 + len(trace) * RECORD_SIZE
        assert path.stat().st_size > header_and_records  # footer follows
        with StoreReader(path) as reader:
            assert len(reader) == len(trace)

    def test_empty_store(self, tmp_path):
        path = write_store([], tmp_path / "empty.store", horizon=86_400.0)
        with StoreReader(path) as reader:
            assert len(reader) == 0
            assert list(reader.iter_sessions()) == []
            assert reader.horizon == 86_400.0

    def test_attachments_interned_on_read(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            loaded = list(reader.iter_sessions())
        by_triple = {}
        for session in loaded:
            a = session.attachment
            triple = (a.isp, a.pop, a.exchange)
            assert by_triple.setdefault(triple, a) is a

    def test_writer_rejects_append_after_close(self, trace, tmp_path):
        writer = StoreWriter(tmp_path / "t.store")
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(trace.sessions[0])

    def test_failed_write_leaves_no_footer(self, trace, tmp_path):
        # A producer that dies mid-stream must not publish a well-formed
        # store holding only the prefix it wrote.
        path = tmp_path / "t.store"
        with pytest.raises(RuntimeError, match="producer failed"):
            with StoreWriter(path, horizon=trace.horizon) as writer:
                for index, session in enumerate(trace.sessions[:10]):
                    if index == 4:
                        raise RuntimeError("producer failed")
                    writer.append(session)
        assert path.stat().st_size == 8 + 4 * RECORD_SIZE
        with pytest.raises(StoreCorruptionError):
            StoreReader(path)

    def test_writer_rejects_negative_horizon(self, tmp_path):
        with pytest.raises(ValueError):
            StoreWriter(tmp_path / "t.store", horizon=-1.0)


class TestFieldValidation:
    """Values a 56 B record cannot hold fail by name, before any write."""

    FIELDS = dict(
        session_id=1,
        user_id=2,
        content_id="item",
        start=10.0,
        duration=60.0,
        bitrate=1_500_000.0,
        isp="ISP-1",
        pop=0,
        exchange=0,
        device="tv",
    )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("start", float("nan")),
            ("duration", float("nan")),
            ("bitrate", float("nan")),
            ("bitrate", float("inf")),
        ],
    )
    def test_append_fields_rejects_non_finite_values(self, field, value, tmp_path):
        with StoreWriter(tmp_path / "s.store") as writer:
            with pytest.raises(ValueError, match=f"^{field} must be"):
                writer.append_fields(**{**self.FIELDS, field: value})
            assert writer.records_written == 0

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("session_id", 2**63, "int64"),
            ("user_id", -(2**63) - 1, "int64"),
            ("pop", 2**32, "u32"),
            ("exchange", 2**32, "u32"),
        ],
    )
    def test_out_of_range_fields_name_the_session(self, field, value, kind, tmp_path):
        fields = {**self.FIELDS, field: value}
        message = f"session {fields['session_id']}: {field} {value} is outside {kind}"
        with StoreWriter(tmp_path / "s.store") as writer:
            with pytest.raises(ValueError, match=f"^{message}$"):
                writer.append_fields(**fields)
            if field in ("pop", "exchange"):
                # AttachmentPoint accepts any pop >= 0; the record does not.
                session = Session(
                    session_id=fields["session_id"],
                    user_id=fields["user_id"],
                    content_id="item",
                    start=10.0,
                    duration=60.0,
                    bitrate=1_500_000.0,
                    attachment=AttachmentPoint("ISP-1", fields["pop"], fields["exchange"]),
                )
                with pytest.raises(ValueError, match=f"^{message}$"):
                    writer.append(session)
            assert writer.records_written == 0


class TestReadRange:
    def test_range_matches_slice(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            assert tuple(reader.read_range(5, 17)) == trace.sessions[5:22]
            assert reader.read_range(0, 0) == []

    def test_out_of_bounds_rejected(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            with pytest.raises(ValueError):
                reader.read_range(0, len(trace) + 1)
            with pytest.raises(ValueError):
                reader.read_range(-1, 1)


class TestCorruption:
    def test_not_a_store(self, tmp_path):
        path = tmp_path / "junk.store"
        path.write_bytes(b"definitely not a session store, not even close")
        with pytest.raises(ValueError, match="magic"):
            StoreReader(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "tiny.store"
        path.write_bytes(b"RPSS")
        with pytest.raises(ValueError, match="truncated"):
            StoreReader(path)

    def test_corruption_error_is_a_value_error(self):
        """Existing ``except ValueError`` call sites keep working."""
        assert issubclass(StoreCorruptionError, ValueError)

    def test_record_region_shorter_than_footer_promises(self, trace, tmp_path):
        """A store missing records fails at open, not with silent short data.

        Drop the first record and repoint the tail at the (now earlier)
        footer: every structural field still parses, but the record
        region no longer holds the count the footer promises -- the
        exact corruption the old masking decode slipped past.
        """
        path = write_store(trace.sessions[:10], tmp_path / "whole.store")
        raw = path.read_bytes()
        footer_offset, magic = _TAIL.unpack(raw[-_TAIL.size :])
        corrupt = (
            raw[:8]
            + raw[8 + RECORD_SIZE : footer_offset]
            + raw[footer_offset : -_TAIL.size]
            + _TAIL.pack(footer_offset - RECORD_SIZE, magic)
        )
        bad = tmp_path / "bad.store"
        bad.write_bytes(corrupt)
        with pytest.raises(StoreCorruptionError, match="promises"):
            StoreReader(bad)

    def test_short_read_after_truncation(self, trace, tmp_path):
        """A store truncated underneath an open reader raises, loudly."""
        path = write_store(trace.sessions[:10], tmp_path / "t.store")
        with StoreReader(path) as reader:
            os.truncate(path, 8 + 5 * RECORD_SIZE)
            with pytest.raises(StoreCorruptionError, match="short read"):
                reader.read_raw_range(0, 10)


class TestRawAndColumnReads:
    def test_raw_range_is_the_exact_record_bytes(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        raw = path.read_bytes()
        with StoreReader(path) as reader:
            assert reader.read_raw_range(3, 4) == raw[
                8 + 3 * RECORD_SIZE : 8 + 7 * RECORD_SIZE
            ]
            assert reader.read_raw_range(0, 0) == b""

    def test_raw_range_bounds_checked(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            with pytest.raises(ValueError):
                reader.read_raw_range(0, len(trace) + 1)
            with pytest.raises(ValueError):
                reader.read_raw_range(-1, 1)


class TestSharedReaderCache:
    def test_same_instance_until_evicted(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        try:
            first = shared_reader(path)
            assert shared_reader(path) is first
            evict_reader(path)
            second = shared_reader(path)
            assert second is not first
        finally:
            clear_reader_cache()

    def test_clear_cache(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        reader = shared_reader(path)
        clear_reader_cache()
        assert shared_reader(path) is not reader
        clear_reader_cache()

    def test_cache_is_bounded_lru(self, trace, tmp_path):
        """Persistent pool workers see a fresh shard per run: the cache
        must close least-recently-used readers instead of pinning one
        open fd per run forever."""
        from repro.trace.store import _READER_CACHE, _READER_CACHE_MAX

        clear_reader_cache()
        try:
            readers = []
            for i in range(_READER_CACHE_MAX + 3):
                path = write_store(trace.sessions[:5], tmp_path / f"s{i}.store")
                readers.append(shared_reader(path))
            assert len(_READER_CACHE) == _READER_CACHE_MAX
            # The overflow evicted the oldest readers and closed them.
            assert all(r._closed for r in readers[:3])
            assert not readers[-1]._closed
            # A cache hit refreshes recency: touching the oldest
            # survivor keeps it alive through the next eviction.
            survivor = readers[3]
            assert shared_reader(survivor.path) is survivor
            extra = write_store(trace.sessions[:5], tmp_path / "extra.store")
            shared_reader(extra)
            assert not survivor._closed
        finally:
            clear_reader_cache()


class TestManifest:
    def test_extent_geometry(self):
        extent = Extent(key="k", index=3, count=7)
        assert extent.offset == 8 + 3 * RECORD_SIZE
        assert extent.length == 7 * RECORD_SIZE

    def test_iter_groups_round_trip(self, trace, tmp_path):
        # Sort by the paper policy's swarm key and cut extents by key.
        keyed = sorted(
            trace.sessions,
            key=lambda s: (
                PAPER_POLICY.key_for(s).sort_key(),
                s.start,
                s.session_id,
            ),
        )
        path = write_store(keyed, tmp_path / "sorted.store", trace.horizon)
        extents = []
        start = 0
        for i in range(1, len(keyed) + 1):
            if i == len(keyed) or PAPER_POLICY.key_for(keyed[i]) != PAPER_POLICY.key_for(
                keyed[start]
            ):
                extents.append(
                    Extent(
                        key=PAPER_POLICY.key_for(keyed[start]),
                        index=start,
                        count=i - start,
                    )
                )
                start = i
        manifest = ShardManifest(
            path=str(path), horizon=trace.horizon, extents=tuple(extents)
        )
        try:
            assert manifest.num_sessions == len(trace)
            rebuilt = []
            for key, sessions in manifest.iter_groups():
                assert all(PAPER_POLICY.key_for(s) == key for s in sessions)
                rebuilt.extend(sessions)
            assert rebuilt == keyed
        finally:
            evict_reader(path)


class TestExternalSorter:
    """The packed-record external sort behind external grouping."""

    @staticmethod
    def sort_key(session: Session):
        return (
            PAPER_POLICY.key_for(session).sort_key(),
            session.start,
            session.session_id,
        )

    @staticmethod
    def feed(sorter, sessions):
        """Add sessions grouped by the paper policy's swarm keys."""
        ids, keys = {}, []
        for session in sessions:
            key = PAPER_POLICY.key_for(session)
            if key not in ids:
                ids[key] = sorter.group(key.sort_key())
                keys.append(key)
            sorter.add(ids[key], session)
        return keys

    def sort(self, sessions, directory, run_sessions):
        """Sort into ``directory/sorted.store``; returns (sorter, path, extents)."""
        directory.mkdir(parents=True, exist_ok=True)
        sorter = ExternalGroupSorter(directory, run_sessions=run_sessions)
        keys = self.feed(sorter, sessions)
        path = directory / "sorted.store"
        extents = [
            (keys[group], index, count)
            for group, index, count in sorter.write(path, 86_400.0)
        ]
        return sorter, path, extents

    def read(self, path):
        with StoreReader(path) as reader:
            return list(reader.iter_sessions())

    def test_sorted_output_with_spilling(self, trace, tmp_path):
        sorter, path, extents = self.sort(trace.sessions, tmp_path, 50)
        merged = self.read(path)
        assert merged == sorted(trace.sessions, key=self.sort_key)
        # One extent per swarm key, in order, tiling the store.
        assert [key for key, _, _ in extents] == sorted(
            {PAPER_POLICY.key_for(s) for s in merged}, key=lambda k: k.sort_key()
        )
        position = 0
        for key, index, count in extents:
            assert index == position and count > 0
            assert all(
                PAPER_POLICY.key_for(s) == key for s in merged[index : index + count]
            )
            position += count
        assert position == len(trace)
        stats = sorter.stats
        assert stats.sessions == len(trace)
        assert stats.runs_spilled == len(trace) // 50
        assert stats.peak_buffered <= 50
        # Run files are removed once the merge completes.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sorted.store"]

    def test_no_spill_when_buffer_fits(self, trace, tmp_path):
        sorter, path, _ = self.sort(trace.sessions, tmp_path, 10**6)
        assert self.read(path) == sorted(trace.sessions, key=self.sort_key)
        assert sorter.stats.runs_spilled == 0

    def test_order_independent_of_input_permutation(self, trace, tmp_path):
        _, forward, forward_extents = self.sort(trace.sessions, tmp_path / "a", 64)
        _, backward, backward_extents = self.sort(
            reversed(trace.sessions), tmp_path / "b", 64
        )
        assert forward.read_bytes() == backward.read_bytes()
        assert forward_extents == backward_extents

    def test_add_after_finish_rejected(self, trace, tmp_path):
        # write() finishes the sort: nothing may be added, or written, again.
        sorter = ExternalGroupSorter(tmp_path, run_sessions=10)
        self.feed(sorter, trace.sessions[:1])
        sorter.write(tmp_path / "sorted.store", 86_400.0)
        with pytest.raises(RuntimeError):
            sorter.add(0, trace.sessions[1])
        with pytest.raises(RuntimeError):
            sorter.write(tmp_path / "again.store", 86_400.0)

    def test_rejects_bad_run_sessions(self, tmp_path):
        with pytest.raises(ValueError):
            ExternalGroupSorter(tmp_path, run_sessions=0)
