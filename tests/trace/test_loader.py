"""Tests for trace persistence (JSONL / CSV round-trips)."""

import json
import threading
import time

import pytest

from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.loader import (
    append_jsonl_end,
    follow_jsonl,
    iter_csv,
    iter_jsonl,
    iter_store,
    load_csv,
    load_jsonl,
    load_store,
    read_jsonl_horizon,
    save_csv,
    save_jsonl,
    save_store,
    session_from_record,
    session_to_record,
)


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=150, num_items=15, days=1, expected_sessions=400, seed=3
    )
    return TraceGenerator(config=config).generate()


class TestRecordRoundTrip:
    def test_round_trip(self, trace):
        session = trace.sessions[0]
        rebuilt = session_from_record(session_to_record(session))
        assert rebuilt == session

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            session_from_record({"session_id": 1})

    def test_device_defaults_to_unknown(self, trace):
        record = session_to_record(trace.sessions[0])
        del record["device"]
        assert session_from_record(record).device == "unknown"


class TestJsonl:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        loaded = load_jsonl(path)
        assert loaded.sessions == trace.sessions
        assert loaded.horizon == trace.horizon

    def test_header_first_line(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "trace-header"
        assert first["horizon"] == trace.horizon

    def test_blank_lines_tolerated(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_jsonl(path)) == len(trace)

    def test_corrupt_record_reports_line(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["bitrate"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=":2:"):
            load_jsonl(path)


class TestStreamingLoaders:
    """iter_* yield the same sessions the load_* Traces hold, lazily."""

    def test_iter_jsonl_matches_load(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        assert tuple(iter_jsonl(path)) == trace.sessions

    def test_iter_jsonl_is_lazy(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        stream = iter_jsonl(path)
        first = next(stream)
        assert first == trace.sessions[0]
        stream.close()  # a partially consumed stream closes cleanly

    def test_iter_jsonl_reports_corrupt_line(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["duration"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=":2:"):
            list(iter_jsonl(path))

    def test_read_jsonl_horizon(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        assert read_jsonl_horizon(path) == trace.horizon

    def test_read_jsonl_horizon_headerless(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        # Strip the header: external traces may not carry one.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]))
        assert read_jsonl_horizon(path) == 0.0
        assert tuple(iter_jsonl(path)) == trace.sessions

    def test_iter_csv_matches_load(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(trace, path)
        assert tuple(iter_csv(path)) == trace.sessions

    def test_streamed_simulation_equals_materialized(self, trace, tmp_path):
        """The loaders' reason to exist: file -> run_stream, no Trace."""
        from repro.sim import SimulationConfig, Simulator, simulate

        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        result = Simulator(SimulationConfig()).run_stream(
            iter_jsonl(path), read_jsonl_horizon(path)
        )
        assert simulate(trace).identical_to(result)

    def test_loaded_attachments_are_interned(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        by_triple = {}
        for session in iter_jsonl(path):
            a = session.attachment
            assert by_triple.setdefault((a.isp, a.pop, a.exchange), a) is a


class TestPartialTail:
    """A feed read mid-write has a truncated final record."""

    def _torn(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        raw = path.read_text()
        # Chop the last record mid-line: the writer hasn't finished it.
        path.write_text(raw[: raw.rfind("\n", 0, len(raw) - 1) + 1 + 20])
        return path

    def test_strict_reader_crashes(self, trace, tmp_path):
        path = self._torn(trace, tmp_path)
        with pytest.raises(json.JSONDecodeError):
            list(iter_jsonl(path))

    def test_tolerant_reader_skips_the_tail(self, trace, tmp_path):
        path = self._torn(trace, tmp_path)
        sessions = tuple(iter_jsonl(path, allow_partial_tail=True))
        assert sessions == trace.sessions[:-1]

    def test_tolerant_reader_picks_the_record_up_once_complete(
        self, trace, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        raw = path.read_text()
        cut = raw.rfind("\n", 0, len(raw) - 1) + 1 + 20
        path.write_text(raw[:cut])
        assert len(tuple(iter_jsonl(path, allow_partial_tail=True))) == (
            len(trace) - 1
        )
        path.write_text(raw)  # the writer finished the line
        assert tuple(iter_jsonl(path, allow_partial_tail=True)) == trace.sessions

    def test_complete_but_corrupt_line_still_raises(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["bitrate"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2:"):
            list(iter_jsonl(path, allow_partial_tail=True))


class TestFollowJsonl:
    """The polling tail reader behind service mode."""

    def test_follows_a_terminated_feed(self, trace, tmp_path):
        path = tmp_path / "feed.jsonl"
        save_jsonl(trace, path)
        append_jsonl_end(path)
        sessions = tuple(follow_jsonl(path, poll_interval=0.01))
        assert sessions == trace.sessions

    def test_end_marker_is_invisible_to_plain_readers(self, trace, tmp_path):
        path = tmp_path / "feed.jsonl"
        save_jsonl(trace, path)
        append_jsonl_end(path)
        assert tuple(iter_jsonl(path)) == trace.sessions

    def test_start_record_skips_the_cursor_prefix(self, trace, tmp_path):
        path = tmp_path / "feed.jsonl"
        save_jsonl(trace, path)
        append_jsonl_end(path)
        tail = tuple(follow_jsonl(path, poll_interval=0.01, start_record=5))
        assert tail == trace.sessions[5:]

    def test_idle_timeout_ends_a_quiet_feed(self, trace, tmp_path):
        path = tmp_path / "feed.jsonl"
        save_jsonl(trace, path)  # no end marker: the feed just goes quiet
        sessions = tuple(
            follow_jsonl(path, poll_interval=0.01, idle_timeout=0.05)
        )
        assert sessions == trace.sessions

    def test_stop_callback_ends_the_follow(self, trace, tmp_path):
        path = tmp_path / "feed.jsonl"
        save_jsonl(trace, path)
        sessions = tuple(
            follow_jsonl(path, poll_interval=0.01, stop=lambda: True)
        )
        assert sessions == trace.sessions

    def test_waits_out_a_mid_write_record(self, trace, tmp_path):
        """A half-written line is re-polled, never parsed or dropped."""
        path = tmp_path / "feed.jsonl"
        save_jsonl(trace, path)
        raw = path.read_text()
        cut = raw.rfind("\n", 0, len(raw) - 1) + 1 + 20
        path.write_text(raw[:cut])  # torn tail: writer mid-record

        def finish_the_write():
            time.sleep(0.05)
            with path.open("a", encoding="utf-8") as handle:
                handle.write(raw[cut:])
            append_jsonl_end(path)

        writer = threading.Thread(target=finish_the_write)
        writer.start()
        try:
            sessions = tuple(follow_jsonl(path, poll_interval=0.01))
        finally:
            writer.join()
        assert sessions == trace.sessions


    def test_nan_start_names_its_line(self, trace, tmp_path):
        path = tmp_path / "feed.jsonl"
        save_jsonl(trace, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["start"] = float("nan")
        lines[2] = json.dumps(record)  # json writes the bare token NaN
        assert '"start": NaN' in lines[2]
        path.write_text("\n".join(lines) + "\n")
        append_jsonl_end(path)
        with pytest.raises(ValueError, match=r"feed\.jsonl:3: .*start must be >= 0"):
            tuple(follow_jsonl(path, poll_interval=0.01))


class TestBinaryStore:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.store"
        save_store(trace, path)
        loaded = load_store(path)
        assert loaded.sessions == trace.sessions
        assert loaded.horizon == trace.horizon

    def test_iter_store_matches(self, trace, tmp_path):
        path = tmp_path / "trace.store"
        save_store(trace, path)
        assert tuple(iter_store(path)) == trace.sessions

    def test_store_smaller_than_jsonl(self, trace, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        store = tmp_path / "trace.store"
        save_jsonl(trace, jsonl)
        save_store(trace, store)
        assert store.stat().st_size < jsonl.stat().st_size / 3

    def test_empty_trace_round_trip(self, tmp_path):
        from repro.trace.events import Trace

        path = tmp_path / "empty.store"
        save_store(Trace.from_sessions([]), path)
        assert len(load_store(path)) == 0


class TestCsv:
    def test_round_trip_sessions(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(trace, path)
        loaded = load_csv(path, horizon=trace.horizon)
        assert loaded.sessions == trace.sessions
        assert loaded.horizon == trace.horizon

    def test_horizon_rederived_without_hint(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(trace, path)
        loaded = load_csv(path)
        assert loaded.horizon >= max(s.end for s in trace)

    def test_empty_trace_round_trip(self, tmp_path):
        from repro.trace.events import Trace

        path = tmp_path / "empty.csv"
        save_csv(Trace.from_sessions([]), path)
        assert len(load_csv(path)) == 0
