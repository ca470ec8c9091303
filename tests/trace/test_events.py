"""Tests for Session and Trace data model."""

import pytest

from repro.topology.nodes import AttachmentPoint
from repro.trace.events import SECONDS_PER_DAY, Session, Trace


def make_session(
    session_id=0,
    user_id=1,
    content_id="item-a",
    start=0.0,
    duration=600.0,
    bitrate=1.5e6,
    isp="ISP-1",
    pop=0,
    exchange=0,
    device="desktop",
):
    return Session(
        session_id=session_id,
        user_id=user_id,
        content_id=content_id,
        start=start,
        duration=duration,
        bitrate=bitrate,
        attachment=AttachmentPoint(isp=isp, pop=pop, exchange=exchange),
        device=device,
    )


class TestSession:
    def test_derived_fields(self):
        s = make_session(start=100.0, duration=50.0, bitrate=2e6)
        assert s.end == 150.0
        assert s.bits_watched == pytest.approx(1e8)
        assert s.isp == "ISP-1"

    def test_day_of_trace(self):
        assert make_session(start=0.0).day == 0
        assert make_session(start=SECONDS_PER_DAY - 1).day == 0
        assert make_session(start=SECONDS_PER_DAY).day == 1
        assert make_session(start=2.5 * SECONDS_PER_DAY).day == 2

    def test_overlaps(self):
        s = make_session(start=100.0, duration=100.0)
        assert s.overlaps(150.0, 160.0)
        assert s.overlaps(0.0, 101.0)
        assert s.overlaps(199.0, 300.0)
        assert not s.overlaps(200.0, 300.0)  # half-open interval
        assert not s.overlaps(0.0, 100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": -1.0},
            {"duration": 0.0},
            {"duration": -5.0},
            {"bitrate": 0.0},
            {"content_id": ""},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            make_session(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("start", float("nan")),
            ("start", float("-inf")),
            ("start", float("inf")),
            ("duration", float("nan")),
            ("duration", float("-inf")),
            ("duration", float("inf")),
            ("bitrate", float("nan")),
            ("bitrate", float("inf")),
            ("bitrate", float("-inf")),
        ],
    )
    def test_non_finite_fields_rejected_by_name(self, field, value):
        # A NaN would fail only deep in the kernel, after the whole sort,
        # an infinite bitrate would run to inf totals, and an infinite
        # start or duration would fail in Trace's horizon arithmetic.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_session(**{field: value})

    def test_immutable(self):
        s = make_session()
        with pytest.raises(AttributeError):
            s.start = 5.0


class TestTrace:
    def test_sessions_sorted_by_start(self):
        trace = Trace.from_sessions(
            [make_session(session_id=i, start=t) for i, t in enumerate([50.0, 10.0, 30.0])]
        )
        assert [s.start for s in trace] == [10.0, 30.0, 50.0]

    def test_horizon_rounds_up_to_days(self):
        trace = Trace.from_sessions([make_session(start=0.0, duration=90_000.0)])
        assert trace.horizon == 2 * SECONDS_PER_DAY
        assert trace.num_days == 2

    def test_explicit_horizon_kept(self):
        trace = Trace.from_sessions([make_session()], horizon=7 * SECONDS_PER_DAY)
        assert trace.num_days == 7

    def test_horizon_shorter_than_sessions_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_sessions([make_session(start=0, duration=7200.0)], horizon=3600.0)

    def test_empty_trace(self):
        trace = Trace.from_sessions([])
        assert len(trace) == 0
        assert trace.num_days == 1
        assert trace.total_bits() == 0.0

    def test_distinct_ids(self):
        trace = Trace.from_sessions(
            [
                make_session(session_id=0, user_id=5, content_id="b"),
                make_session(session_id=1, user_id=3, content_id="a"),
                make_session(session_id=2, user_id=5, content_id="a"),
            ]
        )
        assert trace.user_ids == [3, 5]
        assert trace.content_ids == ["a", "b"]

    def test_for_content_filters(self):
        trace = Trace.from_sessions(
            [
                make_session(session_id=0, content_id="a"),
                make_session(session_id=1, content_id="b"),
            ]
        )
        sub = trace.for_content("a")
        assert len(sub) == 1
        assert sub.horizon == trace.horizon

    def test_for_isp_filters(self):
        trace = Trace.from_sessions(
            [
                make_session(session_id=0, isp="ISP-1"),
                make_session(session_id=1, isp="ISP-2"),
            ]
        )
        assert len(trace.for_isp("ISP-2")) == 1
        assert trace.isps == ["ISP-1", "ISP-2"]

    def test_between_uses_overlap(self):
        trace = Trace.from_sessions(
            [
                make_session(session_id=0, start=0.0, duration=100.0),
                make_session(session_id=1, start=500.0, duration=100.0),
            ]
        )
        assert len(trace.between(50.0, 60.0)) == 1
        assert len(trace.between(0.0, 1000.0)) == 2

    def test_between_rejects_empty_interval(self):
        trace = Trace.from_sessions([make_session()])
        with pytest.raises(ValueError):
            trace.between(10.0, 10.0)

    def test_totals(self):
        trace = Trace.from_sessions(
            [
                make_session(session_id=0, duration=100.0, bitrate=1e6),
                make_session(session_id=1, duration=200.0, bitrate=2e6),
            ]
        )
        assert trace.total_bits() == pytest.approx(100 * 1e6 + 200 * 2e6)
        assert trace.total_watch_seconds() == pytest.approx(300.0)

    def test_mean_concurrency(self):
        # 86400 watch-seconds over a 1-day horizon = 1 concurrent viewer.
        trace = Trace.from_sessions(
            [make_session(session_id=i, start=0.0, duration=8640.0) for i in range(10)],
            horizon=SECONDS_PER_DAY,
        )
        assert trace.mean_concurrency() == pytest.approx(1.0)


class TestDerivedViewCaching:
    """user_ids / content_ids / isps / total_bits() are O(n) scans; they
    must run once per trace, not once per access."""

    def make_trace(self):
        return Trace.from_sessions(
            [
                make_session(session_id=0, duration=100.0, bitrate=1e6),
                make_session(session_id=1, duration=200.0, bitrate=2e6),
            ]
        )

    def test_id_views_cached(self):
        trace = self.make_trace()
        assert trace.user_ids is trace.user_ids
        assert trace.content_ids is trace.content_ids
        assert trace.isps is trace.isps

    def test_repeated_total_bits_does_not_rescan(self, monkeypatch):
        trace = self.make_trace()
        calls = []
        original = Session.bits_watched

        def counting(self):
            calls.append(1)
            return original.__get__(self)

        monkeypatch.setattr(Session, "bits_watched", property(counting))
        first = trace.total_bits()
        scans = len(calls)
        assert scans == len(trace)
        assert trace.total_bits() == first
        assert len(calls) == scans  # cached: no further per-session work

    def test_caches_are_per_instance(self):
        trace = self.make_trace()
        assert trace.user_ids == [1]
        other = Trace.from_sessions([make_session(session_id=5, user_id=9)])
        assert other.user_ids == [9]

    def test_cached_values_correct(self):
        trace = self.make_trace()
        assert trace.total_bits() == pytest.approx(100 * 1e6 + 200 * 2e6)
        assert trace.content_ids == ["item-a"]
