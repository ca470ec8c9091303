"""The kernel identity law: ``kernel="auto"`` == ``kernel="object"``.

The object kernel is the semantics reference; the compiled columnar
sweep that ``"auto"`` dispatches to (packed columns swept in C) must be
*bit-for-bit* interchangeable -- float equality on every ledger field
AND identical dict insertion orders, because downstream reduction folds
in iteration order.  ``hypothesis`` drives adversarial swarms at the
contract: window-boundary ties (integer starts against dtau grids),
single-member swarms, sessions shorter than one window, zero-supply
configs (upload ratio 0, participation 0), lingering seeds and
degenerate participation.  With the extension built, every schedule
comes from its C builders, lingering seeds included; without it
``"auto"`` runs the object kernel and the law holds trivially.

``hypothesis`` is an optional dependency: the module skips without it.
"""

import os
import struct
import subprocess
import sys
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import kernel_columns
from repro.sim.engine import KERNEL_MODES, SimulationConfig
from repro.sim.kernel import SwarmTask, run_ref_multi, run_swarm, run_swarm_object
from repro.sim.kernel_columns import run_ref_columnar, schedule_from_ref
from repro.sim.policies import SwarmKey
from repro.topology.nodes import intern_attachment
from repro.trace.events import SECONDS_PER_DAY, Session

LAW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HORIZON = 2 * SECONDS_PER_DAY

needs_compiled = pytest.mark.skipif(
    not kernel_columns.HAVE_COMPILED, reason="compiled kernel not built"
)

#: Small value spaces so examples collide on users, attachments and
#: window boundaries -- the tie-breaks and dict orders get real work.
_attachments = st.sampled_from(
    [
        intern_attachment("ISP-1", 0, 0),
        intern_attachment("ISP-1", 0, 1),
        intern_attachment("ISP-1", 1, 3),
        intern_attachment("ISP-2", 1, 5),
    ]
)

#: Starts drawn from both arbitrary seconds and exact dtau multiples,
#: so sessions tie on window boundaries often.
_starts = st.one_of(
    st.integers(min_value=0, max_value=int(HORIZON) - 1000),
    st.builds(lambda k: k * 60, st.integers(min_value=0, max_value=2000)),
)

_durations = st.sampled_from([1, 7, 60, 120, 601])  # sub-window to multi

#: About half the bodies end within 10 s -- under one ``delta_tau`` --
#: before a midnight, so a lingering seed's remove lands on the next day
#: after every session has ended: the schedule's day count must come from
#: the removes, not from the session ends.
_session_bodies = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # user_id (duplicates likely)
        _starts,
        _durations,
        st.sampled_from([800_000.0, 1_500_000.0]),  # bitrate
        _attachments,
    ),
    st.builds(
        lambda user_id, day, before, duration, bitrate, attachment: (
            user_id,
            day * SECONDS_PER_DAY - before - duration,
            duration,
            bitrate,
            attachment,
        ),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([1, 2]),
        st.sampled_from([0.5, 1.0, 9.0]),
        _durations,
        st.sampled_from([800_000.0, 1_500_000.0]),
        _attachments,
    ),
)

_configs = st.builds(
    SimulationConfig,
    upload_ratio=st.sampled_from([0.0, 0.2, 0.6, 1.0, 1.7]),
    upload_bandwidth=st.sampled_from([None, None, 1e6]),
    participation_rate=st.sampled_from([0.0, 0.35, 1.0]),
    seed_linger_seconds=st.sampled_from([0.0, 0.0, 180.0]),
    delta_tau=st.sampled_from([10.0, 30.0, 60.0]),
    allow_cross_isp_matching=st.booleans(),
)


@st.composite
def swarm_tasks(draw):
    bodies = draw(st.lists(_session_bodies, min_size=1, max_size=16))
    sessions = sorted(
        (
            Session(
                session_id=index,
                user_id=user_id,
                content_id="item",
                start=float(start),
                duration=float(duration),
                bitrate=bitrate,
                attachment=attachment,
            )
            for index, (user_id, start, duration, bitrate, attachment) in enumerate(
                bodies
            )
        ),
        key=lambda s: (s.start, s.session_id),
    )
    return SwarmTask(
        key=SwarmKey(content_id="item"), sessions=tuple(sessions), horizon=HORIZON
    )


def assert_bitwise_identical(reference, candidate):
    """Bit-for-bit output equality, dict insertion orders included."""
    a, b = reference.result.ledger, candidate.result.ledger
    assert (
        a.server_bits,
        a.demanded_bits,
        a.watch_seconds,
        a.sessions,
    ) == (b.server_bits, b.demanded_bits, b.watch_seconds, b.sessions)
    assert list(a.peer_bits.items()) == list(b.peer_bits.items())
    assert reference.result.capacity == candidate.result.capacity
    assert reference.result.arrival_rate == candidate.result.arrival_rate
    assert reference.result.mean_duration == candidate.result.mean_duration
    assert list(reference.per_isp_day.keys()) == list(candidate.per_isp_day.keys())
    for key in reference.per_isp_day:
        x, y = reference.per_isp_day[key], candidate.per_isp_day[key]
        assert (x.server_bits, x.demanded_bits, x.watch_seconds) == (
            y.server_bits,
            y.demanded_bits,
            y.watch_seconds,
        )
        assert list(x.peer_bits.items()) == list(y.peer_bits.items())
    assert list(reference.per_user.keys()) == list(candidate.per_user.keys())
    for user_id in reference.per_user:
        mine, theirs = reference.per_user[user_id], candidate.per_user[user_id]
        assert (mine.watched_bits, mine.uploaded_bits) == (
            theirs.watched_bits,
            theirs.uploaded_bits,
        )


class TestColumnarIdentityLaw:
    @LAW
    @given(task=swarm_tasks(), config=_configs)
    def test_columnar_equals_object(self, task, config):
        reference = run_swarm_object(task, config)
        assert_bitwise_identical(
            reference, run_swarm(task, replace(config, kernel="auto"))
        )

    @LAW
    @given(task=swarm_tasks(), configs=st.lists(_configs, min_size=1, max_size=4))
    def test_multi_columnar_equals_object_runs(self, task, configs):
        configs = [replace(config, kernel="auto") for config in configs]
        multi = run_ref_multi(task, configs)
        assert len(multi.outputs) == len(configs)
        if kernel_columns.HAVE_COMPILED:
            assert multi.schedule_builds >= 1
        for config, output in zip(configs, multi.outputs):
            assert_bitwise_identical(run_swarm_object(task, config), output)


@needs_compiled
class TestCompiledBackend:
    def test_no_ckernel_env_disables_compiled(self):
        """REPRO_NO_CKERNEL hides the compiled module at import."""
        code = (
            "from repro.sim.kernel_columns import HAVE_COMPILED; "
            "raise SystemExit(1 if HAVE_COMPILED else 0)"
        )
        env = dict(os.environ, REPRO_NO_CKERNEL="1")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0


class TestColumnSchedule:
    def _task(self, sessions):
        return SwarmTask(
            key=SwarmKey(content_id="item"),
            sessions=tuple(sessions),
            horizon=HORIZON,
        )

    def _session(self, index, user, start, duration, attachment=None):
        return Session(
            session_id=index,
            user_id=user,
            content_id="item",
            start=float(start),
            duration=float(duration),
            bitrate=1_000_000.0,
            attachment=attachment or intern_attachment("ISP-1", 0, 0),
        )

    @needs_compiled
    def test_events_sorted_and_windows_match_object_expressions(self):
        config = SimulationConfig(delta_tau=60.0)
        task = self._task(
            [self._session(0, 1, 30.0, 45.0), self._session(1, 2, 59.0, 300.0)]
        )
        schedule = schedule_from_ref(task, config)
        events = list(struct.unpack("<4q", schedule.packed[7]))
        assert events == sorted(events)
        decoded = [(e >> 34, (e >> 32) & 3, e & 0xFFFFFFFF) for e in events]
        # Session 0: [30, 75) -> windows [0, 2); session 1: [59, 359) -> [0, 6).
        assert (0, 2, 0) in decoded and (2, 0, 0) in decoded
        assert (0, 2, 1) in decoded and (6, 0, 1) in decoded
        assert schedule.num_days == 1

    @needs_compiled
    def test_sub_window_session_occupies_one_window(self):
        config = SimulationConfig(delta_tau=60.0)
        task = self._task([self._session(0, 1, 120.0, 1.0)])
        schedule = schedule_from_ref(task, config)
        output = run_ref_columnar(task, config)
        reference = run_swarm_object(task, config)
        assert schedule.n == 1
        assert_bitwise_identical(reference, output)

    @needs_compiled
    def test_unpackable_fields_decline_to_object_kernel(self):
        """An int start, or a pop past the u32 scope keys, declines
        ``build``; the task runs on the object kernel, identically."""
        config = SimulationConfig(delta_tau=60.0)
        first = self._session(0, 1, 0.0, 300.0)
        wide = intern_attachment("ISP-1", 2**32, 0)
        for odd in (
            replace(first, session_id=1, start=120),
            replace(first, session_id=1, attachment=wide),
        ):
            task = self._task([first, odd])
            assert schedule_from_ref(task, config) is None
            assert_bitwise_identical(
                run_swarm_object(task, config), run_ref_columnar(task, config)
            )

    def test_kernel_mode_validation(self):
        assert KERNEL_MODES == ("auto", "object")
        for removed in ("columnar", "vectorised"):
            with pytest.raises(ValueError):
                SimulationConfig(kernel=removed)

    def test_random_matching_config_uses_object_kernel_in_multi(self):
        config = SimulationConfig(locality_aware_matching=False)
        task = self._task([self._session(0, 1, 0.0, 120.0)])
        multi = run_ref_multi(task, [config])
        assert multi.schedule_builds == 0
        assert_bitwise_identical(run_swarm_object(task, config), multi.outputs[0])
