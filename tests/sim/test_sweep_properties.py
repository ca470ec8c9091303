"""Property test: run_ref_multi == K x run_swarm, bit for bit.

The sweep kernel's contract handed to ``hypothesis``: for *any* swarm
(adversarial structure -- shared users, tying start times, lingering
seeds) and *any* config list (mixed upload ratios, bandwidth overrides,
participation rates, window sizes, matching flags), every output of
``run_ref_multi`` equals the corresponding independent ``run_swarm``
output exactly -- float equality on every ledger field, every (ISP,
day) delta and every per-user delta.  ``hypothesis`` is an optional
dependency: the module skips when it is missing.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.engine import SimulationConfig
from repro.sim.kernel import SwarmTask, run_ref_multi, run_swarm
from repro.sim.policies import SwarmKey
from repro.topology.nodes import intern_attachment
from repro.trace.events import SECONDS_PER_DAY, Session

LAW = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HORIZON = 2 * SECONDS_PER_DAY

#: Small value spaces so examples collide on users and attachments --
#: the schedule sharing and the seed/fresh tie-breaks get real work.
_attachments = st.sampled_from(
    [
        intern_attachment("ISP-1", 0, 0),
        intern_attachment("ISP-1", 0, 1),
        intern_attachment("ISP-1", 1, 3),
        intern_attachment("ISP-2", 1, 5),
    ]
)

#: About half the bodies end within 10 s -- under one ``delta_tau`` --
#: before a midnight, so a lingering seed's remove lands on the next day
#: after every session has ended: the schedule's day count must come from
#: the removes, not from the session ends.
_session_bodies = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # user_id (duplicates likely)
        st.integers(min_value=0, max_value=int(HORIZON) - 600),  # start (s)
        st.integers(min_value=60, max_value=900),  # duration (s)
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
        st.integers(min_value=60, max_value=900),
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
    delta_tau=st.sampled_from([10.0, 30.0]),
    allow_cross_isp_matching=st.booleans(),
    locality_aware_matching=st.booleans(),
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


def assert_bitwise_equal(reference, candidate):
    a, b = reference.result.ledger, candidate.result.ledger
    assert (
        a.server_bits,
        a.peer_bits,
        a.demanded_bits,
        a.watch_seconds,
        a.sessions,
    ) == (b.server_bits, b.peer_bits, b.demanded_bits, b.watch_seconds, b.sessions)
    assert reference.result.capacity == candidate.result.capacity
    assert reference.per_isp_day.keys() == candidate.per_isp_day.keys()
    for key in reference.per_isp_day:
        x, y = reference.per_isp_day[key], candidate.per_isp_day[key]
        assert (x.server_bits, x.peer_bits, x.demanded_bits, x.watch_seconds) == (
            y.server_bits,
            y.peer_bits,
            y.demanded_bits,
            y.watch_seconds,
        )
    assert reference.per_user.keys() == candidate.per_user.keys()
    for user_id in reference.per_user:
        mine, theirs = reference.per_user[user_id], candidate.per_user[user_id]
        assert (mine.watched_bits, mine.uploaded_bits) == (
            theirs.watched_bits,
            theirs.uploaded_bits,
        )


class TestSweepKernelLaw:
    @LAW
    @given(task=swarm_tasks(), configs=st.lists(_configs, min_size=1, max_size=6))
    def test_multi_equals_independent_runs(self, task, configs):
        multi = run_ref_multi(task, configs)
        assert len(multi.outputs) == len(configs)
        for config, output in zip(configs, multi.outputs):
            assert_bitwise_equal(run_swarm(task, config), output)
