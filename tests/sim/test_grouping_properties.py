"""Property test: grouping strategy x input permutation never changes results.

The out-of-core refactor's core claim, stated as a law and handed to
`hypothesis`: for *any* session multiset and *any* input order, the
memory and external grouping strategies produce bit-for-bit identical
simulation results -- under a batch policy and under a time-scoped
(epoch) policy, whose swarm keys also depend on each session's start.
Sessions are drawn with adversarial structure -- shared swarm keys,
shared users, ties in start times -- precisely the cases where a
sort/merge bug would reorder the fold.  ``hypothesis``
is an optional dependency: the module skips when it is missing.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import SimulationConfig, Simulator
from repro.sim.grouping import ExternalGrouping, MemoryGrouping
from repro.sim.policies import PAPER_POLICY, EpochPolicy
from repro.topology.nodes import intern_attachment
from repro.trace.events import SECONDS_PER_DAY, Session

LAW = settings(
    max_examples=60,  # each example runs four full simulations
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HORIZON = 2 * SECONDS_PER_DAY

#: A deliberately tiny value space so examples collide on swarm keys,
#: users and attachment points -- grouping has real work to do.
_attachments = st.sampled_from(
    [
        intern_attachment("ISP-1", 0, 0),
        intern_attachment("ISP-1", 0, 1),
        intern_attachment("ISP-2", 1, 5),
    ]
)

_session_bodies = st.tuples(
    st.integers(min_value=0, max_value=9),  # user_id
    st.sampled_from(["item-a", "item-b", "item-c"]),  # content_id
    st.integers(min_value=0, max_value=int(HORIZON) - 600),  # start (s)
    st.integers(min_value=60, max_value=600),  # duration (s)
    st.sampled_from([800_000.0, 1_500_000.0]),  # bitrate
    _attachments,
)


@st.composite
def session_lists(draw):
    bodies = draw(st.lists(_session_bodies, min_size=1, max_size=24))
    sessions = [
        Session(
            session_id=index,
            user_id=user_id,
            content_id=content_id,
            start=float(start),
            duration=float(duration),
            bitrate=bitrate,
            attachment=attachment,
        )
        for index, (user_id, content_id, start, duration, bitrate, attachment)
        in enumerate(bodies)
    ]
    permutation = draw(st.permutations(sessions))
    return sessions, permutation


#: The time-scoped policy under test: 6-hour epochs, so the two-day
#: horizon spans eight and drawn sessions spread over several.
EPOCH_POLICY = EpochPolicy(PAPER_POLICY, 6 * 3600.0)


def _run(sessions, grouping, tmp_dir, policy):
    simulator = Simulator(
        SimulationConfig(policy=policy),
        grouping=(
            ExternalGrouping(shard_dir=tmp_dir, run_sessions=7)
            if grouping == "external"
            else MemoryGrouping()
        ),
    )
    return simulator.run_stream(iter(sessions), HORIZON)


def _check_law(sessions, permutation, tmp_dir, policy):
    reference = _run(sessions, "memory", tmp_dir, policy)
    # Memory grouping on the permuted stream.
    assert reference.identical_to(_run(permutation, "memory", tmp_dir, policy))
    # External grouping on both orders (run_sessions=7 forces real
    # spill-and-merge on most examples).
    assert reference.identical_to(_run(sessions, "external", tmp_dir, policy))
    assert reference.identical_to(_run(permutation, "external", tmp_dir, policy))


class TestGroupingLaws:
    @LAW
    @given(data=session_lists())
    def test_strategy_and_permutation_invariance(self, data, tmp_path_factory):
        _check_law(*data, tmp_path_factory.mktemp("shards"), PAPER_POLICY)

    @LAW
    @given(data=session_lists())
    def test_strategy_and_permutation_invariance_under_epochs(
        self, data, tmp_path_factory
    ):
        _check_law(*data, tmp_path_factory.mktemp("shards"), EPOCH_POLICY)
