"""Law: the compiled external sort writes the tuple sort's shard, byte for byte.

:class:`~repro.trace.store.ExternalGroupSorter` has two paths.  With the
compiled extension, ``_ckernel.SortBuffer`` packs each session into a
48 B run record, sorts full buffers in place on the ranks of the groups
seen so far and merges the runs in C; without it (``REPRO_NO_CKERNEL=1``)
each session is a tuple led by its group's order, sorted by python and
merged by ``heapq.merge``.  The tuple path is the semantics reference:
for any session multiset, add order, sort-buffer size and swarm policy,
both must write the same shard bytes and extents and report the same
:class:`~repro.trace.store.SorterStats`.

The strategies aim at what a packed sort can get wrong: buffers of one
session up to one more than the stream (every spill count), add orders in
which each new group sorts before every earlier one (so the ranking a
spill sees changes between spills), equal starts, ``0.0`` and ``-0.0``
starts, duplicate session ids, and the paper, cross-ISP and epoch-6h
policies.  ``hypothesis`` is optional: the law skips without it, and
the whole module skips without the compiled extension.
"""

import hashlib
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from repro.sim import kernel_columns
from repro.sim.grouping import ExternalGrouping
from repro.sim.policies import PAPER_POLICY, EpochPolicy, SwarmPolicy
from repro.sim.profiling import PROFILE
from repro.topology.nodes import intern_attachment
from repro.trace.events import SECONDS_PER_DAY, Session
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.store import ExternalGroupSorter

pytestmark = pytest.mark.skipif(
    not kernel_columns.HAVE_COMPILED, reason="needs the compiled extension"
)

HORIZON = 2 * SECONDS_PER_DAY

POLICIES = {
    "paper": PAPER_POLICY,
    "cross-isp": SwarmPolicy(split_by_isp=False),
    "epoch-6h": EpochPolicy(PAPER_POLICY, 6 * 3600.0),
}


@contextmanager
def tuple_path():
    """Hide the compiled extension from sorters built inside the block."""
    with mock.patch.object(kernel_columns, "_ckernel", None):
        yield


def sort(sessions, policy, directory: Path, run_sessions: int):
    """Sort as external grouping does; returns (shard bytes, extents, stats, compiled)."""
    directory.mkdir(parents=True)
    sorter = ExternalGroupSorter(directory, run_sessions=run_sessions)
    ids, keys = {}, []
    for session in sessions:
        key = policy.key_for(session)
        if key not in ids:
            ids[key] = sorter.group(key.sort_key())
            keys.append(key)
        sorter.add(ids[key], session)
    path = directory / "sorted.store"
    extents = [
        (keys[group], index, count)
        for group, index, count in sorter.write(path, HORIZON)
    ]
    shard = path.read_bytes()
    assert sorted(p.name for p in directory.iterdir()) == ["sorted.store"]
    return shard, extents, sorter.stats, sorter._packed is not None


def assert_paths_agree(sessions, policy, directory: Path, run_sessions: int):
    compiled = sort(sessions, policy, directory / "compiled", run_sessions)
    with tuple_path():
        reference = sort(sessions, policy, directory / "tuple", run_sessions)
    assert compiled[3] and not reference[3]
    assert compiled[:3] == reference[:3]


class TestScripted:
    """Hand-built cases, each pinning one tie or ordering hazard."""

    def session(self, sid, start, content="a", isp="ISP-1", exchange=0, **extra):
        return Session(
            session_id=sid,
            user_id=extra.pop("user_id", sid % 3),
            content_id=content,
            start=start,
            duration=extra.pop("duration", 120.0),
            bitrate=extra.pop("bitrate", 1_500_000.0),
            attachment=intern_attachment(isp, 0, exchange),
            **extra,
        )

    def test_later_groups_sorting_first_after_each_spill(self, tmp_path):
        # Every spill of two sessions sees a new group that sorts before
        # all earlier ones; the merge must still use the final ranking.
        sessions = [
            self.session(sid, 60.0 * sid, content=content)
            for sid, content in enumerate("ffeeddccbbaa")
        ]
        assert_paths_agree(sessions, PAPER_POLICY, tmp_path, 2)

    def test_signed_zero_starts_with_duplicate_ids_keep_add_order(self, tmp_path):
        # Records equal in every compared field but the sign of a zero
        # start: both paths keep add order in a buffer, run order across
        # runs, and write each record's own bytes.
        sessions = [
            self.session(1, start, user_id=0) for start in (-0.0, 0.0, 0.0, -0.0, -0.0)
        ]
        for run_sessions in (1, 2, 3, 6):
            assert_paths_agree(
                sessions, PAPER_POLICY, tmp_path / str(run_sessions), run_sessions
            )

    def test_equal_starts_break_ties_on_session_id(self, tmp_path):
        sessions = [self.session(sid, 600.0, user_id=9 - sid) for sid in (5, 3, 9, 1)]
        assert_paths_agree(sessions, PAPER_POLICY, tmp_path, 3)

    def test_strings_interned_in_merged_order(self, tmp_path):
        # Added z-first, merged a-first: the shard's string tables follow
        # the merged stream, not the add order.
        sessions = [
            self.session(0, 10.0, content="z", isp="ISP-9", device="tv"),
            self.session(1, 20.0, content="a", isp="ISP-2", device="mobile"),
        ]
        assert_paths_agree(sessions, SwarmPolicy(split_by_isp=False), tmp_path, 1)

    def test_inputs_the_packer_reads_by_attribute(self, tmp_path):
        # A Session subclass, int-valued times and a duck-typed session
        # are read through their attributes, not Session's slots.
        class Tagged(Session):
            pass

        class Duck:
            def __init__(self, session):
                for name in Session.__dataclass_fields__:
                    setattr(self, name, getattr(session, name))

            @property
            def isp(self):
                return self.attachment.isp

        plain = [self.session(sid, 30.0 * sid, content="ab"[sid % 2]) for sid in range(8)]
        sessions = [
            Tagged(**{name: getattr(s, name) for name in Session.__dataclass_fields__})
            if s.session_id % 3 == 0
            else Duck(s) if s.session_id % 3 == 1 else s
            for s in plain
        ]
        sessions.append(self.session(8, 90, duration=60))
        assert_paths_agree(sessions, PAPER_POLICY, tmp_path, 3)

    def test_golden_trace_under_every_policy(self, tmp_path):
        config = GeneratorConfig(
            num_users=250, num_items=20, days=2, expected_sessions=2_000, seed=23
        )
        sessions = list(TraceGenerator(config=config).iter_sessions())
        for name, policy in POLICIES.items():
            assert_paths_agree(sessions, policy, tmp_path / name, 97)

    def test_spilling_plan_counts_a_compiled_sort(self, tmp_path):
        sessions = [self.session(sid, 7.0 * sid) for sid in range(40)]
        PROFILE.enabled = True
        PROFILE.reset()
        try:
            plan = ExternalGrouping(run_sessions=8).plan(sessions, HORIZON, PAPER_POLICY)
            plan.cleanup()
        finally:
            PROFILE.enabled = False
        assert plan.stats().runs_spilled == 5
        assert PROFILE.compiled_sorts == 1

    def test_no_ckernel_subprocess_writes_the_same_shard(self, tmp_path):
        """A ``REPRO_NO_CKERNEL=1`` interpreter writes the same shard."""
        code = (
            "import hashlib, sys, tempfile\n"
            "from repro.sim.grouping import ExternalGrouping\n"
            "from repro.sim.kernel_columns import HAVE_COMPILED\n"
            "from repro.sim.policies import PAPER_POLICY\n"
            "from repro.trace.generator import GeneratorConfig, TraceGenerator\n"
            "assert not HAVE_COMPILED\n"
            "config = GeneratorConfig(num_users=250, num_items=20, days=2, "
            "expected_sessions=2_000, seed=23)\n"
            "trace = TraceGenerator(config=config).generate()\n"
            "plan = ExternalGrouping(shard_dir=sys.argv[1], run_sessions=300).plan(\n"
            "    trace.sessions, trace.horizon, PAPER_POLICY)\n"
            "data = open(plan.manifest.path, 'rb').read()\n"
            "print(hashlib.sha256(data).hexdigest(), plan.stats().runs_spilled)\n"
        )
        env = dict(os.environ, REPRO_NO_CKERNEL="1")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "python")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        config = GeneratorConfig(
            num_users=250, num_items=20, days=2, expected_sessions=2_000, seed=23
        )
        trace = TraceGenerator(config=config).generate()
        plan = ExternalGrouping(shard_dir=tmp_path / "c", run_sessions=300).plan(
            trace.sessions, trace.horizon, PAPER_POLICY
        )
        data = Path(plan.manifest.path).read_bytes()
        expected = f"{hashlib.sha256(data).hexdigest()} {plan.stats().runs_spilled}"
        assert proc.stdout.strip() == expected


class TestMemory:
    def test_buffer_costs_under_sixty_bytes_a_session(self, tmp_path):
        """A full buffer, spill included, stays under 60 B a session.

        Its records are 48 B; the in-place sort adds 4 B of indices.
        """
        import tracemalloc

        n = 50_000
        attachments = [intern_attachment("ISP-1", k % 7, k) for k in range(200)]
        sorter = ExternalGroupSorter(tmp_path, run_sessions=n)
        groups = [sorter.group((k,)) for k in range(20)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for sid in range(n):
                sorter.add(
                    groups[sid % 20],
                    Session(
                        sid,
                        sid % 1000,
                        "item",
                        float(sid * 7919 % 86_400),
                        60.0,
                        1_500_000.0,
                        attachments[sid % 200],
                    ),
                )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sorter.stats.runs_spilled == 1
        assert peak / n <= 60


# ----------------------------------------------------------------------
# The law
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

LAW = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Starts that collide: exact ties, both zeros and an epoch boundary.
_starts = st.one_of(
    st.sampled_from([0.0, -0.0, 600.0, 6 * 3600.0, 6 * 3600.0 - 0.5]),
    st.floats(min_value=0.0, max_value=HORIZON - 600.0),
)

_bodies = st.tuples(
    st.integers(min_value=0, max_value=5),  # session id: duplicates happen
    st.integers(min_value=0, max_value=3),  # user id
    st.sampled_from(["a", "b", "c", "d"]),  # content id
    _starts,
    st.sampled_from([60.0, 120.0, 599.5]),  # duration
    st.sampled_from([800_000.0, 1_500_000.0, 3_000_000.0]),  # bitrate
    st.sampled_from(["ISP-1", "ISP-2", "ISP-3"]),
    st.integers(min_value=0, max_value=2),  # exchange
    st.sampled_from(["tv", "desktop"]),  # device
)


@st.composite
def streams(draw):
    """(sessions in add order, policy, run_sessions)."""
    bodies = draw(st.lists(_bodies, min_size=1, max_size=40))
    sessions = [
        Session(
            session_id=sid,
            user_id=user,
            content_id=content,
            start=start,
            duration=duration,
            bitrate=bitrate,
            attachment=intern_attachment(isp, exchange % 2, exchange),
            device=device,
        )
        for sid, user, content, start, duration, bitrate, isp, exchange, device in bodies
    ]
    policy = POLICIES[draw(st.sampled_from(sorted(POLICIES)))]
    if draw(st.booleans()):
        # Each new group sorts before every group added before it.
        sessions.sort(key=lambda s: policy.key_for(s).sort_key(), reverse=True)
    run_sessions = draw(st.integers(min_value=1, max_value=len(sessions) + 1))
    return sessions, policy, run_sessions


class TestCompiledEqualsTupleSort:
    @LAW
    @given(stream=streams())
    def test_same_shard_extents_and_stats(self, stream, tmp_path_factory):
        sessions, policy, run_sessions = stream
        assert_paths_agree(sessions, policy, tmp_path_factory.mktemp("law"), run_sessions)
