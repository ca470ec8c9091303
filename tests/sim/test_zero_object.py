"""The zero-object ingest law: extent refs == resident-object tasks.

The zero-object path (``schedule_from_ref`` / ``run_ref``) builds the
packed columnar schedule straight from a shard extent's raw 56-byte
records in one fused C pass (``_ckernel.decode_build``), without ever
materialising a ``Session``.  Its contract is *byte* equality: the
packed columns must be identical to what ``_ckernel.build`` packs from
the resident sessions, and the swept outputs must be bit-for-bit the
object kernel's.

``hypothesis`` drives adversarial stores at the contract: duplicate
users, window-boundary starts, sub-window durations, multi-ISP
attachments and lingering seeds.  A subprocess check pins compiled
outputs against a ``REPRO_NO_CKERNEL=1`` interpreter (the object
kernel), so compiled and pure-python installs are provably
interchangeable at the store-file boundary.

``hypothesis`` is an optional dependency: the module skips without it.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import kernel_columns
from repro.sim.engine import SimulationConfig
from repro.sim.grouping import ExtentTaskRef
from repro.sim.kernel import (
    SwarmTask,
    resolve_task,
    run_ref,
    run_ref_multi,
    run_swarm,
    run_swarm_object,
)
from repro.sim.kernel_columns import ColumnSchedule, schedule_from_ref
from repro.sim.policies import SwarmKey
from repro.sim.profiling import PROFILE
from repro.topology.nodes import intern_attachment
from repro.trace.events import SECONDS_PER_DAY, Session
from repro.trace.store import StoreWriter, clear_reader_cache

LAW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HORIZON = 2 * SECONDS_PER_DAY

needs_compiled = pytest.mark.skipif(
    not kernel_columns.HAVE_COMPILED, reason="compiled kernel not built"
)


@contextmanager
def _no_compiled_backend():
    """Mask the compiled module, as an install without it sees it."""
    saved = kernel_columns._ckernel, kernel_columns.HAVE_COMPILED
    kernel_columns._ckernel, kernel_columns.HAVE_COMPILED = None, False
    try:
        yield
    finally:
        kernel_columns._ckernel, kernel_columns.HAVE_COMPILED = saved


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

_attachments = st.sampled_from(
    [
        intern_attachment("ISP-1", 0, 0),
        intern_attachment("ISP-1", 0, 1),
        intern_attachment("ISP-1", 1, 3),
        intern_attachment("ISP-2", 1, 5),
    ]
)

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


_store_counter = itertools.count()
_store_dir = tempfile.TemporaryDirectory(prefix="zero-object-stores-")


def _store_ref(task: SwarmTask) -> ExtentTaskRef:
    """Persist a task's sessions to a fresh store; hand back its extent.

    Fresh path per call: the shared reader cache is keyed by path, so
    reusing one would serve a previous example's records.
    """
    path = os.path.join(_store_dir.name, f"task-{next(_store_counter)}.store")
    with StoreWriter(path, horizon=task.horizon) as writer:
        for session in task.sessions:
            writer.append(session)
    return ExtentTaskRef(
        path=path,
        index=0,
        count=len(task.sessions),
        key=task.key,
        horizon=task.horizon,
    )


@pytest.fixture(scope="module", autouse=True)
def _clean_readers():
    yield
    clear_reader_cache()


def _schedule_bytes(schedule: ColumnSchedule) -> bytes:
    """Everything the sweep consumes, as one comparable byte string."""
    digest = hashlib.sha256()
    for buffer in schedule.packed:
        digest.update(buffer)
    digest.update(
        repr(
            (
                schedule.slot_users,
                schedule.num_users,
                schedule.num_ex,
                schedule.num_pop,
                schedule.num_isp,
                schedule.num_days,
                schedule.mean_duration,
            )
        ).encode()
    )
    return digest.digest()


@needs_compiled
class TestPackedEqualityLaw:
    @LAW
    @given(task=swarm_tasks(), config=_configs)
    def test_ref_schedule_packs_object_schedule(self, task, config):
        """``decode_build`` over an extent packs what ``build`` packs."""
        ref = _store_ref(task)
        assert _schedule_bytes(schedule_from_ref(ref, config)) == _schedule_bytes(
            schedule_from_ref(task, config)
        )


class TestZeroObjectOutputs:
    @LAW
    @given(task=swarm_tasks(), config=_configs)
    def test_run_ref_equals_object_kernel(self, task, config):
        ref = _store_ref(task)
        assert_bitwise_identical(
            run_swarm_object(task, config), run_ref(ref, config)
        )

    @LAW
    @given(task=swarm_tasks(), config=_configs)
    def test_run_ref_block_equals_object_block(self, task, config):
        """The C sweep writes the object kernel's block, byte for byte."""
        ref = _store_ref(task)
        output = run_ref(ref, config)
        assert output == run_swarm_object(resolve_task(ref), config)
        assert output.block == run_swarm_object(task, config).block

    @LAW
    @given(task=swarm_tasks(), configs=st.lists(_configs, min_size=1, max_size=3))
    def test_run_ref_multi_equals_object_runs(self, task, configs):
        configs = [replace(config, kernel="auto") for config in configs]
        ref = _store_ref(task)
        multi = run_ref_multi(ref, configs)
        assert len(multi.outputs) == len(configs)
        if kernel_columns.HAVE_COMPILED:
            assert multi.schedule_builds >= 1
        for config, output in zip(configs, multi.outputs):
            assert_bitwise_identical(run_swarm_object(task, config), output)

    def test_object_kernel_config_resolves_the_task(self):
        """kernel="object" on a ref decodes and runs the reference kernel."""
        task = SwarmTask(
            key=SwarmKey(content_id="item"),
            sessions=(
                Session(
                    session_id=0,
                    user_id=1,
                    content_id="item",
                    start=30.0,
                    duration=120.0,
                    bitrate=1_000_000.0,
                    attachment=intern_attachment("ISP-1", 0, 0),
                ),
            ),
            horizon=HORIZON,
        )
        ref = _store_ref(task)
        config = SimulationConfig(kernel="object")
        assert_bitwise_identical(
            run_swarm_object(task, config), run_ref(ref, config)
        )


class TestWithoutCompiledModule:
    @LAW
    @given(task=swarm_tasks(), configs=st.lists(_configs, min_size=1, max_size=3))
    def test_auto_runs_the_object_kernel(self, task, configs):
        """Without the extension every ``"auto"`` entry point is the
        object kernel, and a sweep builds no schedule."""
        ref = _store_ref(task)
        with _no_compiled_backend():
            multi = run_ref_multi(task, configs)
            assert multi.schedule_builds == 0
            for config, output in zip(configs, multi.outputs):
                reference = run_swarm_object(task, config)
                assert_bitwise_identical(reference, output)
                assert_bitwise_identical(reference, run_swarm(task, config))
                assert_bitwise_identical(reference, run_ref(ref, config))


@needs_compiled
class TestWideWindowDecline:
    """Events past window ``2**29`` do not fit the C sweep's int64
    encoding: both C builders decline, and the task runs on the object
    kernel instead, with identical results."""

    def _task(self) -> SwarmTask:
        dtau = SimulationConfig().delta_tau
        far = float(2**29) * dtau
        attachment = intern_attachment("ISP-1", 0, 0)
        sessions = [
            Session(
                session_id=index,
                user_id=index % 2,
                content_id="item",
                start=start,
                duration=duration,
                bitrate=1_000_000.0,
                attachment=attachment,
            )
            for index, (start, duration) in enumerate(
                [(0.0, 600.0), (30.0, 900.0), (far, 120.0), (far + 10.0, 45.0)]
            )
        ]
        return SwarmTask(
            key=SwarmKey(content_id="item"),
            sessions=tuple(sessions),
            horizon=far + 86_400.0,
        )

    @pytest.mark.parametrize("entry", ["task", "extent"])
    def test_window_past_int64_encoding_runs_on_object_kernel(self, entry):
        task = self._task()
        config = SimulationConfig()
        ref = task if entry == "task" else _store_ref(task)
        assert schedule_from_ref(ref, config) is None
        PROFILE.reset()
        PROFILE.enabled = True
        try:
            output = run_ref(ref, config)
        finally:
            PROFILE.enabled = False
        assert_bitwise_identical(run_swarm_object(task, config), output)
        assert (PROFILE.tasks, PROFILE.compiled_tasks) == (1, 0)
        PROFILE.reset()

    @pytest.mark.parametrize("entry", ["task", "extent"])
    def test_sweep_runs_a_declined_task_on_object_kernel(self, entry):
        task = self._task()
        configs = [
            SimulationConfig(),
            SimulationConfig(
                upload_ratio=0.4, seed_linger_seconds=180.0, participation_rate=0.35
            ),
        ]
        ref = task if entry == "task" else _store_ref(task)
        PROFILE.reset()
        PROFILE.enabled = True
        try:
            multi = run_ref_multi(ref, configs)
        finally:
            PROFILE.enabled = False
        for config, output in zip(configs, multi.outputs):
            assert_bitwise_identical(run_swarm_object(task, config), output)
        assert multi.schedule_builds == 0
        assert (PROFILE.tasks, PROFILE.compiled_tasks) == (2, 0)
        PROFILE.reset()


@needs_compiled
class TestFusedDecoder:
    def _deterministic_task(self) -> SwarmTask:
        """200 sessions with colliding users, windows and attachments."""
        attachments = [
            intern_attachment("ISP-1", 0, 0),
            intern_attachment("ISP-1", 1, 3),
            intern_attachment("ISP-2", 1, 5),
        ]
        sessions = sorted(
            (
                Session(
                    session_id=index,
                    user_id=(index * 7) % 23,
                    content_id="item",
                    start=float((index * 977) % int(HORIZON - 2000)),
                    duration=float(1 + (index * 13) % 700),
                    bitrate=[800_000.0, 1_500_000.0][index % 2],
                    attachment=attachments[index % 3],
                )
                for index in range(200)
            ),
            key=lambda s: (s.start, s.session_id),
        )
        return SwarmTask(
            key=SwarmKey(content_id="item"),
            sessions=tuple(sessions),
            horizon=HORIZON,
        )

    def test_compiled_outputs_match_no_ckernel_subprocess(self):
        """Compiled ``run_ref`` equals a ``REPRO_NO_CKERNEL=1`` interpreter.

        The strongest interchangeability statement: a compiled install
        and a pure-python one (the object kernel), separated by a
        process boundary, derive the same output digest from the same
        store file, with and without lingering seeds.
        """
        ref = _store_ref(self._deterministic_task())
        code = (
            "from repro.sim.engine import SimulationConfig\n"
            "from repro.sim.grouping import ExtentTaskRef\n"
            "from repro.sim.kernel import merge_outputs, run_ref\n"
            "from repro.sim.kernel_columns import HAVE_COMPILED\n"
            "from repro.sim.policies import SwarmKey\n"
            "from repro.sim.profiling import PROFILE\n"
            "from repro.sim.service import result_digest\n"
            f"ref = ExtentTaskRef(path={ref.path!r}, index=0, "
            f"count={ref.count}, key=SwarmKey(content_id='item'), "
            f"horizon={ref.horizon!r})\n"
            "PROFILE.enabled = True\n"
            "for config in (SimulationConfig(), SimulationConfig("
            "seed_linger_seconds=180.0, participation_rate=0.35)):\n"
            "    result = merge_outputs([run_ref(ref, config)], "
            "delta_tau=config.delta_tau, horizon=ref.horizon, "
            "upload_ratio=config.upload_ratio)\n"
            "    print(result_digest(result))\n"
            "print(HAVE_COMPILED, PROFILE.compiled_tasks)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        lines = {}
        for hidden in (False, True):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            env.pop("REPRO_NO_CKERNEL", None)
            if hidden:
                env["REPRO_NO_CKERNEL"] = "1"
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            lines[hidden] = proc.stdout.split()
        assert lines[False][-2:] == ["True", "2"]
        assert lines[True][-2:] == ["False", "0"]
        assert lines[False][:2] == lines[True][:2]

    def test_fused_decoder_builds_lingering_seeds(self):
        """Lingering seeds take the fused path and pack what ``build`` packs."""
        task = self._deterministic_task()
        ref = _store_ref(task)
        config = SimulationConfig(seed_linger_seconds=180.0, participation_rate=0.35)
        PROFILE.reset()
        PROFILE.enabled = True
        try:
            schedule = schedule_from_ref(ref, config)
        finally:
            PROFILE.enabled = False
        assert PROFILE.fused_tasks == 1
        PROFILE.reset()
        assert len(schedule.packed[7]) > 2 * 8 * schedule.n  # demote events
        assert _schedule_bytes(schedule) == _schedule_bytes(
            schedule_from_ref(task, config)
        )

    def test_linger_past_midnight_matches_object_kernel(self):
        """A linger remove after every session end sizes the day ledgers.

        The last session ends at 86,390 s; at ``delta_tau`` 10 its 600 s
        linger removes it at window 8,699, past midnight (window 8,640),
        so the schedule spans two days although every session ends on
        day 0.
        """
        attachment = intern_attachment("ISP-1", 0, 0)
        sessions = tuple(
            Session(
                session_id=index,
                user_id=index + 1,
                content_id="item",
                start=start,
                duration=duration,
                bitrate=1_500_000.0,
                attachment=attachment,
            )
            for index, (start, duration) in enumerate(
                [(85_800.0, 590.0), (86_000.0, 300.0)]
            )
        )
        task = SwarmTask(
            key=SwarmKey(content_id="item", isp="ISP-1"),
            sessions=sessions,
            horizon=HORIZON,
        )
        config = SimulationConfig(delta_tau=10.0, seed_linger_seconds=600.0)
        reference = run_swarm_object(task, config)
        assert ("ISP-1", 1) in reference.per_isp_day
        for ref in (task, _store_ref(task)):
            assert schedule_from_ref(ref, config).num_days == 2
            assert_bitwise_identical(reference, run_ref(ref, config))
