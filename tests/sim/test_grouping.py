"""Grouping strategies: external == memory, bit for bit, lazily.

The out-of-core grouping contract (repro/sim/grouping.py): the external
merge-sort strategy must produce the *identical* canonical task
sequence the in-memory grouping produces -- same keys, same session
order inside each task -- so every downstream result is bit-for-bit
equal; its coordinator residency must be bounded by the sort buffer;
and its plan must hand workers extent refs, not pickled sessions.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.sim import SimulationConfig, Simulator, faults, kernel_columns, simulate
from repro.sim.backends import SerialBackend
from repro.sim.grouping import (
    GROUPING_MODES,
    ExtentTaskRef,
    ExternalGrouping,
    MemoryGrouping,
    as_task_plan,
    plan_handoff,
    resolve_grouping,
)
from repro.sim.kernel import SwarmTask, build_tasks, resolve_task
from repro.sim.policies import PAPER_POLICY, EpochPolicy, SwarmPolicy
from repro.topology.nodes import AttachmentPoint
from repro.trace.generator import GeneratorConfig, TraceGenerator


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=250, num_items=20, days=2, expected_sessions=2_000, seed=23
    )
    return TraceGenerator(config=config).generate()


def assert_same_tasks(a, b):
    """Two task sequences are identical: keys, sessions, horizons."""
    a, b = list(a), list(b)
    assert len(a) == len(b)
    for task_a, task_b in zip(a, b):
        assert task_a.key == task_b.key
        assert task_a.horizon == task_b.horizon
        assert task_a.sessions == task_b.sessions


class TestPlanEquivalence:
    @pytest.mark.parametrize(
        "policy",
        [
            PAPER_POLICY,
            SwarmPolicy(split_by_isp=False),
            SwarmPolicy(split_by_bitrate=False),
            SwarmPolicy(split_by_isp=False, split_by_bitrate=False),
            EpochPolicy(PAPER_POLICY, 6 * 3600.0),
        ],
        ids=["paper", "cross-isp", "mixed-bitrate", "content-only", "epoch-6h"],
    )
    def test_external_tasks_equal_memory_tasks(self, trace, tmp_path, policy):
        memory = MemoryGrouping().plan(trace, trace.horizon, policy)
        external = ExternalGrouping(shard_dir=tmp_path, run_sessions=128).plan(
            trace, trace.horizon, policy
        )
        try:
            assert len(external) == len(memory)
            assert list(external.session_counts) == list(memory.session_counts)
            assert_same_tasks(memory.iter_tasks(), external.iter_tasks())
        finally:
            external.cleanup()

    def test_external_plan_independent_of_input_order(self, trace, tmp_path):
        forward = ExternalGrouping(shard_dir=tmp_path / "f", run_sessions=100).plan(
            iter(trace.sessions), trace.horizon, PAPER_POLICY
        )
        backward = ExternalGrouping(shard_dir=tmp_path / "b", run_sessions=100).plan(
            reversed(trace.sessions), trace.horizon, PAPER_POLICY
        )
        try:
            assert_same_tasks(forward.iter_tasks(), backward.iter_tasks())
        finally:
            forward.cleanup()
            backward.cleanup()

    def test_refs_are_extents_not_sessions(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            refs = plan.refs()
            assert refs and all(isinstance(ref, ExtentTaskRef) for ref in refs)
            # The handoff contract: a ref pickles small and resolves to
            # the full task on the other side.
            import pickle

            ref = max(refs, key=lambda r: r.num_sessions)
            assert len(pickle.dumps(ref)) < 1_000
            task = resolve_task(pickle.loads(pickle.dumps(ref)))
            assert isinstance(task, SwarmTask)
            assert task.num_sessions == ref.num_sessions
            assert all(PAPER_POLICY.key_for(s) == ref.key for s in task.sessions)
        finally:
            plan.cleanup()

    def test_extent_refs_expose_byte_extents(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            manifest = plan.manifest
            offsets = [extent.offset for extent in manifest.extents]
            lengths = [extent.length for extent in manifest.extents]
            # Extents tile the record region contiguously.
            for i in range(1, len(offsets)):
                assert offsets[i] == offsets[i - 1] + lengths[i - 1]
        finally:
            plan.cleanup()

    def test_peak_buffered_bounded_by_run_sessions(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=64).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            stats = plan.stats()
            assert stats.mode == "external"
            assert stats.sessions == len(trace)
            assert 0 < stats.peak_buffered_sessions <= 64
            assert stats.runs_spilled == len(trace) // 64
            assert stats.shard_path is not None
        finally:
            plan.cleanup()

    def test_memory_plan_reports_full_residency(self, trace):
        plan = MemoryGrouping().plan(trace, trace.horizon, PAPER_POLICY)
        stats = plan.stats()
        assert stats.mode == "memory"
        assert stats.peak_buffered_sessions == len(trace)
        assert stats.sessions == len(trace)


class TestRunFileFaults:
    """Spilled runs are read through the fault-injectable storage facade."""

    def test_transient_run_read_faults_are_retried(self, trace, tmp_path, monkeypatch):
        monkeypatch.setattr(faults, "RETRY_POLICY", faults.RetryPolicy(base_delay=0.0))
        clean = ExternalGrouping(shard_dir=tmp_path / "clean", run_sessions=128).plan(
            iter(trace.sessions), trace.horizon, PAPER_POLICY
        )
        plan = faults.FaultPlan(
            7,
            (
                faults.FaultRule(site="store.pread", kind="torn", at=(0, 3)),
                faults.FaultRule(site="store.pread", kind="eio", at=(5,)),
            ),
        )
        with faults.injected(plan):
            faulty = ExternalGrouping(
                shard_dir=tmp_path / "faulty", run_sessions=128
            ).plan(iter(trace.sessions), trace.horizon, PAPER_POLICY)
        try:
            assert faulty.stats().runs_spilled > 1
            assert sorted(kind for _, kind, _ in plan.fired) == ["eio", "torn", "torn"]
            assert (
                Path(faulty.manifest.path).read_bytes()
                == Path(clean.manifest.path).read_bytes()
            )
            assert faulty.manifest.extents == clean.manifest.extents
        finally:
            clean.cleanup()
            faulty.cleanup()


class TestErrorContract:
    """External grouping mirrors build_tasks' validation exactly."""

    def test_rejects_nonpositive_horizon(self, tmp_path):
        with pytest.raises(ValueError):
            ExternalGrouping(shard_dir=tmp_path).plan(iter([]), 0.0, PAPER_POLICY)

    def test_rejects_sessions_past_horizon(self, trace, tmp_path):
        with pytest.raises(ValueError, match="horizon"):
            ExternalGrouping(shard_dir=tmp_path).plan(
                iter(trace.sessions), trace.horizon / 4, PAPER_POLICY
            )
        # No half-built shard directory survives the failure.
        assert list(tmp_path.iterdir()) == []

    def test_rejects_bad_run_sessions(self):
        with pytest.raises(ValueError):
            ExternalGrouping(run_sessions=0)

    @pytest.mark.parametrize("sorter", ["compiled", "tuple"])
    @pytest.mark.parametrize("run_sessions", [64, 10**6])
    def test_field_a_record_cannot_hold_names_the_session(
        self, trace, tmp_path, monkeypatch, sorter, run_sessions
    ):
        # Memory grouping simulates a pop of 2**32; a store record holds
        # u32.  Both sorter paths, spilled or not, name the session and
        # field instead of failing inside struct, and leave nothing behind.
        if sorter == "compiled" and not kernel_columns.HAVE_COMPILED:
            pytest.skip("needs the compiled extension")
        if sorter == "tuple":
            monkeypatch.setattr(kernel_columns, "_ckernel", None)
        bad = dataclasses.replace(
            trace.sessions[7], attachment=AttachmentPoint("ISP-1", 2**32, 0)
        )
        sessions = list(trace.sessions)
        sessions[7] = bad
        build_tasks(sessions, trace.horizon, PAPER_POLICY)
        message = f"^session {bad.session_id}: pop {2**32} is outside u32$"
        with pytest.raises(ValueError, match=message):
            ExternalGrouping(shard_dir=tmp_path, run_sessions=run_sessions).plan(
                iter(sessions), trace.horizon, PAPER_POLICY
            )
        assert list(tmp_path.iterdir()) == []


class TestCleanup:
    def test_temp_shard_removed_on_cleanup(self, trace):
        import os

        plan = ExternalGrouping(run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        shard_path = plan.manifest.path
        assert os.path.exists(shard_path)
        plan.cleanup()
        assert not os.path.exists(shard_path)
        assert plan.stats().shard_path is None

    def test_explicit_shard_dir_survives_cleanup(self, trace, tmp_path):
        import os

        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        shard_path = plan.manifest.path
        plan.cleanup()
        assert os.path.exists(shard_path)
        assert plan.stats().shard_path == shard_path

    def test_simulator_cleans_temporary_shard(self, trace):
        import os

        simulator = Simulator(
            SimulationConfig(grouping="external"),
            backend=SerialBackend(),
        )
        result = simulator.run(trace)
        stats = simulator.last_grouping
        assert stats is not None and stats.mode == "external"
        assert stats.shard_path is None  # temporary shard is gone
        assert result.identical_to(simulate(trace))

    def test_simulator_keeps_explicit_shard(self, trace, tmp_path):
        import os

        config = SimulationConfig(grouping="external", shard_dir=str(tmp_path))
        simulator = Simulator(config, backend=SerialBackend())
        simulator.run(trace)
        stats = simulator.last_grouping
        assert stats is not None and stats.shard_path is not None
        assert os.path.exists(stats.shard_path)


class TestResolution:
    def test_resolve_names(self):
        assert isinstance(resolve_grouping(None), MemoryGrouping)
        assert isinstance(resolve_grouping("memory"), MemoryGrouping)
        external = resolve_grouping("external", shard_dir="/tmp/x")
        assert isinstance(external, ExternalGrouping)
        assert str(external.shard_dir) == "/tmp/x"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_grouping("quantum")

    def test_config_validates_grouping(self):
        with pytest.raises(ValueError):
            SimulationConfig(grouping="quantum")
        with pytest.raises(ValueError):
            SimulationConfig(shard_dir="/tmp/x")  # requires external
        assert SimulationConfig(grouping="external").grouping == "external"
        assert "memory" in GROUPING_MODES and "external" in GROUPING_MODES

    def test_simulator_caches_resolved_grouping(self):
        simulator = Simulator(SimulationConfig(grouping="external"))
        assert simulator.grouping is simulator.grouping
        assert isinstance(simulator.grouping, ExternalGrouping)

    def test_as_task_plan_wraps_sequences(self, trace):
        tasks = build_tasks(trace, trace.horizon, PAPER_POLICY)
        plan = as_task_plan(tasks)
        assert len(plan) == len(tasks)
        assert list(plan.iter_tasks()) == tasks
        assert as_task_plan(plan) is plan


class TestPlanHandoff:
    """plan_handoff: the JSON-able shard/manifest description the
    distributed backend publishes beside each job's work items."""

    def test_memory_plan_has_no_shard(self, trace):
        plan = MemoryGrouping().plan(trace, trace.horizon, PAPER_POLICY)
        payload = plan_handoff(plan)
        assert payload["mode"] == "memory"
        assert payload["tasks"] == len(plan)
        assert payload["sessions"] == len(trace)
        assert payload["shard"] is None
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_external_plan_references_the_shard(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            payload = plan_handoff(plan)
            assert payload["mode"] == "external"
            assert payload["shard"] is not None
            assert payload["shard"]["path"] == plan.manifest.path
            assert payload["shard"]["extents"] == len(plan)
            assert payload["shard"]["horizon"] == trace.horizon
            json.dumps(payload)
        finally:
            plan.cleanup()
