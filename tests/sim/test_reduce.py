"""Unit tests for the incremental streaming reduction pipeline.

Covers the StreamingReducer's reorder-buffer contract (any completion
order folds to the in-order ``merge_outputs`` result, residency is
tracked honestly), the
FootprintAccumulator's packed/spilled per-user representations, the
contiguous block partitioner, and the engine-level reduction modes.
"""

import random

import pytest

from repro.sim import SimulationConfig, Simulator, simulate
from repro.sim.backends import ProcessPoolBackend, SerialBackend, contiguous_blocks
from repro.sim.kernel import build_tasks, merge_outputs, run_shard, run_swarm_object
from repro.sim.profiling import PROFILE
from repro.sim.reduce import (
    REDUCTION_MODES,
    FootprintAccumulator,
    StreamingReducer,
    iter_user_deltas,
    load_user_deltas,
)
from repro.sim.results import UserTraffic
from repro.trace.generator import GeneratorConfig, TraceGenerator


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=200, num_items=15, days=2, expected_sessions=1_500, seed=77
    )
    return TraceGenerator(config=config).generate()


@pytest.fixture(scope="module")
def outputs(trace):
    config = SimulationConfig()
    tasks = build_tasks(trace, trace.horizon, config.policy)
    return run_shard(tasks, config), trace.horizon


def reference_result(outputs, horizon):
    return merge_outputs(
        outputs, delta_tau=10.0, horizon=horizon, upload_ratio=1.0
    )


@pytest.fixture(scope="module")
def reference(trace):
    """The in-order fold of object-kernel outputs: no engine involved."""
    config = SimulationConfig()
    tasks = build_tasks(trace, trace.horizon, config.policy)
    outputs = [run_swarm_object(task, config) for task in tasks]
    return reference_result(outputs, trace.horizon)


class TestStreamingReducer:
    def test_in_order_single_blocks_match_batched(self, outputs):
        outs, horizon = outputs
        reference = reference_result(outs, horizon)
        reducer = StreamingReducer(
            delta_tau=10.0, horizon=horizon, upload_ratio=1.0
        )
        for index, output in enumerate(outs):
            reducer.add(index, [output])
        assert reducer.result().identical_to(reference)
        assert reducer.peak_resident == 1

    def test_shuffled_completion_order_matches_batched(self, outputs):
        outs, horizon = outputs
        reference = reference_result(outs, horizon)
        rng = random.Random(3)
        for _ in range(5):
            order = list(range(len(outs)))
            rng.shuffle(order)
            reducer = StreamingReducer(
                delta_tau=10.0, horizon=horizon, upload_ratio=1.0
            )
            for index in order:
                reducer.add(index, [outs[index]])
            assert reducer.result().identical_to(reference)

    def test_multi_output_blocks_match_batched(self, outputs):
        outs, horizon = outputs
        reference = reference_result(outs, horizon)
        # Split into uneven contiguous blocks and deliver them reversed.
        bounds = [0, 3, len(outs) // 2, len(outs)]
        blocks = [
            (start, list(outs[start:end]))
            for start, end in zip(bounds, bounds[1:])
            if end > start
        ]
        reducer = StreamingReducer(delta_tau=10.0, horizon=horizon, upload_ratio=1.0)
        for start, block in reversed(blocks):
            reducer.add(start, block)
        assert reducer.result().identical_to(reference)
        assert reducer.blocks_folded == len(blocks)
        assert reducer.outputs_folded == len(outs)

    def test_peak_resident_counts_reorder_buffer(self, outputs):
        outs, horizon = outputs
        reducer = StreamingReducer(delta_tau=10.0, horizon=horizon, upload_ratio=1.0)
        # Deliver 3 blocks that cannot fold yet, then unblock them.
        reducer.add(1, [outs[1]])
        reducer.add(2, [outs[2]])
        reducer.add(3, [outs[3]])
        assert reducer.peak_resident == 3
        assert reducer.outputs_folded == 0
        reducer.add(0, [outs[0]])
        assert reducer.peak_resident == 4  # the moment block 0 arrived
        assert reducer.outputs_folded == 4

    def test_rejects_empty_block(self, outputs):
        _, horizon = outputs
        reducer = StreamingReducer(delta_tau=10.0, horizon=horizon, upload_ratio=1.0)
        with pytest.raises(ValueError, match="at least one output"):
            reducer.add(0, [])

    def test_rejects_duplicate_and_stale_indices(self, outputs):
        outs, horizon = outputs
        reducer = StreamingReducer(delta_tau=10.0, horizon=horizon, upload_ratio=1.0)
        reducer.add(0, [outs[0]])
        with pytest.raises(ValueError, match="already delivered"):
            reducer.add(0, [outs[0]])  # already folded
        reducer.add(2, [outs[2]])
        with pytest.raises(ValueError, match="already delivered"):
            reducer.add(2, [outs[2]])  # still buffered

    def test_result_with_missing_block_raises(self, outputs):
        outs, horizon = outputs
        reducer = StreamingReducer(delta_tau=10.0, horizon=horizon, upload_ratio=1.0)
        reducer.add(1, [outs[1]])
        with pytest.raises(ValueError, match="never arrived"):
            reducer.result()

    def test_add_after_result_raises(self, outputs):
        outs, horizon = outputs
        reducer = StreamingReducer(delta_tau=10.0, horizon=horizon, upload_ratio=1.0)
        reducer.add(0, [outs[0]])
        reducer.result()
        with pytest.raises(RuntimeError):
            reducer.add(1, [outs[1]])


class TestFootprintAccumulator:
    def fold_dict(self, outs):
        """The plain dict fold: copy a user's first delta, add later ones."""
        per_user = {}
        for output in outs:
            for user_id, traffic in output.per_user.items():
                existing = per_user.get(user_id)
                if existing is None:
                    per_user[user_id] = traffic.copy()
                else:
                    existing.merge(traffic)
        return per_user

    def test_packed_arrays_match_dict_fold_exactly(self, outputs):
        outs, _ = outputs
        accumulator = FootprintAccumulator()
        for output in outs:
            accumulator.add(output.per_user)
        expected = self.fold_dict(outs)
        materialized = accumulator.materialize()
        assert materialized.keys() == expected.keys()
        for uid, traffic in expected.items():
            assert materialized[uid].watched_bits == traffic.watched_bits
            assert materialized[uid].uploaded_bits == traffic.uploaded_bits
        assert accumulator.num_users == len(expected)

    def test_stats_totals(self, outputs):
        outs, _ = outputs
        accumulator = FootprintAccumulator()
        records = 0
        for output in outs:
            accumulator.add(output.per_user)
            records += len(output.per_user)
        stats = accumulator.stats()
        assert stats.records == records
        assert stats.users == accumulator.num_users
        expected = self.fold_dict(outs)
        assert stats.watched_bits == pytest.approx(
            sum(t.watched_bits for t in expected.values())
        )
        assert stats.uploaded_bits == pytest.approx(
            sum(t.uploaded_bits for t in expected.values())
        )

    def test_spill_log_round_trips_exactly(self, outputs, tmp_path):
        outs, _ = outputs
        spill = tmp_path / "deltas.log"
        accumulator = FootprintAccumulator(spill_path=spill)
        for output in outs:
            accumulator.add(output.per_user)
        assert accumulator.num_users is None  # no per-user index resident
        materialized = accumulator.materialize()
        expected = self.fold_dict(outs)
        assert materialized.keys() == expected.keys()
        for uid, traffic in expected.items():
            assert materialized[uid].watched_bits == traffic.watched_bits
            assert materialized[uid].uploaded_bits == traffic.uploaded_bits
        # The log itself is exact and independently consumable.
        assert spill.exists()
        replayed = load_user_deltas(spill)
        assert replayed.keys() == expected.keys()
        total_records = sum(1 for _ in iter_user_deltas(spill))
        assert total_records == accumulator.stats().records

    def test_spill_repr_round_trip_of_awkward_floats(self, tmp_path):
        spill = tmp_path / "deltas.log"
        accumulator = FootprintAccumulator(spill_path=spill)
        awkward = {
            7: UserTraffic(watched_bits=0.1 + 0.2, uploaded_bits=1e300),
            8: UserTraffic(watched_bits=5e-324, uploaded_bits=0.0),
        }
        accumulator.add(awkward)
        materialized = accumulator.materialize()
        assert materialized[7].watched_bits == 0.1 + 0.2
        assert materialized[7].uploaded_bits == 1e300
        assert materialized[8].watched_bits == 5e-324

    def test_empty_accumulator_materializes_empty(self, tmp_path):
        assert FootprintAccumulator().materialize() == {}
        spilled = FootprintAccumulator(spill_path=tmp_path / "never-written.log")
        assert spilled.materialize() == {}

    def test_add_after_spill_close_raises_instead_of_truncating(self, tmp_path):
        spill = tmp_path / "deltas.log"
        accumulator = FootprintAccumulator(spill_path=spill)
        accumulator.add({1: UserTraffic(watched_bits=8.0, uploaded_bits=2.0)})
        first = accumulator.materialize()  # closes the log
        with pytest.raises(RuntimeError, match="already closed"):
            accumulator.add({2: UserTraffic(watched_bits=4.0, uploaded_bits=0.0)})
        # The folded records survived untouched.
        assert load_user_deltas(spill).keys() == first.keys() == {1}


class TestContiguousBlocks:
    def blocks_cover_tasks(self, tasks, blocks):
        index = 0
        for start, members in blocks:
            assert start == index
            assert members, "blocks must be non-empty"
            assert list(members) == list(tasks[start : start + len(members)])
            index += len(members)
        assert index == len(tasks)

    def test_partition_invariants(self, trace):
        config = SimulationConfig()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        for num_blocks in (1, 2, 3, 7, len(tasks), len(tasks) * 3):
            blocks = contiguous_blocks(tasks, num_blocks)
            assert len(blocks) <= max(1, min(num_blocks, len(tasks)))
            self.blocks_cover_tasks(tasks, blocks)

    def test_session_balance_beats_naive_split(self, trace):
        """Weighted cuts: no block should hold the bulk of the sessions
        when several blocks are requested."""
        config = SimulationConfig()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        blocks = contiguous_blocks(tasks, 8)
        total = sum(len(t.sessions) for t in tasks)
        heaviest = max(sum(len(t.sessions) for t in members) for _, members in blocks)
        assert heaviest < 0.5 * total

    def test_empty_tasks(self):
        assert contiguous_blocks([], 4) == []

    def test_overweight_head_does_not_starve_later_cuts(self):
        """A Zipf-head task heavier than several global share targets
        must absorb only its own block; the remaining cuts re-pace on
        the weight left, not the global cumulative thresholds."""
        from repro.sim.kernel import SwarmTask
        from repro.sim.policies import SwarmKey

        def task(i, sessions):
            return SwarmTask(
                key=SwarmKey(content_id=f"c{i:02d}"),
                sessions=tuple(object() for _ in range(sessions)),
                horizon=10.0,
            )

        tasks = [task(0, 100)] + [task(i, 1) for i in range(1, 10)]
        blocks = contiguous_blocks(tasks, 4)
        assert [len(members) for _, members in blocks] == [1, 3, 3, 3]
        self.blocks_cover_tasks(tasks, blocks)

    def test_all_empty_tasks_split_evenly(self):
        """Zero total session weight falls back to unit weights instead
        of one block swallowing everything."""
        from repro.sim.kernel import SwarmTask
        from repro.sim.policies import SwarmKey

        tasks = [
            SwarmTask(key=SwarmKey(content_id=f"c{i}"), sessions=(), horizon=10.0)
            for i in range(8)
        ]
        blocks = contiguous_blocks(tasks, 4)
        assert [len(members) for _, members in blocks] == [2, 2, 2, 2]
        self.blocks_cover_tasks(tasks, blocks)


class TestEngineReductionModes:
    def test_modes_registry(self):
        assert REDUCTION_MODES == ("streaming", "spill")
        assert SimulationConfig().reduction == "streaming"
        with pytest.raises(ValueError, match="reduction"):
            SimulationConfig(reduction="batched")

    def test_config_rejects_unknown_reduction(self):
        with pytest.raises(ValueError, match="reduction"):
            SimulationConfig(reduction="mapreduce")

    def test_config_rejects_spill_dir_without_spill(self, tmp_path):
        with pytest.raises(ValueError, match="spill_dir"):
            SimulationConfig(reduction="streaming", spill_dir=str(tmp_path))

    @pytest.mark.parametrize("reduction", ["streaming", "spill"])
    def test_streaming_modes_identical_to_batched(self, trace, reference, reduction):
        """Each mode equals the batched (in-order ``merge_outputs``) fold."""
        result = simulate(trace, SimulationConfig(reduction=reduction))
        assert reference.identical_to(result)

    @pytest.mark.parametrize("reduction", REDUCTION_MODES)
    def test_profiled_run_times_the_reduce_phase(self, trace, reduction):
        """Every reduction mode charges its fold to the reduce phase."""
        PROFILE.reset()
        PROFILE.enabled = True
        try:
            Simulator(SimulationConfig(reduction=reduction)).run(trace)
            reduce_seconds = PROFILE.reduce_seconds
        finally:
            PROFILE.enabled = False
            PROFILE.reset()
        assert reduce_seconds > 0.0

    def test_streaming_residency_bounded_by_workers_plus_one(
        self, trace, reference
    ):
        """The acceptance bound: resident partial count <= workers + 1."""
        workers = 3
        backend = ProcessPoolBackend(workers, min_sessions=0)
        simulator = Simulator(SimulationConfig(reduction="streaming"), backend=backend)
        try:
            result = simulator.run(trace)
        finally:
            backend.close()
        stats = simulator.last_reduction
        assert stats.mode == "streaming"
        assert 1 <= stats.peak_resident <= workers + 1
        # min_sessions=0 shrinks the shard quantum to one session, so
        # every task ships as its own block.
        assert stats.outputs == stats.blocks
        assert result.identical_to(reference)

    def test_serial_streaming_residency_is_one(self, trace):
        simulator = Simulator(
            SimulationConfig(reduction="streaming"), backend=SerialBackend()
        )
        simulator.run(trace)
        assert simulator.last_reduction.peak_resident == 1

    def test_spill_with_explicit_dir_keeps_log(self, trace, tmp_path):
        config = SimulationConfig(reduction="spill", spill_dir=str(tmp_path))
        simulator = Simulator(config, backend=SerialBackend())
        result = simulator.run(trace)
        stats = simulator.last_reduction
        assert stats.spill_path is not None
        replayed = load_user_deltas(stats.spill_path)
        assert replayed.keys() == result.per_user.keys()
        for uid, traffic in result.per_user.items():
            assert replayed[uid].watched_bits == traffic.watched_bits
            assert replayed[uid].uploaded_bits == traffic.uploaded_bits

    def test_spill_with_temp_dir_cleans_up(self, trace):
        simulator = Simulator(
            SimulationConfig(reduction="spill"), backend=SerialBackend()
        )
        result = simulator.run(trace)
        assert simulator.last_reduction.spill_path is None  # gone with the run
        assert result.identical_to(simulate(trace))

    def test_process_streaming_shards_capped_by_session_quantum(self, trace):
        """The streaming shard count grows with the trace (one shard
        per ~min_sessions sessions), so each resident block's size --
        not just the block count -- stays bounded."""
        quantum = 200
        backend = ProcessPoolBackend(2, min_sessions=quantum)
        simulator = Simulator(
            SimulationConfig(reduction="streaming"), backend=backend
        )
        try:
            result = simulator.run(trace)
        finally:
            backend.close()
        stats = simulator.last_reduction
        total_sessions = len(trace.sessions)
        assert stats.blocks >= total_sessions // quantum
        assert stats.peak_resident <= backend.workers + 1
        # Resident outputs are bounded by the in-flight blocks' content,
        # far below the full shard total.
        assert stats.peak_resident_outputs < stats.outputs
        assert result.identical_to(simulate(trace))

    def test_streaming_run_stream_from_iterator(self, trace):
        """End-to-end streaming: lazy sessions in, folded result out."""
        simulator = Simulator(SimulationConfig(reduction="streaming"))
        result = simulator.run_stream(iter(trace.sessions), trace.horizon)
        assert result.identical_to(simulate(trace))
