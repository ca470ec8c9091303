"""Sweep equivalence: run_ref_multi / run_sweep == K independent runs.

The sweep runtime's whole contract is "bit-for-bit identical to the
K-independent-runs baseline, just cheaper".  This module pins that
contract at every level:

* kernel: ``run_ref_multi`` vs K x ``run_swarm`` (hypothesis property
  over adversarial random swarms and config mixes -- shared users, ties,
  lingering seeds, mixed delta_tau / participation / matching flags);
* engine: ``Simulator.run_sweep`` / ``run_sweep_stream`` vs per-config
  ``run``, plus validation and :class:`~repro.sim.engine.SweepStats`;
* the hot slots types pickle-round-trip (they cross process boundaries
  inside every sweep shard).
"""

import pickle

import pytest

from repro.sim import SimulationConfig, Simulator, SweepStats
from repro.sim.accounting import ByteLedger
from repro.sim.kernel import (
    MultiSwarmOutput,
    SwarmTask,
    build_tasks,
    run_ref_multi,
    run_shard_multi,
    run_swarm,
)
from repro.sim.kernel_columns import HAVE_COMPILED
from repro.sim.matching import PeerState, WindowAllocation
from repro.sim.policies import SwarmPolicy
from repro.sim.results import UserTraffic
from repro.topology.layers import NetworkLayer
from repro.trace.generator import GeneratorConfig, TraceGenerator


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=250, num_items=20, days=2, expected_sessions=2_000, seed=77
    )
    return TraceGenerator(config=config).generate()


#: A deliberately heterogeneous sweep: ratio axis, participation axis,
#: bandwidth override, lingering seeds, a different window size, the
#: locality ablation and the cross-ISP matching phase.
SWEEP_CONFIGS = [
    SimulationConfig(upload_ratio=0.2),
    SimulationConfig(upload_ratio=0.6),
    SimulationConfig(upload_ratio=1.0),
    SimulationConfig(upload_ratio=0.5, participation_rate=0.35),
    SimulationConfig(upload_bandwidth=2e6),
    SimulationConfig(seed_linger_seconds=120.0, participation_rate=0.5),
    SimulationConfig(delta_tau=30.0),
    SimulationConfig(locality_aware_matching=False),
    SimulationConfig(participation_rate=0.0),
]


def assert_output_identical(reference, candidate, context=""):
    """Exact equality of two SwarmOutputs at every accounting level."""
    a, b = reference.result.ledger, candidate.result.ledger
    assert (
        a.server_bits,
        a.peer_bits,
        a.demanded_bits,
        a.watch_seconds,
        a.sessions,
    ) == (b.server_bits, b.peer_bits, b.demanded_bits, b.watch_seconds, b.sessions), context
    assert reference.result.capacity == candidate.result.capacity, context
    assert reference.result.arrival_rate == candidate.result.arrival_rate, context
    assert reference.result.mean_duration == candidate.result.mean_duration, context
    assert reference.per_isp_day.keys() == candidate.per_isp_day.keys(), context
    for key in reference.per_isp_day:
        x, y = reference.per_isp_day[key], candidate.per_isp_day[key]
        assert (x.server_bits, x.peer_bits, x.demanded_bits, x.watch_seconds) == (
            y.server_bits,
            y.peer_bits,
            y.demanded_bits,
            y.watch_seconds,
        ), (context, key)
    assert reference.per_user.keys() == candidate.per_user.keys(), context
    for user_id in reference.per_user:
        mine, theirs = reference.per_user[user_id], candidate.per_user[user_id]
        assert (mine.watched_bits, mine.uploaded_bits) == (
            theirs.watched_bits,
            theirs.uploaded_bits,
        ), (context, user_id)


class TestKernelSweepEquivalence:
    def test_multi_matches_independent_runs(self, trace):
        tasks = build_tasks(trace, trace.horizon, SimulationConfig().policy)
        for task in tasks:
            multi = run_ref_multi(task, SWEEP_CONFIGS)
            assert len(multi.outputs) == len(SWEEP_CONFIGS)
            for position, config in enumerate(SWEEP_CONFIGS):
                assert_output_identical(
                    run_swarm(task, config),
                    multi.outputs[position],
                    context=(str(task.key), position),
                )

    def test_run_shard_multi_preserves_task_order(self, trace):
        config = SimulationConfig()
        tasks = build_tasks(trace, trace.horizon, config.policy)[:5]
        configs = [SimulationConfig(upload_ratio=r) for r in (0.3, 0.9)]
        multis = run_shard_multi(tasks, configs)
        assert len(multis) == len(tasks)
        for task, multi in zip(tasks, multis):
            assert multi.outputs[0].result.key == task.key

    def test_empty_config_list(self, trace):
        task = build_tasks(trace, trace.horizon, SimulationConfig().policy)[0]
        multi = run_ref_multi(task, [])
        assert multi.outputs == []
        assert multi.schedule_builds == 0

    def test_schedule_sharing_counts(self, trace):
        """Same-signature configs share one schedule; distinct ones don't.

        Schedules are built only on the compiled path; without the
        extension every config runs the object kernel and builds none.
        """
        task = build_tasks(trace, trace.horizon, SimulationConfig().policy)[0]
        ratios_only = [SimulationConfig(upload_ratio=r) for r in (0.2, 0.5, 1.0)]
        built = 1 if HAVE_COMPILED else 0
        assert run_ref_multi(task, ratios_only).schedule_builds == built
        mixed = ratios_only + [SimulationConfig(delta_tau=30.0)]
        assert run_ref_multi(task, mixed).schedule_builds == 2 * built


class TestSimulatorSweep:
    def test_run_sweep_matches_independent_runs(self, trace):
        configs = [SimulationConfig(upload_ratio=r) for r in (0.2, 0.4, 0.6, 0.8, 1.0)]
        baseline = [Simulator(config).run(trace) for config in configs]
        simulator = Simulator(configs[0])
        swept = simulator.run_sweep(trace, configs)
        assert len(swept) == len(configs)
        for reference, result in zip(baseline, swept):
            assert reference.identical_to(result)

    def test_run_sweep_stream_matches_run_sweep(self, trace):
        configs = [SimulationConfig(upload_ratio=r) for r in (0.3, 0.9)]
        simulator = Simulator(configs[0])
        from_trace = simulator.run_sweep(trace, configs)
        from_stream = simulator.run_sweep_stream(
            iter(trace.sessions), trace.horizon, configs
        )
        for a, b in zip(from_trace, from_stream):
            assert a.identical_to(b)

    def test_heterogeneous_sweep(self, trace):
        baseline = [Simulator(config).run(trace) for config in SWEEP_CONFIGS]
        swept = Simulator(SWEEP_CONFIGS[0]).run_sweep(trace, SWEEP_CONFIGS)
        for reference, result in zip(baseline, swept):
            assert reference.identical_to(result)

    def test_sweep_stats_reported(self, trace):
        configs = [SimulationConfig(upload_ratio=r) for r in (0.2, 0.6, 1.0)]
        simulator = Simulator(configs[0])
        simulator.run_sweep(trace, configs)
        stats = simulator.last_sweep
        assert isinstance(stats, SweepStats)
        assert stats.configs == 3
        assert stats.tasks == len(
            build_tasks(trace, trace.horizon, configs[0].policy)
        )
        # One schedule per task for a pure ratio sweep -- the whole point.
        if HAVE_COMPILED:
            assert stats.schedule_builds == stats.tasks
        else:
            assert stats.schedule_builds == 0
        assert stats.cache_hit is None  # memory grouping: no cache in play

    def test_single_config_sweep(self, trace):
        config = SimulationConfig(upload_ratio=0.7)
        reference = Simulator(config).run(trace)
        (result,) = Simulator(config).run_sweep(trace, [config])
        assert reference.identical_to(result)

    def test_rejects_empty_configs(self, trace):
        with pytest.raises(ValueError, match="at least one config"):
            Simulator().run_sweep(trace, [])

    def test_rejects_mixed_policies(self, trace):
        configs = [
            SimulationConfig(),
            SimulationConfig(policy=SwarmPolicy(split_by_isp=False)),
        ]
        with pytest.raises(ValueError, match="share one swarm policy"):
            Simulator().run_sweep(trace, configs)

    def test_single_run_stats_not_polluted_by_sweep(self, trace):
        config = SimulationConfig()
        simulator = Simulator(config)
        simulator.run_sweep(trace, [config])
        assert simulator.last_sweep is not None
        simulator.run(trace)
        assert simulator.last_sweep is None  # cleared by the single run


class TestSlotsTypesPickle:
    """The hot per-window types are slotted; they must still pickle
    (they cross process boundaries inside every sweep shard)."""

    def test_peer_state_round_trip(self):
        state = PeerState(
            member_id=7, user_id=3, demand=10.0, supply=4.0, exchange=2, pop=1, isp="BT"
        )
        clone = pickle.loads(pickle.dumps(state))
        assert (clone.member_id, clone.user_id, clone.demand, clone.supply) == (
            7, 3, 10.0, 4.0,
        )
        assert clone.attachment == state.attachment

    def test_window_allocation_round_trip(self):
        allocation = WindowAllocation(
            peer_bits={NetworkLayer.EXCHANGE: 5.0},
            server_bits=2.0,
            uploaded_bits={3: 5.0},
            demanded_bits=7.0,
        )
        clone = pickle.loads(pickle.dumps(allocation))
        assert clone.peer_bits == allocation.peer_bits
        assert clone.server_bits == allocation.server_bits
        assert clone.uploaded_bits == allocation.uploaded_bits
        assert clone.demanded_bits == allocation.demanded_bits

    def test_user_traffic_round_trip(self):
        traffic = UserTraffic(watched_bits=1.5, uploaded_bits=0.5)
        clone = pickle.loads(pickle.dumps(traffic))
        assert (clone.watched_bits, clone.uploaded_bits) == (1.5, 0.5)

    def test_byte_ledger_round_trip(self):
        ledger = ByteLedger(
            server_bits=1.0,
            peer_bits={NetworkLayer.POP: 2.0},
            demanded_bits=3.0,
            watch_seconds=4.0,
            sessions=5,
        )
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.server_bits == 1.0
        assert clone.peer_bits == {NetworkLayer.POP: 2.0}
        assert clone.sessions == 5

    def test_slots_reject_rogue_attributes(self):
        ledger = ByteLedger()
        with pytest.raises(AttributeError):
            ledger.rogue = 1  # type: ignore[attr-defined]
        traffic = UserTraffic()
        with pytest.raises(AttributeError):
            traffic.rogue = 1  # type: ignore[attr-defined]

    def test_multi_swarm_output_round_trip(self, trace):
        task = build_tasks(trace, trace.horizon, SimulationConfig().policy)[0]
        multi = run_ref_multi(task, [SimulationConfig(upload_ratio=0.4)])
        clone = pickle.loads(pickle.dumps(multi))
        assert isinstance(clone, MultiSwarmOutput)
        assert_output_identical(multi.outputs[0], clone.outputs[0])
