"""Tests for the windowed simulation engine."""

import math

import pytest

from repro.core import SavingsModel, VALANCIUS
from repro.sim import SimulationConfig, Simulator, kernel_columns, simulate
from repro.sim.kernel import build_tasks, run_swarm
from repro.sim.policies import SwarmPolicy
from repro.sim.profiling import PROFILE
from repro.topology.nodes import AttachmentPoint
from repro.trace.diurnal import FLAT_PROFILE
from repro.trace.events import SECONDS_PER_DAY, Session, Trace
from repro.trace.generator import GeneratorConfig, TraceGenerator


def make_session(
    session_id,
    user_id,
    start,
    duration,
    *,
    content_id="item-a",
    bitrate=1.5e6,
    isp="ISP-1",
    pop=0,
    exchange=0,
):
    return Session(
        session_id=session_id,
        user_id=user_id,
        content_id=content_id,
        start=start,
        duration=duration,
        bitrate=bitrate,
        attachment=AttachmentPoint(isp=isp, pop=pop, exchange=exchange),
    )


class TestConfigValidation:
    def test_delta_tau_must_divide_day(self):
        with pytest.raises(ValueError):
            SimulationConfig(delta_tau=7.0)
        SimulationConfig(delta_tau=30.0)  # fine

    def test_nonpositive_delta_tau(self):
        with pytest.raises(ValueError):
            SimulationConfig(delta_tau=0.0)

    def test_negative_ratio(self):
        with pytest.raises(ValueError):
            SimulationConfig(upload_ratio=-0.1)

    def test_upload_rate_for(self):
        assert SimulationConfig(upload_ratio=0.5).upload_rate_for(2e6) == 1e6
        fixed = SimulationConfig(upload_bandwidth=4e6)
        assert fixed.upload_rate_for(1e6) == 4e6

    def test_results_config_drops_only_execution_fields(self):
        execution = SimulationConfig(
            workers=3,
            backend="distributed",
            queue_dir="/queue",
            reduction="spill",
            spill_dir="/spill",
            grouping="external",
            shard_dir="/shard",
            kernel="object",
        )
        assert execution.results_config() == SimulationConfig()
        physics = SimulationConfig(upload_ratio=0.5, workers=2)
        assert physics.results_config() == SimulationConfig(upload_ratio=0.5)
        assert physics.results_config() != SimulationConfig().results_config()


class TestSingleViewer:
    def test_lone_session_all_from_server(self):
        trace = Trace.from_sessions([make_session(0, 1, start=0.0, duration=600.0)])
        result = simulate(trace)
        assert result.total.total_peer_bits == 0.0
        # 60 windows x 1.5 Mbps x 10 s.
        assert result.total.server_bits == pytest.approx(60 * 1.5e6 * 10)
        assert result.savings(VALANCIUS) == pytest.approx(0.0)

    def test_quantisation_covers_partial_windows(self):
        trace = Trace.from_sessions([make_session(0, 1, start=5.0, duration=12.0)])
        result = simulate(trace)
        # Start window 0, end ceil(17/10) = 2 -> 2 windows.
        assert result.total.server_bits == pytest.approx(2 * 1.5e6 * 10)


class TestTwoViewers:
    def test_disjoint_sessions_never_share(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0),
                make_session(1, 2, start=1200.0, duration=600.0),
            ]
        )
        result = simulate(trace)
        assert result.total.total_peer_bits == 0.0

    def test_concurrent_sessions_share(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0, exchange=0),
                make_session(1, 2, start=0.0, duration=600.0, exchange=1),
            ]
        )
        result = simulate(trace)
        # Seed serves the second viewer fully (q = beta): 50 % offload.
        assert result.total.offload_fraction == pytest.approx(0.5)

    def test_partial_overlap_shares_only_joint_windows(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0),
                make_session(1, 2, start=300.0, duration=600.0, exchange=1),
            ]
        )
        result = simulate(trace)
        # 30 joint windows out of 120 window-streams total.
        expected_peer = 30 * 1.5e6 * 10
        assert result.total.total_peer_bits == pytest.approx(expected_peer)

    def test_different_items_never_share(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0, content_id="a"),
                make_session(1, 2, start=0.0, duration=600.0, content_id="b", exchange=1),
            ]
        )
        assert simulate(trace).total.total_peer_bits == 0.0

    def test_different_bitrates_split_by_default(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0, bitrate=1.5e6),
                make_session(1, 2, start=0.0, duration=600.0, bitrate=3.0e6, exchange=1),
            ]
        )
        assert simulate(trace).total.total_peer_bits == 0.0

    def test_bitrate_merge_when_policy_allows(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0, bitrate=1.5e6),
                make_session(1, 2, start=0.0, duration=600.0, bitrate=3.0e6, exchange=1),
            ]
        )
        config = SimulationConfig(policy=SwarmPolicy(split_by_bitrate=False))
        assert simulate(trace, config).total.total_peer_bits > 0.0

    def test_cross_isp_split_by_default(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0, isp="ISP-1"),
                make_session(1, 2, start=0.0, duration=600.0, isp="ISP-2"),
            ]
        )
        assert simulate(trace).total.total_peer_bits == 0.0

    def test_upload_ratio_limits_sharing(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0),
                make_session(1, 2, start=0.0, duration=600.0, exchange=1),
            ]
        )
        result = simulate(trace, SimulationConfig(upload_ratio=0.4))
        assert result.total.offload_fraction == pytest.approx(0.2)  # 0.4 * 0.5


class TestAccountingLevels:
    def test_per_user_traffic(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0, exchange=0),
                make_session(1, 2, start=0.0, duration=600.0, exchange=0),
            ]
        )
        result = simulate(trace)
        watched = 60 * 1.5e6 * 10
        assert result.per_user[1].watched_bits == pytest.approx(watched)
        assert result.per_user[2].watched_bits == pytest.approx(watched)
        # User 1 is the seed and uploads the other stream.
        assert result.per_user[1].uploaded_bits == pytest.approx(watched)
        assert result.per_user[2].uploaded_bits == 0.0

    def test_per_isp_day_split(self):
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=600.0),
                make_session(1, 2, start=SECONDS_PER_DAY + 100.0, duration=600.0),
            ],
            horizon=2 * SECONDS_PER_DAY,
        )
        result = simulate(trace)
        assert ("ISP-1", 0) in result.per_isp_day
        assert ("ISP-1", 1) in result.per_isp_day
        assert result.days() == [0, 1]

    def test_stretch_split_at_day_boundary(self):
        """A session spanning midnight lands bits on both days."""
        trace = Trace.from_sessions(
            [make_session(0, 1, start=SECONDS_PER_DAY - 300.0, duration=600.0)],
            horizon=2 * SECONDS_PER_DAY,
        )
        result = simulate(trace)
        day0 = result.per_isp_day[("ISP-1", 0)]
        day1 = result.per_isp_day[("ISP-1", 1)]
        assert day0.server_bits == pytest.approx(30 * 1.5e6 * 10)
        assert day1.server_bits == pytest.approx(30 * 1.5e6 * 10)

    def test_swarm_capacity_measured(self):
        # Two 0.5-day sessions over a 1-day horizon = 1 concurrent viewer.
        trace = Trace.from_sessions(
            [
                make_session(0, 1, start=0.0, duration=SECONDS_PER_DAY / 2),
                make_session(1, 2, start=SECONDS_PER_DAY / 2, duration=SECONDS_PER_DAY / 2 - 10, exchange=1),
            ],
            horizon=SECONDS_PER_DAY,
        )
        result = simulate(trace)
        swarm = next(iter(result.per_swarm.values()))
        assert swarm.capacity == pytest.approx(1.0, abs=0.01)
        assert swarm.arrival_rate == pytest.approx(2 / SECONDS_PER_DAY)
        assert swarm.mean_duration == pytest.approx(SECONDS_PER_DAY / 2, rel=0.01)


class TestConservationInvariants:
    @pytest.fixture(scope="class")
    def result(self):
        config = GeneratorConfig(
            num_users=1_200, num_items=120, days=3, expected_sessions=8_000, seed=21
        )
        trace = TraceGenerator(config=config).generate()
        return simulate(trace)

    def test_demand_split_between_server_and_peers(self, result):
        total = result.total
        assert total.server_bits + total.total_peer_bits == pytest.approx(
            total.demanded_bits
        )

    def test_per_user_watched_sums_to_demand(self, result):
        watched = sum(u.watched_bits for u in result.per_user.values())
        assert watched == pytest.approx(result.total.demanded_bits)

    def test_per_user_uploads_sum_to_peer_bits(self, result):
        uploaded = sum(u.uploaded_bits for u in result.per_user.values())
        assert uploaded == pytest.approx(result.total.total_peer_bits)

    def test_per_swarm_ledgers_sum_to_total(self, result):
        server = sum(r.ledger.server_bits for r in result.per_swarm.values())
        peer = sum(r.ledger.total_peer_bits for r in result.per_swarm.values())
        assert server == pytest.approx(result.total.server_bits)
        assert peer == pytest.approx(result.total.total_peer_bits)

    def test_per_isp_day_ledgers_sum_to_total(self, result):
        merged = sum(l.demanded_bits for l in result.per_isp_day.values())
        assert merged == pytest.approx(result.total.demanded_bits)

    def test_savings_within_bounds(self, result):
        s = result.savings(VALANCIUS)
        assert -1.0 < s < 1.0
        assert result.offload_fraction() <= 1.0


class TestTheoryAgreement:
    """The paper's Fig. 2 claim: simulation matches Eq. 12."""

    @pytest.fixture(scope="class")
    def flat_item_result(self):
        config = GeneratorConfig(
            num_users=2_500,
            num_items=1,
            days=4,
            expected_sessions=0,
            pinned_views={"hit": 6_000.0},
            seed=13,
        )
        trace = TraceGenerator(config=config, profile=FLAT_PROFILE).generate()
        return simulate(trace)

    def test_offload_matches_eq3(self, flat_item_result):
        # Sub-swarms below c ~ 2 carry too few sessions for tight
        # agreement (Poisson noise ~ 1/sqrt(sessions)); the paper's
        # Fig. 2 dots scatter the same way.
        model = SavingsModel(VALANCIUS)
        checked = 0
        for swarm in flat_item_result.per_swarm.values():
            if swarm.capacity < 2.0:
                continue
            expected = model.offload_fraction(swarm.capacity)
            assert swarm.ledger.offload_fraction == pytest.approx(expected, rel=0.05)
            checked += 1
        assert checked >= 3

    def test_savings_match_eq12(self, flat_item_result):
        model = SavingsModel(VALANCIUS)
        checked = 0
        for swarm in flat_item_result.per_swarm.values():
            if swarm.capacity < 2.0:
                continue
            expected = model.savings(swarm.capacity)
            assert swarm.savings(VALANCIUS) == pytest.approx(expected, rel=0.15)
            checked += 1
        assert checked >= 3

    def test_littles_law_capacity(self, flat_item_result):
        for swarm in flat_item_result.per_swarm.values():
            if swarm.ledger.sessions < 100:
                continue
            littles = swarm.arrival_rate * swarm.mean_duration
            assert swarm.capacity == pytest.approx(littles, rel=0.05)


class TestDeltaTauSensitivity:
    def test_windows_consistent_across_delta_tau(self):
        config = GeneratorConfig(
            num_users=400, num_items=40, days=2, expected_sessions=2_500, seed=31
        )
        trace = TraceGenerator(config=config).generate()
        results = {
            dt: simulate(trace, SimulationConfig(delta_tau=dt)) for dt in (2.0, 10.0, 60.0)
        }
        savings = {dt: r.savings(VALANCIUS) for dt, r in results.items()}
        # Quantisation nudges totals slightly; savings must be stable.
        assert savings[2.0] == pytest.approx(savings[10.0], abs=0.01)
        assert savings[10.0] == pytest.approx(savings[60.0], abs=0.02)


class TestKernelProfile:
    """``PROFILE`` counts every swarm once, on either kernel."""

    @pytest.fixture(scope="class")
    def trace(self):
        config = GeneratorConfig(
            num_users=200, num_items=15, days=1, expected_sessions=900, seed=31
        )
        return TraceGenerator(config=config).generate()

    @staticmethod
    def profiled(run):
        """``(tasks, compiled_tasks, sweep_seconds)`` of one profiled call."""
        PROFILE.reset()
        PROFILE.enabled = True
        try:
            run()
            return PROFILE.tasks, PROFILE.compiled_tasks, PROFILE.sweep_seconds
        finally:
            PROFILE.enabled = False
            PROFILE.reset()

    def swarms(self, trace):
        return len(build_tasks(trace, trace.horizon, SimulationConfig().policy))

    def test_object_kernel_run_counts_and_times_every_swarm(self, trace):
        simulator = Simulator(SimulationConfig(kernel="object"))
        tasks, compiled, sweep = self.profiled(lambda: simulator.run(trace))
        assert (tasks, compiled) == (self.swarms(trace), 0)
        assert sweep > 0.0

    def test_object_kernel_sweep_counts_each_config(self, trace):
        configs = [
            SimulationConfig(upload_ratio=ratio, kernel="object")
            for ratio in (0.5, 1.0)
        ]
        simulator = Simulator(configs[0])
        tasks, compiled, sweep = self.profiled(
            lambda: simulator.run_sweep(trace, configs)
        )
        assert (tasks, compiled) == (self.swarms(trace) * len(configs), 0)
        assert sweep > 0.0

    def test_object_kernel_run_swarm_counts_once(self, trace):
        config = SimulationConfig(kernel="object")
        task = build_tasks(trace, trace.horizon, config.policy)[0]
        assert self.profiled(lambda: run_swarm(task, config))[:2] == (1, 0)

    def test_auto_run_counts_each_swarm_once(self, trace):
        tasks, compiled, sweep = self.profiled(lambda: simulate(trace))
        assert tasks == self.swarms(trace)
        assert compiled == (tasks if kernel_columns.HAVE_COMPILED else 0)
        assert sweep > 0.0
