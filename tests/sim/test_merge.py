"""Mergeable results: the pairwise folds behind the reducer.

ByteLedger / UserTraffic / SwarmResult fold pairwise, and the
streaming reduction over them must never mutate its inputs.
"""

import pytest

from repro.sim import SimulationConfig
from repro.sim.accounting import ByteLedger
from repro.sim.policies import SwarmKey
from repro.sim.results import SwarmResult, UserTraffic
from repro.topology.layers import NetworkLayer
from repro.trace.generator import GeneratorConfig, TraceGenerator


def make_ledger(server, exchange, demanded, sessions=1):
    return ByteLedger(
        server_bits=float(server),
        peer_bits={NetworkLayer.EXCHANGE: float(exchange)},
        demanded_bits=float(demanded),
        watch_seconds=float(sessions) * 10.0,
        sessions=sessions,
    )


class TestByteLedgerMerge:
    def test_associativity_exact(self):
        # Values exactly representable in binary floating point, so the
        # grouping genuinely does not matter bit-for-bit.
        a = make_ledger(1024, 256, 1280)
        b = make_ledger(2048, 512, 2560, sessions=2)
        c = make_ledger(4096, 128, 4224, sessions=3)

        left = ByteLedger.merged([ByteLedger.merged([a, b]), c])
        right = ByteLedger.merged([a, ByteLedger.merged([b, c])])
        assert left.server_bits == right.server_bits
        assert left.peer_bits == right.peer_bits
        assert left.demanded_bits == right.demanded_bits
        assert left.watch_seconds == right.watch_seconds
        assert left.sessions == right.sessions

    def test_copy_is_independent(self):
        a = make_ledger(100, 10, 110)
        clone = a.copy()
        clone.server_bits += 1.0
        clone.peer_bits[NetworkLayer.EXCHANGE] += 5.0
        assert a.server_bits == 100.0
        assert a.peer_bits[NetworkLayer.EXCHANGE] == 10.0

    def test_merge_does_not_touch_source(self):
        a = make_ledger(100, 10, 110)
        b = make_ledger(50, 5, 55)
        a.merge(b)
        assert b.server_bits == 50.0
        assert a.server_bits == 150.0


class TestUserTrafficMerge:
    def test_merge_adds(self):
        a = UserTraffic(watched_bits=100.0, uploaded_bits=25.0)
        a.merge(UserTraffic(watched_bits=50.0, uploaded_bits=5.0))
        assert a.watched_bits == 150.0
        assert a.uploaded_bits == 30.0

    def test_copy_is_independent(self):
        a = UserTraffic(watched_bits=1.0, uploaded_bits=2.0)
        clone = a.copy()
        clone.merge(a)
        assert a.watched_bits == 1.0


class TestSwarmResultCombine:
    def test_session_weighted_mean_duration(self):
        key = SwarmKey(content_id="x")
        a = SwarmResult(
            key=key, ledger=make_ledger(0, 0, 0, sessions=3),
            capacity=1.0, arrival_rate=0.5, mean_duration=100.0,
        )
        b = SwarmResult(
            key=key, ledger=make_ledger(0, 0, 0, sessions=1),
            capacity=2.0, arrival_rate=0.25, mean_duration=300.0,
        )
        merged = SwarmResult.combine(key, [a, b])
        assert merged.capacity == 3.0
        assert merged.arrival_rate == 0.75
        assert merged.mean_duration == pytest.approx(150.0)
        assert merged.ledger.sessions == 4

    def test_combine_leaves_inputs_untouched(self):
        key = SwarmKey(content_id="x")
        a = SwarmResult(
            key=key, ledger=make_ledger(8, 4, 12),
            capacity=1.0, arrival_rate=0.5, mean_duration=10.0,
        )
        SwarmResult.combine(key, [a, a])
        assert a.ledger.server_bits == 8.0


class TestReductionRegressions:
    """Regressions caught in review: reductions must not mutate their
    inputs."""

    def test_merge_outputs_is_idempotent(self):
        from repro.sim.kernel import build_tasks, merge_outputs, run_shard

        config = SimulationConfig()
        trace = TraceGenerator(
            config=GeneratorConfig(
                num_users=100, num_items=8, days=1, expected_sessions=600, seed=23
            )
        ).generate()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        outputs = run_shard(tasks, config)

        def reduce_once():
            return merge_outputs(
                outputs, delta_tau=config.delta_tau,
                horizon=trace.horizon, upload_ratio=config.upload_ratio,
            )

        first = reduce_once()
        second = reduce_once()
        assert second.total.server_bits == first.total.server_bits
        for key, ledger in first.per_isp_day.items():
            assert second.per_isp_day[key].server_bits == ledger.server_bits
        for uid, traffic in first.per_user.items():
            assert second.per_user[uid].uploaded_bits == traffic.uploaded_bits
