"""Tests for closest-first window matching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.matching import PeerState, match_window
from repro.topology.layers import NetworkLayer


def peer(i, *, demand=100.0, supply=100.0, exchange=0, pop=0, isp="ISP-1", user=None):
    return PeerState(
        member_id=i,
        user_id=i if user is None else user,
        demand=demand,
        supply=supply,
        exchange=exchange,
        pop=pop,
        isp=isp,
    )


class TestDegenerateSwarms:
    def test_empty(self):
        alloc = match_window([])
        assert alloc.server_bits == 0.0
        assert alloc.total_peer_bits == 0.0

    def test_single_member_all_server(self):
        alloc = match_window([peer(0)])
        assert alloc.server_bits == 100.0
        assert alloc.total_peer_bits == 0.0
        assert alloc.demanded_bits == 100.0

    def test_pair_shares_seed_upload(self):
        """L = 2: the seed re-shares its stream; Delta-Tp = (L-1) q = q."""
        alloc = match_window([peer(0, exchange=0), peer(1, exchange=1)])
        assert alloc.server_bits == pytest.approx(100.0)
        assert alloc.total_peer_bits == pytest.approx(100.0)

    def test_pair_with_limited_upload(self):
        alloc = match_window([peer(0, supply=30.0), peer(1, supply=30.0)])
        assert alloc.total_peer_bits == pytest.approx(30.0)
        assert alloc.server_bits == pytest.approx(100.0 + 70.0)


class TestEq2Correspondence:
    """The fluid matcher reproduces Delta-Tp = (L-1) * min(q, beta)."""

    @pytest.mark.parametrize("L", [2, 3, 5, 10])
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 1.0])
    def test_uniform_swarm(self, L, ratio):
        beta = 100.0
        members = [peer(i, demand=beta, supply=ratio * beta, exchange=i) for i in range(L)]
        alloc = match_window(members)
        expected_peer = (L - 1) * min(ratio * beta, beta)
        assert alloc.total_peer_bits == pytest.approx(expected_peer)
        assert alloc.server_bits == pytest.approx(L * beta - expected_peer)

    def test_oversupply_capped_by_demand(self):
        members = [peer(i, demand=100.0, supply=500.0, exchange=i) for i in range(4)]
        alloc = match_window(members)
        # Only the three non-seed streams are peer-servable.
        assert alloc.total_peer_bits == pytest.approx(300.0)


class TestConservation:
    def test_demand_fully_accounted(self):
        members = [peer(i, exchange=i % 2, pop=i % 2) for i in range(7)]
        alloc = match_window(members)
        assert alloc.server_bits + alloc.total_peer_bits == pytest.approx(
            alloc.demanded_bits
        )

    def test_uploads_equal_peer_bits(self):
        members = [peer(i, exchange=i % 3) for i in range(9)]
        alloc = match_window(members)
        assert sum(alloc.uploaded_bits.values()) == pytest.approx(alloc.total_peer_bits)

    @given(
        n=st.integers(min_value=1, max_value=12),
        ratio=st.floats(min_value=0.0, max_value=2.0),
        spread=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation_property(self, n, ratio, spread):
        members = [
            peer(i, demand=100.0, supply=ratio * 100.0, exchange=i % spread, pop=(i % spread) % 2)
            for i in range(n)
        ]
        alloc = match_window(members)
        assert alloc.server_bits + alloc.total_peer_bits == pytest.approx(alloc.demanded_bits)
        assert sum(alloc.uploaded_bits.values()) == pytest.approx(alloc.total_peer_bits)
        assert alloc.server_bits >= 100.0 - 1e-6  # the seed stream at least
        # No member uploads beyond its capacity.
        for uid, bits in alloc.uploaded_bits.items():
            assert bits <= ratio * 100.0 + 1e-6


class TestLocality:
    def test_same_exchange_matched_at_exchange(self):
        members = [peer(i, exchange=5, pop=1) for i in range(3)]
        alloc = match_window(members)
        assert set(alloc.peer_bits) == {NetworkLayer.EXCHANGE}

    def test_same_pop_without_shared_exchange(self):
        members = [peer(i, exchange=i, pop=2) for i in range(3)]
        alloc = match_window(members)
        assert set(alloc.peer_bits) == {NetworkLayer.POP}

    def test_cross_pop_goes_to_core(self):
        members = [peer(i, exchange=i, pop=i) for i in range(3)]
        alloc = match_window(members)
        assert set(alloc.peer_bits) == {NetworkLayer.CORE}

    def test_closest_first_preference(self):
        """Co-located pairs exhaust local supply before climbing layers."""
        # Two members at exchange 0, two at exchange 1, all in pop 0.
        members = [
            peer(0, exchange=0), peer(1, exchange=0),
            peer(2, exchange=1), peer(3, exchange=1),
        ]
        alloc = match_window(members)
        # Seed (member 0) feeds from server; member 1 is served at the
        # exchange by member 0's upload... exchange-local bits dominate.
        assert alloc.peer_bits.get(NetworkLayer.EXCHANGE, 0.0) > 0.0
        assert alloc.total_peer_bits == pytest.approx(300.0)
        assert (
            alloc.peer_bits.get(NetworkLayer.EXCHANGE, 0.0)
            >= alloc.peer_bits.get(NetworkLayer.POP, 0.0)
        )

    def test_big_local_swarm_all_exchange(self):
        members = [peer(i, exchange=0) for i in range(20)]
        alloc = match_window(members)
        assert alloc.peer_bits.get(NetworkLayer.EXCHANGE, 0.0) == pytest.approx(1900.0)


class TestSelfServiceForbidden:
    def test_lone_member_per_exchange_cannot_self_serve(self):
        """A member with supply cannot satisfy its own demand."""
        # Non-seed member 1 is alone at its exchange with huge supply.
        members = [peer(0, exchange=0, supply=0.0), peer(1, exchange=1, supply=1000.0)]
        alloc = match_window(members)
        # Member 1's demand can only come from the seed (supply 0) -> server.
        assert alloc.total_peer_bits == 0.0
        assert alloc.server_bits == pytest.approx(200.0)

    def test_pair_at_same_exchange_with_one_sided_supply(self):
        # Seed supplies, fresh peer demands; both at one exchange.
        members = [peer(0, exchange=0, supply=100.0), peer(1, exchange=0, supply=100.0)]
        alloc = match_window(members)
        assert alloc.peer_bits.get(NetworkLayer.EXCHANGE, 0.0) == pytest.approx(100.0)


class TestCrossIsp:
    def test_disabled_by_default(self):
        members = [peer(0, isp="ISP-1"), peer(1, isp="ISP-2")]
        alloc = match_window(members)
        assert alloc.total_peer_bits == 0.0

    def test_enabled_matches_at_transit_layer(self):
        members = [peer(0, isp="ISP-1"), peer(1, isp="ISP-2")]
        alloc = match_window(members, allow_cross_isp=True)
        assert alloc.peer_bits.get(NetworkLayer.SERVER, 0.0) == pytest.approx(100.0)

    def test_same_isp_still_preferred(self):
        members = [
            peer(0, isp="ISP-1", exchange=0),
            peer(1, isp="ISP-1", exchange=1),
            peer(2, isp="ISP-2", exchange=0),
        ]
        alloc = match_window(members, allow_cross_isp=True)
        # Member 1 matches within ISP-1 before any transit matching.
        assert alloc.peer_bits.get(NetworkLayer.POP, 0.0) > 0.0


class TestWindowAllocation:
    def test_peer_state_validation(self):
        with pytest.raises(ValueError):
            PeerState(member_id=0, user_id=0, demand=-1.0, supply=0.0, exchange=0, pop=0, isp="x")
