"""Closest-first peer matching within one simulation window.

The paper's simulator "matches peers that are closest to each other"
(Section IV.A).  We implement that as a three-phase fluid allocation over
the ISP tree -- peers satisfy as much demand as possible at the exchange
point, then within the PoP, then across the metro core; whatever remains
is streamed from the CDN:

1. One online member is the **seed**: its whole stream comes from the
   server (somebody has to fetch each fresh chunk; cf. the paper's
   Eq. 2, where only ``L - 1`` of ``L`` streams are peer-servable), and
   it re-shares what it fetches at full upload rate.
2. One member is the **fresh peer** (the newest viewpoint: it has not
   buffered anything worth sharing yet) and contributes no upload.  With
   seed uploading and fresh abstaining the aggregate peer supply is
   ``(L - 1) * q`` -- exactly the analytical model's Eq. 2.
3. Every non-seed member demands ``beta_i * dtau`` from peers; every
   non-fresh member supplies ``q_i * dtau``; volumes match closest-first.

Within each phase the transferable volume between a set of co-located
groups is the max-flow of a complete-bipartite-minus-block-diagonal
transportation problem ("anyone can serve anyone except their own
group"), which has the closed form::

    flow = min(sum(D), sum(S), sum(D) + sum(S) - max_g (D_g + S_g))

(at the exchange phase a "group" is a single user, forbidding
self-service; at higher phases it is the subtree already matched).
Volumes are then drained proportionally, a standard fluid approximation:
per-layer byte totals are exact, per-user attribution of *leftover*
demand is approximate, and per-user upload attribution is proportional
to contributed supply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.topology.layers import NetworkLayer
from repro.topology.nodes import AttachmentPoint, intern_attachment, lowest_common_layer

__all__ = [
    "PeerState",
    "WindowAllocation",
    "match_window",
    "GroupKey",
    "BlockKey",
]

_EPS = 1e-9


@dataclass(slots=True)
class PeerState:
    """One swarm member's state within a single window.

    A hot per-window type: the kernel creates one per (member, config)
    and the matcher touches every field per phase, so the class is
    ``slots=True`` (no per-instance dict) and carries the *interned*
    attachment flyweight so no phase ever rebuilds one.

    Attributes:
        member_id: unique id within the swarm (session id).
        user_id: the viewer's id (for per-user accounting).
        demand: bits the member must stream this window (``beta * dtau``).
        supply: bits the member can upload this window (``q * dtau``).
        exchange: the member's exchange-point index.
        pop: the member's PoP index.
        isp: the member's ISP name.
        attachment: the member's interned
            :class:`~repro.topology.nodes.AttachmentPoint`; filled from
            the flyweight cache when not supplied (producers that already
            hold the session's interned attachment pass it through).
    """

    member_id: int
    user_id: int
    demand: float
    supply: float
    exchange: int
    pop: int
    isp: str
    attachment: Optional[AttachmentPoint] = None

    def __post_init__(self) -> None:
        if self.demand < 0 or self.supply < 0:
            raise ValueError(
                f"demand/supply must be >= 0, got {self.demand!r}/{self.supply!r}"
            )
        if self.attachment is None:
            self.attachment = intern_attachment(self.isp, self.pop, self.exchange)


#: Maps a member to its matching scope within a phase (e.g. its PoP).
GroupKey = Callable[[PeerState], Hashable]

#: Maps a member *index* to its forbidden self-service block (e.g. the
#: subtree already matched at a lower phase).
BlockKey = Callable[[int], Hashable]


@dataclass(slots=True)
class WindowAllocation:
    """Where one window's bytes came from.

    Attributes:
        peer_bits: bits served peer-to-peer, by localisation layer.
        server_bits: bits served by the CDN.
        uploaded_bits: per-user uploaded bits (only sharing users appear).
        demanded_bits: total bits streamed this window (demand side).
    """

    peer_bits: Dict[NetworkLayer, float] = field(default_factory=dict)
    server_bits: float = 0.0
    uploaded_bits: Dict[int, float] = field(default_factory=dict)
    demanded_bits: float = 0.0

    @property
    def total_peer_bits(self) -> float:
        return sum(self.peer_bits.values())


def match_window(
    members: Sequence[PeerState],
    *,
    allow_cross_isp: bool = False,
    locality_aware: bool = True,
) -> WindowAllocation:
    """Allocate one window's demand closest-first across the swarm.

    Args:
        members: online swarm members (any ISP mix; the scoping policy
            normally pre-filters to one ISP).
        allow_cross_isp: when True, a final matching phase runs across
            ISPs (charged at the transit rate by the accounting layer via
            :attr:`NetworkLayer.SERVER`); the paper's ISP-friendly
            policy keeps this off.
        locality_aware: when False, peers are matched *randomly* instead
            of closest-first -- the same volume moves, but each unit of
            it turns around at the layer of a uniformly random
            supplier/demander pair.  This is the ablation baseline that
            isolates what "consume local" itself is worth.

    Returns:
        The window's :class:`WindowAllocation`.  The seed member (lowest
        ``user_id``, ties by ``member_id``) is always server-fed.
    """
    allocation = WindowAllocation()
    if not members:
        return allocation
    allocation.demanded_bits = sum(m.demand for m in members)

    if len(members) == 1:
        allocation.server_bits = members[0].demand
        return allocation

    # The seed is whoever holds fresh chunks: a lingering cached copy
    # (demand 0, supply > 0) when one exists -- then no server stream is
    # forced at all, which is exactly the caching extension's benefit --
    # otherwise the lowest-id viewer, whose stream is server-fed.
    seed = min(members, key=lambda m: (m.demand > 0.0, m.user_id, m.member_id))
    watchers = [m for m in members if m is not seed and m.demand > 0.0]
    fresh = max(watchers, key=lambda m: (m.user_id, m.member_id), default=None)
    allocation.server_bits += seed.demand

    # Working copies.  The seed demands nothing from peers (server-fed
    # or already cached) but uploads; the fresh peer (newest viewer) has
    # buffered nothing worth sharing yet and cannot upload; with every
    # member watching this makes the aggregate supply (L - 1) * q,
    # matching the paper's Eq. 2.
    active = list(members)
    demands = [0.0 if m is seed else m.demand for m in active]
    supplies = [0.0 if m is fresh else m.supply for m in active]

    if not locality_aware:
        _match_randomly(active, demands, supplies, allocation, allow_cross_isp)
        allocation.server_bits += sum(demands)
        return allocation

    phases: List[Tuple[NetworkLayer, GroupKey, BlockKey]] = [
        # (layer at which bits turn around, group key, forbidden-block key)
        (NetworkLayer.EXCHANGE, lambda m: (m.isp, m.exchange), lambda i: i),
        (
            NetworkLayer.POP,
            lambda m: (m.isp, m.pop),
            lambda i: (active[i].isp, active[i].exchange),
        ),
        (NetworkLayer.CORE, lambda m: m.isp, lambda i: (active[i].isp, active[i].pop)),
    ]
    if allow_cross_isp:
        phases.append((NetworkLayer.SERVER, lambda m: None, lambda i: active[i].isp))

    for layer, group_key, block_key in phases:
        _run_phase(active, demands, supplies, layer, group_key, block_key, allocation)

    allocation.server_bits += sum(demands)
    return allocation


def _match_randomly(
    active: List[PeerState],
    demands: List[float],
    supplies: List[float],
    allocation: WindowAllocation,
    allow_cross_isp: bool,
) -> None:
    """Random (locality-blind) fluid matching: the ablation baseline.

    Moves the same feasible volume as one all-pairs phase, but each unit
    of it is carried at the common layer of a demand-and-supply-weighted
    random pair -- what a tracker that ignores topology would produce.
    O(n^2) in the window's swarm size; only the ablation benchmarks use
    it.
    """
    scope_key: GroupKey = (lambda m: None) if allow_cross_isp else (lambda m: m.isp)
    scopes: Dict[Hashable, List[int]] = {}
    for index, member in enumerate(active):
        scopes.setdefault(scope_key(member), []).append(index)

    for indices in scopes.values():
        total_demand = sum(demands[i] for i in indices)
        total_supply = sum(supplies[i] for i in indices)
        if total_demand <= _EPS or total_supply <= _EPS:
            continue
        block_totals: Dict[int, float] = {}
        for i in indices:
            block_totals[i] = demands[i] + supplies[i]
        bound = total_demand + total_supply - max(block_totals.values())
        transferred = min(total_demand, total_supply, bound)
        if transferred <= _EPS:
            continue

        # Layer mixture of a random (supply x demand)-weighted pair.
        # Members carry their interned attachment, so the n^2 pair loop
        # only classifies layers -- it never constructs (or validates) an
        # AttachmentPoint per supplier x demander pair.
        layer_weights: Dict[NetworkLayer, float] = {}
        pair_total = 0.0
        for i in indices:
            if supplies[i] <= 0.0:
                continue
            a = active[i].attachment
            for j in indices:
                if i == j or demands[j] <= 0.0:
                    continue
                b = active[j].attachment
                layer = lowest_common_layer(a, b)
                weight = supplies[i] * demands[j]
                layer_weights[layer] = layer_weights.get(layer, 0.0) + weight
                pair_total += weight
        if pair_total <= 0.0:
            continue

        demand_factor = transferred / total_demand
        supply_factor = transferred / total_supply
        for i in indices:
            if supplies[i] > 0.0:
                contributed = supplies[i] * supply_factor
                uid = active[i].user_id
                allocation.uploaded_bits[uid] = (
                    allocation.uploaded_bits.get(uid, 0.0) + contributed
                )
                supplies[i] -= contributed
            if demands[i] > 0.0:
                demands[i] -= demands[i] * demand_factor
        for layer, weight in layer_weights.items():
            allocation.peer_bits[layer] = (
                allocation.peer_bits.get(layer, 0.0) + transferred * weight / pair_total
            )


def _run_phase(
    active: List[PeerState],
    demands: List[float],
    supplies: List[float],
    layer: NetworkLayer,
    group_key: GroupKey,
    block_key: BlockKey,
    allocation: WindowAllocation,
) -> None:
    """One matching phase: drain demand inside each ``group_key`` scope."""
    scopes: Dict[Hashable, List[int]] = {}
    for index, member in enumerate(active):
        scopes.setdefault(group_key(member), []).append(index)

    for indices in scopes.values():
        if len(indices) < 2 and layer is NetworkLayer.EXCHANGE:
            # A single member cannot self-serve; higher phases may still
            # have one-member scopes contribute demand or supply, which
            # the block-diagonal bound handles uniformly below.
            continue
        total_demand = sum(demands[i] for i in indices)
        total_supply = sum(supplies[i] for i in indices)
        if total_demand <= _EPS or total_supply <= _EPS:
            continue

        # Block-diagonal max-flow bound: a block (user at the exchange
        # phase, already-matched subtree above) cannot serve itself.
        block_totals: Dict[Hashable, float] = {}
        for i in indices:
            block = block_key(i)
            block_totals[block] = (
                block_totals.get(block, 0.0) + demands[i] + supplies[i]
            )
        bound = total_demand + total_supply - max(block_totals.values())
        transferred = min(total_demand, total_supply, bound)
        if transferred <= _EPS:
            continue

        demand_factor = transferred / total_demand
        supply_factor = transferred / total_supply
        for i in indices:
            if supplies[i] > 0.0:
                contributed = supplies[i] * supply_factor
                uid = active[i].user_id
                allocation.uploaded_bits[uid] = (
                    allocation.uploaded_bits.get(uid, 0.0) + contributed
                )
                supplies[i] -= contributed
            if demands[i] > 0.0:
                demands[i] -= demands[i] * demand_factor
        allocation.peer_bits[layer] = allocation.peer_bits.get(layer, 0.0) + transferred
