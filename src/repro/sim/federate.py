"""Multi-city federated simulation with reducer-level reconciliation.

One simulation run models one city.  This module runs N cities/regions
as **separate jobs** -- each with its own session store, its own
grouping pass, any execution backend (including ``distributed`` over
per-region queue dirs) -- and reconciles them into one global result
*at the reducer*, not by merging finished results.

Why reducer-level: adding already-folded regional totals performs the
float additions in a different association than a single run over the
union trace would -- close, but not bit-for-bit (the same reason the
always-on service folds epochs through one long-lived reducer).  ``run_federation``
instead replays every region's :class:`~repro.sim.kernel.SwarmOutput`
blocks into one global :class:`~repro.sim.reduce.StreamingReducer` at
the task indices the swarms would occupy in the union run's canonical
order.  Identical outputs folded in the identical sequence means: **for
disjoint topologies (region-prefixed content ids, e.g. anything
**:mod:`repro.trace.synth` writes), the federated result is bit-for-bit
equal to a single run over the concatenated trace.**

Cross-region swarms: when regions share a catalogue (and the policy
does not split them apart), the *same* swarm key can surface in several
regions.  Those swarms genuinely simulate as separate per-region peer
pools -- federation cannot match peers across jobs -- so the global
fold combines their results per key and the :class:`FederationLedger`
reports the split: each cross-region swarm is assigned a home region by
a declared :data:`home rule <default_home_rule>`, and every non-home
region's traffic for that swarm is accounted as a directed
``source -> home`` inter-region byte flow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.sim.accounting import ByteLedger
from repro.sim.backends import resolve_backend
from repro.sim.engine import SimulationConfig
from repro.sim.grouping import resolve_grouping
from repro.sim.policies import SwarmKey
from repro.sim.reduce import StreamingReducer
from repro.sim.results import SimulationResult, SwarmResult
from repro.trace.store import StoreReader

__all__ = [
    "RegionJob",
    "FederationLedger",
    "FederationResult",
    "HomeRule",
    "default_home_rule",
    "declared_home_rule",
    "run_federation",
]

#: A home-region rule: given a cross-region swarm key and the per-region
#: results that contributed to it, name the region the swarm belongs to.
HomeRule = Callable[[SwarmKey, Mapping[str, SwarmResult]], str]

_REGION_PATTERN = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class RegionJob:
    """One region's job description.

    Attributes:
        name: region name, ``[A-Za-z0-9_]+`` (must match the prefix
            convention of :mod:`repro.trace.synth` for union parity:
            region-name order and content-id order must agree).
        store: the region's binary session store
            (:class:`~repro.trace.store.StoreReader`-readable).
        queue_dir: per-region work-queue directory; only valid when the
            federation config uses ``backend="distributed"``, where it
            gives each city its own queue (and worker fleet).
        cache_token: optional shard-cache token for the region's trace
            (e.g. ``SynthConfig.cache_token``); with a cache-capable
            grouping the region's sort is skipped on a cache hit.
    """

    name: str
    store: Union[str, Path]
    queue_dir: Optional[str] = None
    cache_token: Optional[str] = None

    def __post_init__(self) -> None:
        if not _REGION_PATTERN.match(self.name):
            raise ValueError(
                f"region name must match [A-Za-z0-9_]+, got {self.name!r}"
            )


@dataclass
class FederationLedger:
    """Inter-region offload accounting for cross-region swarms.

    Attributes:
        cross_region_swarms: swarm keys that surfaced in more than one
            region (0 for disjoint topologies).
        flows: directed byte flows ``(source_region, home_region) ->``
            :class:`~repro.sim.accounting.ByteLedger` -- the traffic a
            non-home region carried for swarms homed elsewhere.
        home_swarms: cross-region swarm count by assigned home region.
    """

    cross_region_swarms: int = 0
    flows: Dict[Tuple[str, str], ByteLedger] = field(default_factory=dict)
    home_swarms: Dict[str, int] = field(default_factory=dict)

    @property
    def inter_region_bits(self) -> float:
        """Total demanded bits served outside their swarm's home region."""
        return sum(ledger.demanded_bits for ledger in self.flows.values())

    def summary(self) -> Dict:
        """A JSON-able view (for benchmarks and the CLI)."""
        return {
            "cross_region_swarms": self.cross_region_swarms,
            "inter_region_bits": self.inter_region_bits,
            "home_swarms": dict(sorted(self.home_swarms.items())),
            "flows": [
                {
                    "source": source,
                    "home": home,
                    "demanded_bits": ledger.demanded_bits,
                    "peer_bits": ledger.total_peer_bits,
                    "server_bits": ledger.server_bits,
                    "sessions": ledger.sessions,
                }
                for (source, home), ledger in sorted(self.flows.items())
            ],
        }


@dataclass(frozen=True)
class FederationResult:
    """Everything a federated run produced.

    Attributes:
        merged: the reducer-reconciled global result.  For disjoint
            topologies it is bit-for-bit equal to a single run over the
            union trace (see the module docstring); with cross-region
            swarms, per-key contributions are combined.
        per_region: each region's own :class:`~repro.sim.results.\
            SimulationResult`, exactly what a standalone run of that
            region's store (under the shared horizon) produces.
        ledger: the inter-region offload accounting.
        horizon: the shared horizon every job ran under (the maximum of
            the region store horizons unless overridden).
        region_tasks: swarm-task count per region.
    """

    merged: SimulationResult
    per_region: Dict[str, SimulationResult]
    ledger: FederationLedger
    horizon: float
    region_tasks: Dict[str, int]


def default_home_rule(key: SwarmKey, contributions: Mapping[str, SwarmResult]) -> str:
    """Home a cross-region swarm by content prefix, else by demand.

    If the swarm's content id carries a ``"<region>/"`` prefix naming a
    contributing region, that region is home (content origin wins).
    Otherwise the region that demanded the most bits is home, ties
    broken by region name -- deterministic under any arrival order.
    """
    prefix, _, _ = key.content_id.partition("/")
    if prefix in contributions:
        return prefix
    return max(
        contributions,
        key=lambda region: (contributions[region].ledger.demanded_bits, region),
    )


def declared_home_rule(homes: Mapping[str, str]) -> HomeRule:
    """A :data:`HomeRule` from an explicit ``content prefix -> region`` map.

    Swarms whose content prefix is not declared fall back to
    :func:`default_home_rule`.
    """

    def rule(key: SwarmKey, contributions: Mapping[str, SwarmResult]) -> str:
        prefix, _, _ = key.content_id.partition("/")
        home = homes.get(prefix)
        if home is not None:
            return home
        return default_home_rule(key, contributions)

    return rule


def _region_config(config: SimulationConfig, job: RegionJob) -> SimulationConfig:
    """The per-region config: the shared one, plus the job's queue dir."""
    if job.queue_dir is None:
        return config
    if config.backend != "distributed":
        raise ValueError(
            f"region {job.name!r} declares a queue_dir but the federation "
            f"config uses backend={config.backend!r} (need 'distributed')"
        )
    return replace(config, queue_dir=str(job.queue_dir))


def run_federation(
    jobs: Sequence[RegionJob],
    config: Optional[SimulationConfig] = None,
    *,
    horizon: Optional[float] = None,
    home_rule: Optional[HomeRule] = None,
) -> FederationResult:
    """Run every region as its own job and reconcile at the reducer.

    Regions execute sequentially in name order (each job may itself be
    parallel or distributed); every region's swarm outputs feed both a
    per-region reducer and the global reducer at the swarm's task index
    in the union run's canonical order.  Both reducers keep the plain
    dict fold (``config.reduction`` / ``spill_dir`` choose where a
    single run keeps its per-user deltas and are not consulted here);
    results are bit-for-bit identical to either reduction mode.

    Args:
        jobs: one :class:`RegionJob` per region; names must be unique.
        config: the shared :class:`~repro.sim.engine.SimulationConfig`
            (physics + backend/grouping/kernel knobs).
        horizon: explicit shared horizon in seconds; default is the
            maximum of the region stores' recorded horizons.  Every
            region runs under the shared horizon so per-region results
            merge and compare cleanly.
        home_rule: how cross-region swarms are assigned a home region
            for the :class:`FederationLedger`
            (default :func:`default_home_rule`).
    """
    jobs = sorted(jobs, key=lambda job: job.name)
    if not jobs:
        raise ValueError("run_federation needs at least one region job")
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"region names must be unique, got {names}")
    config = config or SimulationConfig()
    rule = home_rule or default_home_rule

    readers = [StoreReader(job.store) for job in jobs]
    try:
        shared_horizon = horizon
        if shared_horizon is None:
            shared_horizon = max(reader.horizon for reader in readers)
        if shared_horizon <= 0:
            raise ValueError(
                f"shared horizon must be > 0, got {shared_horizon!r} "
                "(stores written without a horizon need an explicit one)"
            )

        # Phase 1: group every region (cache-aware), collect task keys.
        plans = []
        try:
            for job, reader in zip(jobs, readers):
                grouping = resolve_grouping(config.grouping, config.shard_dir)
                plans.append(
                    grouping.plan(
                        reader.iter_sessions(),
                        shared_horizon,
                        config.policy,
                        cache_token=job.cache_token,
                    )
                )

            # Phase 2: the union run's canonical task order.  Sorting
            # every (key, region, local index) triple by the canonical
            # swarm-key order -- region position breaking exact-key ties
            # -- reproduces exactly the task sequence build_tasks would
            # emit for the concatenated trace when keys are disjoint.
            entries: List[Tuple[tuple, int, int]] = []
            for position, plan in enumerate(plans):
                for local_index, ref in enumerate(plan.refs()):
                    entries.append((ref.key.sort_key(), position, local_index))
            entries.sort()
            global_index: Dict[Tuple[int, int], int] = {
                (position, local_index): rank
                for rank, (_, position, local_index) in enumerate(entries)
            }

            # Phase 3: run each job, feeding both reducers.
            merged_reducer = StreamingReducer(
                delta_tau=config.delta_tau,
                horizon=shared_horizon,
                upload_ratio=config.upload_ratio,
            )
            per_region: Dict[str, SimulationResult] = {}
            region_tasks: Dict[str, int] = {}
            for position, (job, plan) in enumerate(zip(jobs, plans)):
                region_config = _region_config(config, job)
                backend = resolve_backend(
                    region_config.backend,
                    region_config.workers,
                    region_config.queue_dir,
                )
                region_reducer = StreamingReducer(
                    delta_tau=config.delta_tau,
                    horizon=shared_horizon,
                    upload_ratio=config.upload_ratio,
                )
                try:
                    for start_index, block in backend.iter_outputs(
                        plan, region_config
                    ):
                        region_reducer.add(start_index, block)
                        for offset, output in enumerate(block):
                            merged_reducer.add(
                                global_index[(position, start_index + offset)],
                                (output,),
                            )
                finally:
                    if hasattr(backend, "close"):
                        backend.close()
                if region_reducer.outputs_folded != len(plan):
                    raise RuntimeError(
                        f"region {job.name!r} delivered "
                        f"{region_reducer.outputs_folded} outputs for "
                        f"{len(plan)} tasks"
                    )
                per_region[job.name] = region_reducer.result()
                region_tasks[job.name] = len(plan)
        finally:
            for plan in plans:
                plan.cleanup()
        merged = merged_reducer.result()
    finally:
        for reader in readers:
            reader.close()

    return FederationResult(
        merged=merged,
        per_region=per_region,
        ledger=_reconcile(per_region, rule),
        horizon=shared_horizon,
        region_tasks=region_tasks,
    )


def _reconcile(
    per_region: Mapping[str, SimulationResult], rule: HomeRule
) -> FederationLedger:
    """Account cross-region swarms into the federation ledger."""
    contributions: Dict[SwarmKey, Dict[str, SwarmResult]] = {}
    for region in sorted(per_region):
        for key, swarm in per_region[region].per_swarm.items():
            contributions.setdefault(key, {})[region] = swarm
    ledger = FederationLedger()
    for key in sorted(contributions, key=SwarmKey.sort_key):
        regions = contributions[key]
        if len(regions) < 2:
            continue
        home = rule(key, regions)
        if home not in regions:
            raise ValueError(
                f"home rule returned {home!r} for swarm {key!r}, which is "
                f"not among its contributing regions {sorted(regions)}"
            )
        ledger.cross_region_swarms += 1
        ledger.home_swarms[home] = ledger.home_swarms.get(home, 0) + 1
        for region, swarm in sorted(regions.items()):
            if region == home:
                continue
            flow = ledger.flows.setdefault((region, home), ByteLedger())
            flow.merge(swarm.ledger)
    return ledger
