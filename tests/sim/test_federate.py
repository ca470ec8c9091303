"""Federation: reducer-level reconciliation of per-region jobs.

The headline contract (:mod:`repro.sim.federate`): a federated K-city
run over **disjoint** topologies is bit-for-bit equal to the single
run over the union trace -- because every region's swarm outputs fold
into one global reducer at the union run's canonical task indices, not
by merging finished results.  Also covered: per-region results match
standalone runs, the contract holds across backends and groupings,
cross-region swarms land in the federation ledger under the home-region
rules, and job validation rejects what it should.
"""

import itertools
from contextlib import ExitStack

import pytest

from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.federate import (
    FederationLedger,
    RegionJob,
    declared_home_rule,
    default_home_rule,
    run_federation,
)
from repro.sim.policies import SwarmPolicy
from repro.trace.store import StoreReader
from repro.trace.synth import SynthConfig, synthesize


def make_regions(tmp_path, *, prefix=None, cities=3):
    """Synthesize small per-region stores; returns (configs, paths)."""
    configs = [
        SynthConfig(
            region=f"city{i}",
            seed=20 + i,
            days=2,
            users=30 + 5 * i,
            catalogue_size=10,
            sessions_per_user_day=1.5,
            num_isps=2,
            num_exchanges=4,
            num_pops=2,
            catalogue_prefix=prefix,
        )
        for i in range(cities)
    ]
    paths = [
        synthesize(config, tmp_path / f"{config.region}.store").path
        for config in configs
    ]
    return configs, paths


def union_result(paths, horizon, config=None):
    simulator = Simulator(config or SimulationConfig())
    try:
        with ExitStack() as stack:
            readers = [stack.enter_context(StoreReader(p)) for p in paths]
            return simulator.run_stream(
                itertools.chain.from_iterable(
                    r.iter_sessions() for r in readers
                ),
                horizon,
            )
    finally:
        simulator.close()


def test_disjoint_federation_equals_union_run(tmp_path):
    configs, paths = make_regions(tmp_path)
    horizon = max(c.horizon for c in configs)
    union = union_result(paths, horizon)
    fed = run_federation(
        [RegionJob(name=c.region, store=p) for c, p in zip(configs, paths)]
    )
    assert fed.horizon == horizon
    assert fed.merged.identical_to(union)
    assert fed.ledger.cross_region_swarms == 0
    assert fed.ledger.inter_region_bits == 0.0
    assert not fed.ledger.flows


def test_per_region_results_match_standalone_runs(tmp_path):
    configs, paths = make_regions(tmp_path)
    horizon = max(c.horizon for c in configs)
    fed = run_federation(
        [RegionJob(name=c.region, store=p) for c, p in zip(configs, paths)]
    )
    for config, path in zip(configs, paths):
        simulator = Simulator(SimulationConfig())
        with StoreReader(path) as reader:
            standalone = simulator.run_stream(reader.iter_sessions(), horizon)
        assert fed.per_region[config.region].identical_to(standalone)
        assert fed.region_tasks[config.region] > 0


@pytest.mark.parametrize(
    "sim_config",
    [
        SimulationConfig(workers=2, backend="process"),
        SimulationConfig(grouping="external"),
        SimulationConfig(
            workers=2, backend="distributed", reduction="streaming"
        ),
    ],
    ids=["process", "external-grouping", "distributed"],
)
def test_parity_across_backends_and_groupings(tmp_path, sim_config):
    configs, paths = make_regions(tmp_path, cities=2)
    horizon = max(c.horizon for c in configs)
    union = union_result(paths, horizon)
    fed = run_federation(
        [RegionJob(name=c.region, store=p) for c, p in zip(configs, paths)],
        sim_config,
    )
    assert fed.merged.identical_to(union)


def test_shard_cache_token_reused(tmp_path):
    configs, paths = make_regions(tmp_path, cities=2)
    sim_config = SimulationConfig(
        grouping="external", shard_dir=str(tmp_path / "shards")
    )
    jobs = [
        RegionJob(name=c.region, store=p, cache_token=c.cache_token)
        for c, p in zip(configs, paths)
    ]
    first = run_federation(jobs, sim_config)
    second = run_federation(jobs, sim_config)  # same tokens: cache hits
    assert second.merged.identical_to(first.merged)
    cache_dirs = list((tmp_path / "shards").glob("cache-*"))
    assert len(cache_dirs) == 2  # one entry per region, reused not rebuilt


def test_explicit_horizon_and_validation(tmp_path):
    configs, paths = make_regions(tmp_path, cities=2)
    jobs = [
        RegionJob(name=c.region, store=p) for c, p in zip(configs, paths)
    ]
    wider = run_federation(jobs, horizon=3 * configs[0].horizon)
    assert wider.horizon == 3 * configs[0].horizon
    with pytest.raises(ValueError, match="unique"):
        run_federation([jobs[0], jobs[0]])
    with pytest.raises(ValueError):
        run_federation([])
    with pytest.raises(ValueError, match="queue_dir"):
        run_federation(
            [
                RegionJob(
                    name="solo",
                    store=paths[0],
                    queue_dir=str(tmp_path / "q"),
                )
            ],
            SimulationConfig(),  # backend is not "distributed"
        )
    with pytest.raises(ValueError, match="region name"):
        RegionJob(name="bad/name", store=paths[0])


def test_cross_region_ledger_with_shared_catalogue(tmp_path):
    configs, paths = make_regions(tmp_path, prefix="global", cities=2)
    config = SimulationConfig(policy=SwarmPolicy(split_by_isp=False))
    fed = run_federation(
        [RegionJob(name=c.region, store=p) for c, p in zip(configs, paths)],
        config,
    )
    ledger = fed.ledger
    assert ledger.cross_region_swarms > 0
    assert sum(ledger.home_swarms.values()) == ledger.cross_region_swarms
    assert ledger.inter_region_bits > 0
    for (source, home), flow in ledger.flows.items():
        assert source != home
        assert flow.demanded_bits > 0
    summary = ledger.summary()
    assert summary["cross_region_swarms"] == ledger.cross_region_swarms
    assert len(summary["flows"]) == len(ledger.flows)
    # Merged totals still conserve sessions: every session belongs to
    # exactly one region's store.
    assert fed.merged.total.sessions == sum(
        r.total.sessions for r in fed.per_region.values()
    )


def test_declared_home_rule_overrides_default(tmp_path):
    configs, paths = make_regions(tmp_path, prefix="global", cities=2)
    config = SimulationConfig(policy=SwarmPolicy(split_by_isp=False))
    jobs = [
        RegionJob(name=c.region, store=p) for c, p in zip(configs, paths)
    ]
    declared = run_federation(
        jobs, config, home_rule=declared_home_rule({"global": "city1"})
    )
    assert set(declared.ledger.home_swarms) == {"city1"}
    # Declaring a region that contributed nothing must fail loudly.
    with pytest.raises(ValueError, match="not among its contributing"):
        run_federation(
            jobs, config, home_rule=lambda key, contributions: "elsewhere"
        )


def test_default_home_rule_prefers_content_prefix():
    from repro.sim.accounting import ByteLedger
    from repro.sim.policies import SwarmKey
    from repro.sim.results import SwarmResult

    def swarm_result(demanded):
        return SwarmResult(
            key=SwarmKey(content_id="unused"),
            ledger=ByteLedger(demanded_bits=demanded),
            capacity=0.0,
            arrival_rate=0.0,
            mean_duration=0.0,
        )

    key = SwarmKey(content_id="east/c0001.g0")
    contributions = {
        "east": swarm_result(1.0),
        "west": swarm_result(100.0),
    }
    assert default_home_rule(key, contributions) == "east"  # origin wins
    neutral = SwarmKey(content_id="shared/c0001.g0")
    assert default_home_rule(neutral, contributions) == "west"  # demand
    tied = {"east": swarm_result(5.0), "west": swarm_result(5.0)}
    assert default_home_rule(neutral, tied) == "west"  # name breaks ties


def test_ledger_summary_empty():
    ledger = FederationLedger()
    assert ledger.inter_region_bits == 0.0
    assert ledger.summary() == {
        "cross_region_swarms": 0,
        "inter_region_bits": 0.0,
        "home_swarms": {},
        "flows": [],
    }
