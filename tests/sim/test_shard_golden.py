"""Golden snapshot of external grouping's on-disk product.

External grouping's contract is stronger than "same tasks": the sorted
shard file and its manifest are content-addressed cache entries that
other processes (and older or newer code at the same
``STORE_VERSION``) reuse, so their *bytes* are part of the interface.
These tests pin the sha256 of ``shard.store`` and of the manifest's
``(key, index, count)`` list for one fixed seeded trace under three
policies, each built once with a sort buffer that forces several
spilled runs and once with one that never spills.  Both builds must
produce the same pinned bytes: how the sort was staged can never leak
into what it wrote.

If a deliberate format change moves these digests, ``STORE_VERSION``
must move with it (so stale cache entries are invalidated) and the
digests are re-recorded from the new code.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.sim.grouping import ExternalGrouping
from repro.sim.policies import PAPER_POLICY, EpochPolicy, SwarmPolicy
from repro.trace.generator import GeneratorConfig, TraceGenerator

POLICIES = {
    "paper": PAPER_POLICY,
    "cross-isp": SwarmPolicy(split_by_isp=False),
    "epoch-6h": EpochPolicy(PAPER_POLICY, 6 * 3600.0),
}

#: (shard.store sha256, manifest (key, index, count) list sha256).
GOLDEN = {
    "cross-isp": (
        "ddd2440dd993ce9550e6a34d0356dd797fb3e2a164e949fb63cbad801dde38d8",
        "72dd1b9425227e34641f71a2125a4dda55af2f011ca110067f64387141d76a97",
    ),
    "epoch-6h": (
        "5759fd3c0db2681e438362e4ec4d0a8a549d7b48869d63902c93029f33abad51",
        "1231682198ebfba31bfc0e45881a501415b3b0c34edc8ac0218bc99b29563aa6",
    ),
    "paper": (
        "00dee8a545c242d9160db2b1a908cbad200838bea38e21cad2d2460f87e38dee",
        "c1189cf444a7c8bdf3e5d75e231e70eb32a0a2b71b68c0f0a5573b0576ea8d7e",
    ),
}

#: Sort buffers: 500 spills three runs of the 1,943-session trace, a
#: million never spills.
BUFFERS = {"spilling": 500, "in-memory": 10**6}


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=250, num_items=20, days=2, expected_sessions=2_000, seed=23
    )
    return TraceGenerator(config=config).generate()


def manifest_digest(manifest) -> str:
    rows = [
        [
            extent.key.epoch,
            extent.key.content_id,
            extent.key.isp,
            extent.key.bitrate_class,
            extent.index,
            extent.count,
        ]
        for extent in manifest.extents
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("buffer", sorted(BUFFERS))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_shard_and_manifest_bytes_are_pinned(trace, tmp_path, policy_name, buffer):
    grouping = ExternalGrouping(shard_dir=tmp_path, run_sessions=BUFFERS[buffer])
    plan = grouping.plan(iter(trace.sessions), trace.horizon, POLICIES[policy_name])
    try:
        stats = plan.stats()
        if buffer == "spilling":
            assert stats.runs_spilled >= 3
        else:
            assert stats.runs_spilled == 0
        shard = hashlib.sha256(Path(plan.manifest.path).read_bytes()).hexdigest()
        assert (shard, manifest_digest(plan.manifest)) == GOLDEN[policy_name]
    finally:
        plan.cleanup()
