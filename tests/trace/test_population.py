"""Tests for the viewer population."""

import hashlib
import random
from collections import Counter

import pytest

from repro.topology.city import default_london
from repro.trace.population import (
    DEFAULT_DEVICE_MIX,
    DeviceProfile,
    Population,
    User,
)


class TestDeviceProfile:
    def test_default_mix_shares_sum_to_one(self):
        assert sum(d.share for d in DEFAULT_DEVICE_MIX) == pytest.approx(1.0)

    def test_modal_bitrate_is_1_5_mbps(self):
        """The paper's modal iPlayer bitrate is 1.5 Mbps."""
        by_bitrate = Counter()
        for device in DEFAULT_DEVICE_MIX:
            by_bitrate[device.bitrate] += device.share
        assert max(by_bitrate, key=by_bitrate.get) == pytest.approx(1.5e6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "bitrate": 1e6, "share": 0.5},
            {"name": "x", "bitrate": 0.0, "share": 0.5},
            {"name": "x", "bitrate": 1e6, "share": 0.0},
            {"name": "x", "bitrate": 1e6, "share": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DeviceProfile(**kwargs)


class TestPopulationGeneration:
    def test_size(self):
        pop = Population.generate(500, rng=random.Random(1))
        assert len(pop) == 500

    def test_user_ids_sequential_unique(self):
        pop = Population.generate(100, rng=random.Random(1))
        assert [u.user_id for u in pop] == list(range(100))

    def test_deterministic(self):
        a = Population.generate(50, rng=random.Random(3))
        b = Population.generate(50, rng=random.Random(3))
        assert a == b

    def test_isp_shares_respected(self):
        city = default_london()
        pop = Population.generate(10_000, city=city, rng=random.Random(2))
        counts = Counter(u.isp for u in pop)
        norm = city.normalised_shares()
        for isp, share in norm.items():
            assert counts[isp] / len(pop) == pytest.approx(share, rel=0.15)

    def test_device_mix_respected(self):
        pop = Population.generate(10_000, rng=random.Random(4))
        counts = Counter(u.device.name for u in pop)
        for device in DEFAULT_DEVICE_MIX:
            assert counts[device.name] / len(pop) == pytest.approx(device.share, rel=0.2)

    def test_activity_skew(self):
        """Log-normal activity: the top decile holds a large share."""
        pop = Population.generate(5_000, activity_sigma=1.0, rng=random.Random(5))
        weights = sorted(pop.activity_weights(), reverse=True)
        top_share = sum(weights[: len(weights) // 10]) / sum(weights)
        assert top_share > 0.3

    def test_zero_sigma_uniform_activity(self):
        pop = Population.generate(100, activity_sigma=0.0, rng=random.Random(6))
        assert all(u.activity == pytest.approx(1.0) for u in pop)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Population.generate(0)
        with pytest.raises(ValueError):
            Population.generate(10, device_mix=())
        with pytest.raises(ValueError):
            Population.generate(10, activity_sigma=-1.0)


def population_digest(population):
    """Hash of every user's id, attachment, device and exact activity."""
    hasher = hashlib.sha256()
    for user in population:
        a = user.attachment
        hasher.update(
            f"{user.user_id},{a.isp},{a.pop},{a.exchange},"
            f"{user.device.name},{user.activity!r};".encode()
        )
    return hasher.hexdigest()


class TestPopulationDigest:
    """Seeded populations pinned to the bit.

    Every trace's viewers come from ``Population.generate``; reworking
    its loop (hoisting cumulative weights and tree constants out of the
    per-user draw) must leave every draw of the stream unchanged.
    """

    def test_default_london(self):
        pop = Population.generate(3_000, rng=random.Random(20130901))
        assert population_digest(pop) == (
            "6be29365f606ada2b95fb4019add2a6b64dec12645441c2d23f1669bd43e6934"
        )

    def test_uneven_city(self):
        city = default_london(3, (0.5, 0.3, 0.2), num_exchanges=40, num_pops=7)
        pop = Population.generate(
            1_000, city=city, activity_sigma=0.5, rng=random.Random(7)
        )
        assert population_digest(pop) == (
            "0d610ca02e3681cc018626fd91533c18f3d1e6879cecdd7308947075b137e627"
        )


class TestPopulationAccess:
    def test_get(self):
        pop = Population.generate(20, rng=random.Random(1))
        assert pop.get(7).user_id == 7

    def test_get_missing(self):
        pop = Population.generate(20, rng=random.Random(1))
        with pytest.raises(KeyError):
            pop.get(999)

    def test_by_isp_partitions(self):
        pop = Population.generate(200, rng=random.Random(1))
        groups = pop.by_isp()
        assert sum(len(g) for g in groups.values()) == len(pop)
        for isp, users in groups.items():
            assert all(u.isp == isp for u in users)

    def test_user_validation(self):
        attachment = default_london().isps[0].attachment(0)
        device = DEFAULT_DEVICE_MIX[0]
        with pytest.raises(ValueError):
            User(user_id=-1, attachment=attachment, device=device, activity=1.0)
        with pytest.raises(ValueError):
            User(user_id=0, attachment=attachment, device=device, activity=0.0)

    def test_duplicate_ids_rejected(self):
        attachment = default_london().isps[0].attachment(0)
        device = DEFAULT_DEVICE_MIX[0]
        user = User(user_id=0, attachment=attachment, device=device, activity=1.0)
        with pytest.raises(ValueError):
            Population(users=(user, user))
