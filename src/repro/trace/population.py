"""The viewer population: devices, bitrates, ISPs and activity skew.

Three facts from the paper shape this module:

* the most common iPlayer bitrate is **1.5 Mbps** (Section IV.B.1, citing
  Nencioni et al.), with a device mix spanning mobile phones to big-
  screen TVs -- we model a small set of device classes, each with its own
  bitrate, and swarms are later split by bitrate class exactly as the
  paper splits them;
* viewers are spread over ISPs by market share, and swarms are
  ISP-friendly (peers match within one ISP only);
* "per-user consumption patterns are highly skewed towards a small share
  of very active users" (Section II, citing the authors' earlier iPlayer
  study) -- we give each user a log-normal activity weight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.city import CityNetwork, default_london
from repro.topology.nodes import AttachmentPoint

__all__ = ["DeviceProfile", "DEFAULT_DEVICE_MIX", "User", "Population"]

MBPS = 1_000_000.0


@dataclass(frozen=True)
class DeviceProfile:
    """A device class and the bitrate it streams at.

    Attributes:
        name: device label ("tv", "desktop", "tablet", "mobile").
        bitrate: streaming bitrate in bits/second.
        share: fraction of users on this device class.
    """

    name: str
    bitrate: float
    share: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name must be non-empty")
        if self.bitrate <= 0:
            raise ValueError(f"bitrate must be > 0, got {self.bitrate!r}")
        if not 0 < self.share <= 1:
            raise ValueError(f"share must be in (0, 1], got {self.share!r}")


#: Device/bitrate mix centred on the paper's 1.5 Mbps modal bitrate.
DEFAULT_DEVICE_MIX: Tuple[DeviceProfile, ...] = (
    DeviceProfile("desktop", bitrate=1.5 * MBPS, share=0.45),
    DeviceProfile("tv", bitrate=3.0 * MBPS, share=0.20),
    DeviceProfile("hd-tv", bitrate=5.0 * MBPS, share=0.05),
    DeviceProfile("tablet", bitrate=1.5 * MBPS, share=0.15),
    DeviceProfile("mobile", bitrate=0.8 * MBPS, share=0.15),
)


@dataclass(frozen=True)
class User:
    """One subscriber.

    Attributes:
        user_id: stable id within the population.
        attachment: position in the ISP hierarchy (fixed for the trace:
            home broadband does not move).
        device: the user's dominant device profile.
        activity: relative propensity to start sessions (log-normal
            across users; the skew the paper reports).
    """

    user_id: int
    attachment: AttachmentPoint
    device: DeviceProfile
    activity: float

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ValueError(f"user_id must be >= 0, got {self.user_id}")
        if self.activity <= 0:
            raise ValueError(f"activity must be > 0, got {self.activity!r}")

    @property
    def isp(self) -> str:
        return self.attachment.isp

    @property
    def bitrate(self) -> float:
        return self.device.bitrate


@dataclass(frozen=True)
class Population:
    """The full viewer population with activity-weighted sampling.

    Attributes:
        users: all users, id-ordered.
    """

    users: Tuple[User, ...]

    def __post_init__(self) -> None:
        if not self.users:
            raise ValueError("population must contain at least one user")
        ids = [u.user_id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ValueError("user ids must be unique")

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return iter(self.users)

    def get(self, user_id: int) -> User:
        """Look up a user by id (users are id-ordered at generation)."""
        for user in self.users:
            if user.user_id == user_id:
                return user
        raise KeyError(f"no user {user_id} in population")

    def by_isp(self) -> Dict[str, List[User]]:
        """Users grouped by ISP name."""
        groups: Dict[str, List[User]] = {}
        for user in self.users:
            groups.setdefault(user.isp, []).append(user)
        return groups

    def activity_weights(self) -> List[float]:
        """Per-user sampling weights, aligned with ``users``."""
        return [u.activity for u in self.users]

    @classmethod
    def generate(
        cls,
        num_users: int,
        *,
        city: Optional[CityNetwork] = None,
        device_mix: Sequence[DeviceProfile] = DEFAULT_DEVICE_MIX,
        activity_sigma: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> "Population":
        """Generate a synthetic population.

        Args:
            num_users: population size.
            city: multi-ISP city users attach to (default: the paper's
                5-ISP London).
            device_mix: device classes with shares (summing to ~1).
            activity_sigma: sigma of the log-normal activity skew; 1.0
                makes the top decile of users account for roughly half
                the sessions, matching the "highly skewed" description.
            rng: randomness source (fresh seeded generator when omitted).
        """
        if num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {num_users}")
        if not device_mix:
            raise ValueError("device_mix must be non-empty")
        if activity_sigma < 0:
            raise ValueError(f"activity_sigma must be >= 0, got {activity_sigma!r}")
        rng = rng or random.Random(0)
        city = city or default_london()
        devices = list(device_mix)
        # What choices(weights=...) would accumulate per call: the same
        # draws, built once.
        cum_shares = list(accumulate(d.share for d in devices))
        users = []
        for user_id in range(num_users):
            attachment = city.sample_attachment(rng)
            device = rng.choices(devices, cum_weights=cum_shares)[0]
            activity = rng.lognormvariate(0.0, activity_sigma)
            users.append(
                User(
                    user_id=user_id,
                    attachment=attachment,
                    device=device,
                    activity=activity,
                )
            )
        return cls(users=tuple(users))
