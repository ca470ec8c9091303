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

The draws are defined once, in :func:`_population_columns`: per user,
an ISP by market share, an exchange uniformly under it, a device by
share and a log-normal activity.  It returns the population as columns
-- each user's code into one table of the city's interned attachment
points, a device code and the activity -- with the user id as the
position.  :func:`_draw_population` replays those draws in C
(``repro.sim._ckernel.replay_population``) when the compiled extension
is loaded, with the same columns, errors and generator state after.
:meth:`Population.generate` builds its :class:`User` objects from the
columns; the trace generator reads them directly and never builds a
``User`` (see :mod:`repro.trace.generator`).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
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

        Raises:
            ValueError: as :func:`_population_columns` does (for bad
                arguments, or an activity that underflows to 0).
        """
        rng = rng or random.Random(0)
        devices = tuple(device_mix)
        attachments, codes, device_codes, activity = _draw_population(
            num_users, city or default_london(), devices, activity_sigma, rng
        )
        users = map(
            User,
            range(num_users),
            map(attachments.__getitem__, codes),
            map(devices.__getitem__, device_codes),
            activity,
        )
        return cls(users=tuple(users))


def _attachment_table(
    city: CityNetwork,
) -> Tuple[Tuple[AttachmentPoint, ...], Tuple[int, ...]]:
    """Every attachment point of ``city``, ISP by ISP, exchange by exchange.

    Returns the interned points and, per ISP, the table position of its
    exchange 0: a user behind exchange ``e`` of ISP ``i`` has code
    ``offsets[i] + e``.
    """
    table: List[AttachmentPoint] = []
    offsets = []
    for isp in city.isps:
        offsets.append(len(table))
        table.extend(map(isp.attachment, range(isp.num_exchanges)))
    return tuple(table), tuple(offsets)


def _population_tables(
    num_users: int,
    city: CityNetwork,
    devices: Sequence[DeviceProfile],
    activity_sigma: float,
) -> tuple:
    """Check the population's inputs and build what every user's draws
    read.

    Raises ``ValueError`` for fewer than one user, no devices or a
    negative ``activity_sigma``.  Returns the city's
    :func:`_attachment_table` (points, each ISP's first code), each
    ISP's exchange count, the cumulative ISP shares and the cumulative
    device shares.
    """
    if num_users < 1:
        raise ValueError(f"num_users must be >= 1, got {num_users}")
    if not devices:
        raise ValueError("device_mix must be non-empty")
    if activity_sigma < 0:
        raise ValueError(f"activity_sigma must be >= 0, got {activity_sigma!r}")
    attachments, offsets = _attachment_table(city)
    sizes = tuple(isp.num_exchanges for isp in city.isps)
    # What choices(weights=...) would accumulate per call: the same
    # draws, built once.
    cum_shares = list(accumulate(d.share for d in devices))
    return attachments, offsets, sizes, city._cumulative_shares, cum_shares


def _population_columns(
    num_users: int,
    city: CityNetwork,
    devices: Sequence[DeviceProfile],
    activity_sigma: float,
    rng: random.Random,
) -> Tuple[Tuple[AttachmentPoint, ...], array, array, array]:
    """The population's draws, as columns indexed by user id.

    Per user, in this order: an ISP by market share (what
    :meth:`CityNetwork.sample_isp` draws), an exchange by ``randrange``
    under it (:meth:`ISPNetwork.sample_attachment`), a device by
    ``choices`` over the cumulative shares, and a log-normal activity.
    Returns the city's :func:`_attachment_table`, each user's code into
    it (``array('I')``), each user's index into ``devices``
    (``array('I')``) and the activities (``array('d')``).

    Raises ``ValueError`` as :func:`_population_tables` does, before
    any draw, and for an activity that is not > 0 (an ``exp`` that
    underflows) at that user's draw, with :class:`User`'s message.

    This is the semantics reference of the population: the compiled
    replay in ``_ckernel`` repeats it draw for draw (see
    :func:`_draw_population`).
    """
    attachments, offsets, sizes, cumulative, cum_shares = _population_tables(
        num_users, city, devices, activity_sigma
    )
    total = cumulative[-1]
    device_index = range(len(devices))
    uniform, randrange = rng.random, rng.randrange
    choices, lognormvariate = rng.choices, rng.lognormvariate
    codes, device_codes, activity = array("I"), array("I"), array("d")
    for _ in range(num_users):
        isp = bisect_right(cumulative, uniform() * total)
        codes.append(offsets[isp] + randrange(sizes[isp]))
        device_codes.append(choices(device_index, cum_weights=cum_shares)[0])
        weight = lognormvariate(0.0, activity_sigma)
        if weight <= 0:
            raise ValueError(f"activity must be > 0, got {weight!r}")
        activity.append(weight)
    return attachments, codes, device_codes, activity


def _draw_population(
    num_users: int,
    city: CityNetwork,
    devices: Sequence[DeviceProfile],
    activity_sigma: float,
    rng: random.Random,
) -> Tuple[Tuple[AttachmentPoint, ...], array, array, array]:
    """The population's columns, as :func:`_population_columns` draws them.

    Drawn in C by ``_ckernel.replay_population`` when the compiled
    extension is loaded, ``rng`` is an exact ``random.Random`` and the
    city's shares are floats; otherwise by the python reference.  Both
    check the same inputs, make the same draws, raise the same errors,
    leave ``rng`` in the same state and return the same columns.
    """
    # Read when called, so REPRO_NO_CKERNEL (which kernel_columns
    # applies) holds and importing this module loads no simulation code.
    from repro.sim import kernel_columns

    ckernel = kernel_columns._ckernel
    if (
        ckernel is None
        or type(rng) is not random.Random
        or not all(type(c) is float for c in city._cumulative_shares)
    ):
        return _population_columns(num_users, city, devices, activity_sigma, rng)
    attachments, offsets, sizes, cumulative, cum_shares = _population_tables(
        num_users, city, devices, activity_sigma
    )
    columns = ckernel.replay_population(
        rng.random,
        rng.getrandbits,
        array("d", cumulative),
        array("q", offsets),
        array("q", sizes),
        array("d", cum_shares),
        activity_sigma,
        num_users,
    )
    return (attachments, *columns)
