"""Diurnal and weekly viewing-demand profile.

Catch-up TV demand is strongly time-of-day dependent: near-zero overnight,
a daytime plateau, and a pronounced evening peak (iPlayer's published
usage curves peak between 20:00 and 22:00).  Swarm capacities inherit
this shape, which is why the paper's Fig. 4 shows *daily* savings and why
simulated capacities fluctuate around the Little's-law mean.

:class:`DiurnalProfile` maps a time offset (seconds from the trace epoch)
to a relative arrival intensity and supports inverse-CDF sampling of
arrival times over a horizon, which is how the generator spreads each
item's sessions over the month (``_sample_times`` is that sampler's
python reference; the compiled extension replays it bit for bit).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["DiurnalProfile", "UK_TV_PROFILE", "FLAT_PROFILE"]

SECONDS_PER_HOUR = 3_600.0
HOURS_PER_DAY = 24
SECONDS_PER_DAY = SECONDS_PER_HOUR * HOURS_PER_DAY

#: Relative hourly demand for UK catch-up TV (midnight-indexed): quiet
#: small hours, daytime plateau, strong 20:00-22:00 peak.
_UK_TV_HOURLY: Tuple[float, ...] = (
    0.35, 0.18, 0.10, 0.06, 0.05, 0.06,  # 00-05
    0.12, 0.25, 0.42, 0.55, 0.62, 0.70,  # 06-11
    0.80, 0.78, 0.72, 0.70, 0.78, 0.95,  # 12-17
    1.30, 1.70, 2.20, 2.40, 1.90, 0.90,  # 18-23
)


@dataclass(frozen=True)
class DiurnalProfile:
    """Hour-of-day demand weights with a weekend multiplier.

    Attributes:
        hourly: 24 nonnegative weights, midnight first.  Scale is
            irrelevant -- only the shape matters.
        weekend_multiplier: factor applied to every hour on days 5 and 6
            of each week (the trace epoch starts a Monday).
    """

    hourly: Tuple[float, ...]
    weekend_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if len(self.hourly) != HOURS_PER_DAY:
            raise ValueError(
                f"need {HOURS_PER_DAY} hourly weights, got {len(self.hourly)}"
            )
        if any(w < 0 for w in self.hourly):
            raise ValueError("hourly weights must be >= 0")
        if sum(self.hourly) <= 0:
            raise ValueError("at least one hourly weight must be positive")
        if self.weekend_multiplier <= 0:
            raise ValueError(
                f"weekend_multiplier must be > 0, got {self.weekend_multiplier!r}"
            )

    def is_weekend(self, t: float) -> bool:
        """True when ``t`` falls on day 5 or 6 of a week (epoch = Monday)."""
        day = int(t // SECONDS_PER_DAY)
        return day % 7 >= 5

    def intensity(self, t: float) -> float:
        """Relative arrival intensity at time ``t`` (seconds from epoch)."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t!r}")
        hour = int((t % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
        weight = self.hourly[hour]
        if self.is_weekend(t):
            weight *= self.weekend_multiplier
        return weight

    def hourly_cumulative(self, horizon: float) -> List[float]:
        """Cumulative intensity at each whole hour up to ``horizon``.

        Entry ``k`` is the integral of the (piecewise-constant) intensity
        over the first ``k`` hours; used for inverse-CDF sampling.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon!r}")
        num_hours = int(-(-horizon // SECONDS_PER_HOUR))
        weights = (self.intensity(h * SECONDS_PER_HOUR) for h in range(num_hours))
        return [0.0, *itertools.accumulate(weights)]

    def sample_times(
        self, count: int, horizon: float, rng: random.Random
    ) -> List[float]:
        """Draw ``count`` arrival times over [0, horizon), profile-shaped.

        Inverse-CDF over the piecewise-constant hourly intensity: pick a
        point uniform in total mass, find its hour by bisection, place it
        uniformly within the hour.  Returned times are unsorted.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return _sample_times(self.hourly_cumulative(horizon), count, horizon, rng)


def _sample_times(
    cumulative: List[float], count: int, horizon: float, rng: random.Random
) -> List[float]:
    """:meth:`DiurnalProfile.sample_times` over a prebuilt
    :meth:`~DiurnalProfile.hourly_cumulative` table, which the trace
    generator builds once per trace instead of once per item."""
    total = cumulative[-1]
    times = []
    for _ in range(count):
        point = rng.random() * total
        hour = bisect.bisect_right(cumulative, point) - 1
        hour = min(hour, len(cumulative) - 2)
        mass = cumulative[hour + 1] - cumulative[hour]
        frac = (point - cumulative[hour]) / mass if mass > 0 else rng.random()
        t = (hour + frac) * SECONDS_PER_HOUR
        times.append(min(t, horizon - 1e-6))
    return times


#: UK catch-up TV shape: evening peak, modest weekend daytime boost.
UK_TV_PROFILE = DiurnalProfile(hourly=_UK_TV_HOURLY, weekend_multiplier=1.15)

#: Uniform arrivals -- the M/M/inf model's stationarity assumption; used
#: in tests and for isolating diurnal effects in ablations.
FLAT_PROFILE = DiurnalProfile(hourly=tuple([1.0] * HOURS_PER_DAY))
