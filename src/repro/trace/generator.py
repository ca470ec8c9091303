"""Synthetic trace generator: the stand-in for the proprietary iPlayer trace.

The paper drives its simulator from a month of BBC iPlayer session
records (start time, duration, bitrate per session) for London users.
That trace is not public, so this module generates traces with the same
*statistical structure*, every aspect of which is an explicit,
documented parameter:

* Zipf catalogue popularity (Fig. 3's heavy tail),
* per-item Poisson arrivals shaped by a TV diurnal/weekly profile,
* session durations = programme length x a Beta-distributed completion,
* a device/bitrate mix centred on the paper's modal 1.5 Mbps,
* ISP market shares and uniform exchange-point attachment,
* log-normally skewed per-user activity.

Scale is set by ``num_users`` / ``expected_sessions`` -- defaults are
roughly 1:100 of the paper's London month (Table I), which keeps every
experiment laptop-sized while exercising identical code paths.  All
randomness flows from a single seed: traces are fully reproducible.

The population is drawn as columns (:func:`repro.trace.population.
_population_columns`, which checks its inputs as
:meth:`~repro.trace.population.Population.generate` does): each viewer
is a position, with a code into the city's table of interned attachment
points, a device code and an activity, and the session loop reads those
columns -- no ``User`` is built.  When the optional compiled extension
``repro.sim._ckernel`` is loaded, the generator runs in C end to end:
``replay_population`` makes the population's draws, ``replay_item``
each item's draws after its Poisson count (start times, viewers,
completions) into arrays it never resizes, and a ``session_maker``
iterator allocates each kept :class:`Session` and fills its slots,
sharing the tables' attachment, bitrate and device objects.
Both replays pull every uniform from the generator's own
``random.Random`` and repeat the python semantics references
(:func:`_population_columns`, :func:`_item_columns`, and
``Session(...)`` with its checks) float operation for float operation,
so both paths yield the same sessions bit for bit.
``repro.sim.kernel_columns`` alone decides whether the extension is
loaded (``REPRO_NO_CKERNEL=1`` hides it); the generator reads that
decision when it runs, so importing this module imports no simulation
code.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.topology.city import CityNetwork, default_london
from repro.trace.catalogue import Catalogue
from repro.trace.diurnal import DiurnalProfile, UK_TV_PROFILE, _sample_times
from repro.trace.events import SECONDS_PER_DAY, Session, Trace
from repro.trace.population import (
    DEFAULT_DEVICE_MIX,
    DeviceProfile,
    Population,
    _draw_population,
)

__all__ = ["GeneratorConfig", "TraceGenerator", "generate_trace", "sample_poisson"]


@dataclass(frozen=True)
class GeneratorConfig:
    """All knobs of the synthetic trace.

    Attributes:
        num_users: population size (paper: 3.3M London users; default is
            a 1:100-ish scale).
        num_items: catalogue size.
        days: trace length in days (paper: one month).
        expected_sessions: expected total session count over the horizon
            (paper: 23.5M for London in Sep 2013).
        zipf_exponent: catalogue popularity skew.
        pinned_views: explicit expected view counts for named items --
            used to plant the Fig. 2 popularity-tier exemplars.
        completion_alpha: alpha of the Beta completion distribution.
        completion_beta: beta of the Beta completion distribution (the
            default Beta(6, 2) has mean 0.75: most viewers watch most of
            a programme).
        min_session_seconds: sessions shorter than this are clamped up
            (trackers rarely log sub-minute sessions).
        activity_sigma: log-normal sigma of the per-user activity skew.
        seed: master seed; every derived stream is deterministic in it.
    """

    num_users: int = 30_000
    num_items: int = 1_500
    days: int = 30
    expected_sessions: float = 200_000.0
    zipf_exponent: float = 0.9
    pinned_views: Mapping[str, float] = field(default_factory=dict)
    completion_alpha: float = 6.0
    completion_beta: float = 2.0
    min_session_seconds: float = 60.0
    activity_sigma: float = 1.0
    seed: int = 20180701

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {self.num_items}")
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if self.expected_sessions < 0:
            raise ValueError(
                f"expected_sessions must be >= 0, got {self.expected_sessions}"
            )
        if self.completion_alpha <= 0 or self.completion_beta <= 0:
            raise ValueError("completion Beta parameters must be > 0")
        if self.min_session_seconds <= 0:
            raise ValueError(
                f"min_session_seconds must be > 0, got {self.min_session_seconds}"
            )

    @property
    def horizon(self) -> float:
        """Trace length in seconds."""
        return self.days * SECONDS_PER_DAY

    def scaled(self, factor: float) -> "GeneratorConfig":
        """A copy with users/sessions scaled by ``factor`` (for quick runs)."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return replace(
            self,
            num_users=max(1, int(self.num_users * factor)),
            expected_sessions=self.expected_sessions * factor,
            pinned_views={k: v * factor for k, v in self.pinned_views.items()},
        )


def sample_poisson(rng: random.Random, lam: float) -> int:
    """Draw from Poisson(lam) using only the stdlib ``random.Random``.

    Knuth's product method below ``lam = 30``; a rounded normal
    approximation (with continuity correction, clamped at 0) above --
    exact tails are irrelevant at that size and the approximation keeps
    generation O(1) for popular items.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam!r}")
    if lam == 0:
        return 0
    if lam < 30.0:
        threshold = math.exp(-lam)
        count, product = 0, rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count
    value = rng.gauss(lam, math.sqrt(lam))
    return max(0, int(round(value)))


@dataclass(frozen=True)
class TraceGenerator:
    """Generates reproducible synthetic traces from a config.

    Attributes:
        config: the trace parameters.
        city: the multi-ISP city viewers attach to (default: the paper's
            five-ISP London).
        device_mix: device/bitrate classes.
        profile: diurnal arrival-intensity profile.
    """

    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    city: CityNetwork = field(default_factory=default_london)
    device_mix: Tuple[DeviceProfile, ...] = DEFAULT_DEVICE_MIX
    profile: DiurnalProfile = UK_TV_PROFILE

    def build_catalogue(self) -> Catalogue:
        """The item catalogue implied by the config (deterministic)."""
        return Catalogue.generate(
            self.config.num_items,
            self.config.expected_sessions,
            zipf_exponent=self.config.zipf_exponent,
            pinned_views=self.config.pinned_views,
            rng=random.Random(self._derived_seed("catalogue")),
        )

    def build_population(self) -> Population:
        """The viewer population implied by the config (deterministic)."""
        return Population.generate(
            self.config.num_users,
            city=self.city,
            device_mix=self.device_mix,
            activity_sigma=self.config.activity_sigma,
            rng=random.Random(self._derived_seed("population")),
        )

    def generate(self) -> Trace:
        """Generate the full trace (materialized and start-time-sorted).

        Per item: a Poisson view count, diurnal-shaped start times,
        activity-weighted viewers, Beta-completion durations, the
        viewer's device bitrate.
        """
        return Trace.from_sessions(self.iter_sessions(), horizon=self.config.horizon)

    def iter_sessions(self) -> Iterator[Session]:
        """Yield the trace's sessions lazily, one at a time.

        The streaming twin of :meth:`generate`: identical sessions (the
        same RNG streams are consumed in the same order), yielded one at
        a time instead of collected and sorted into a
        :class:`~repro.trace.events.Trace` tuple.  Feeding this into
        ``Simulator.run_stream`` skips that intermediate materialized
        copy -- the simulator still retains the sessions grouped into
        swarm shards, so peak memory remains O(sessions), just with one
        full-trace tuple less; a consumer that filters or windows the
        stream keeps only what it selects.  Sessions arrive in
        generation order (grouped by content item), *not* sorted by
        start time; the simulator's canonical sharding makes the result
        independent of that ordering.  The population is drawn as
        columns and no ``User`` is built; with the compiled extension
        loaded, the population's draws, each item's draws after its
        Poisson count and the sessions themselves are made in C, with
        the same result (see the module docstring).
        """
        config = self.config
        catalogue = self.build_catalogue()
        devices = tuple(self.device_mix)
        attachments, codes, device_codes, activity = _draw_population(
            config.num_users,
            self.city,
            devices,
            config.activity_sigma,
            random.Random(self._derived_seed("population")),
        )
        bitrates = tuple(d.bitrate for d in devices)
        names = tuple(d.name for d in devices)
        rng = random.Random(self._derived_seed("sessions"))
        horizon = config.horizon
        # Loop invariants, built once per trace.  A float minimum keeps
        # clamped durations floats.
        hourly = self.profile.hourly_cumulative(horizon)
        shape = (
            config.completion_alpha,
            config.completion_beta,
            float(config.min_session_seconds),
        )
        ckernel = _compiled()
        maker = None
        if ckernel is not None:
            maker = ckernel.session_maker(
                Session, attachments, codes, bitrates, names, device_codes
            )
        if maker is None:
            # A list: choices bisects it without a float per probe.
            cum_weights = list(accumulate(activity))
            draw = partial(_item_columns, rng, hourly, horizon, cum_weights, *shape)
        else:
            cum_weights = array("d", accumulate(activity))
            draw = partial(
                ckernel.replay_item,
                rng.random,
                array("d", hourly),
                horizon,
                cum_weights,
                *shape,
            )
        del activity

        session_id = 0
        for item in catalogue:
            count = sample_poisson(rng, item.expected_views)
            if count == 0:
                continue
            content_id = item.content_id
            if maker is not None:
                kept, *columns = draw(count, item.duration)
                yield from maker(session_id, content_id, kept, *columns)
                session_id += kept
                continue
            for start, duration, viewer in zip(*draw(count, item.duration)):
                device = device_codes[viewer]
                yield Session(
                    session_id,
                    viewer,
                    content_id,
                    start,
                    duration,
                    bitrates[device],
                    attachments[codes[viewer]],
                    names[device],
                )
                session_id += 1

    def _derived_seed(self, stream: str) -> int:
        """Independent, stable seed per generation stream.

        Uses crc32 rather than ``hash()`` -- string hashing is salted per
        process and would break cross-process reproducibility.
        """
        mixed = zlib.crc32(stream.encode("utf-8")) ^ (self.config.seed * 0x9E3779B1)
        return mixed & 0x7FFFFFFF


def generate_trace(
    config: Optional[GeneratorConfig] = None,
    *,
    city: Optional[CityNetwork] = None,
    profile: Optional[DiurnalProfile] = None,
) -> Trace:
    """One-call trace generation with defaults (see :class:`GeneratorConfig`)."""
    generator = TraceGenerator(
        config=config or GeneratorConfig(),
        city=city or default_london(),
        profile=profile or UK_TV_PROFILE,
    )
    return generator.generate()


def _compiled():
    """The compiled extension ``_ckernel`` when it is loaded, else None.

    Reads :mod:`repro.sim.kernel_columns`' one decision (which applies
    ``REPRO_NO_CKERNEL``) at call time, so tests that mask it there
    reach the python loop too.
    """
    from repro.sim import kernel_columns

    return kernel_columns._ckernel


def _item_columns(
    rng: random.Random,
    hourly: Sequence[float],
    horizon: float,
    cum_weights: Sequence[float],
    alpha: float,
    beta: float,
    min_s: float,
    count: int,
    item_duration: float,
) -> Tuple[List[float], List[float], List[int]]:
    """One item's sessions after its Poisson count, as columns.

    Draws ``count`` profile-shaped start times, then ``count``
    activity-weighted viewer indices, then one Beta(``alpha``,
    ``beta``) completion per drawn session in draw order -- dropped
    sessions included, since their draws still advance ``rng``.  Each
    duration is the completed share of ``item_duration``, at least
    ``min_s``, cut at the horizon; a session cut below ``min_s`` is
    dropped.  Returns the kept ``(starts, durations, viewers)``.

    This is the semantics reference ``_ckernel.replay_item`` replays
    bit for bit (it takes ``rng.random`` in place of ``rng``, and
    returns the kept count with ``count``-long columns whose first
    entries are these).
    """
    times = _sample_times(hourly, count, horizon, rng)
    viewers = rng.choices(range(len(cum_weights)), cum_weights=cum_weights, k=count)
    starts, durations, kept = [], [], []
    for start, viewer in zip(times, viewers):
        duration = max(item_duration * rng.betavariate(alpha, beta), min_s)
        duration = min(duration, horizon - start)
        if duration < min_s:
            continue
        starts.append(start)
        durations.append(duration)
        kept.append(viewer)
    return starts, durations, kept
