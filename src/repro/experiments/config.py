"""Shared settings and cached artefacts for the experiment drivers.

Two traces drive everything (``runner.EXPERIMENTS`` lists the drivers):

* the **city trace** -- a month of the full synthetic catalogue over
  five ISPs; powers Table I and Figs. 3, 4, 6;
* the **exemplar trace** -- three pinned items at the paper's 100:10:1
  popularity ratios with a uniform 1.5 Mbps bitrate; powers Fig. 2.

``scale`` shrinks both proportionally (``quick()`` is what the test
suite and fast benchmark runs use).  Traces and simulation results are
memoised per settings value, so e.g. Figs. 3, 4 and 6 share one
simulation run exactly like they share one trace in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.backends import BACKEND_NAMES
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.grouping import GROUPING_MODES
from repro.sim.reduce import REDUCTION_MODES
from repro.sim.results import SimulationResult
from repro.trace.events import SECONDS_PER_DAY, Trace

if TYPE_CHECKING:  # deferred: sim.service imports are runtime-local
    from repro.sim.service import ServiceConfig
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.population import DeviceProfile

__all__ = [
    "ExperimentSettings",
    "city_trace",
    "exemplar_trace",
    "paper_simulation",
    "sweep_configs",
    "memo_key",
]

#: Fig. 2 exemplar ids and their expected monthly views at scale = 1.
#: The 100:10:1 ratio mirrors the paper's ~100K / ~10K / ~1K items
#: ("Bad Education" / "Question Time" / "What's to Eat").
TIER_VIEWS: Mapping[str, float] = {
    "tier-popular": 120_000.0,
    "tier-medium": 12_000.0,
    "tier-unpopular": 1_200.0,
}

#: Fig. 2 uses a single-bitrate mix: the theory curve assumes a uniform
#: beta, and the cost of mixing bitrates is measured separately by the
#: bitrate ablation benchmark.
UNIFORM_DEVICE_MIX: Tuple[DeviceProfile, ...] = (
    DeviceProfile("desktop", bitrate=1.5e6, share=1.0),
)

#: City-trace device mix: three bitrate classes around the paper's modal
#: 1.5 Mbps.  Fewer classes than the library default keeps sub-swarm
#: fragmentation comparable to the paper's "split based on average
#: bitrates" at our reduced population scale.
CITY_DEVICE_MIX: Tuple[DeviceProfile, ...] = (
    DeviceProfile("desktop", bitrate=1.5e6, share=0.70),
    DeviceProfile("tv", bitrate=3.0e6, share=0.20),
    DeviceProfile("mobile", bitrate=0.8e6, share=0.10),
)


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment driver.

    Attributes:
        scale: multiplies users and session counts; 1.0 is the headline
            configuration (a ~1:20 scale model of the paper's London
            month -- chosen so the *head* of the catalogue reaches the
            paper's per-item capacities: swarm capacity is an absolute
            quantity and cannot be preserved under uniform downscaling),
            smaller values give proportionally faster runs.
        days: trace length in days.
        seed: master seed for both traces.
        upload_ratio: the ``q / beta`` used outside Fig. 2's sweep.
        num_users: city population at scale 1.
        num_items: catalogue size at scale 1 (smaller than iPlayer's but
            with identical Zipf structure; per-item capacities matter,
            not the tail count).
        expected_sessions: expected city-trace sessions at scale 1; with
            600 Zipf(0.9) items the top item draws ~120K monthly views,
            i.e. capacity ~90, matching the paper's popular exemplar.
        workers: worker count for the simulation backend (``None`` or 1
            = serial; > 1 shards swarms over a process pool).  Results
            are bit-for-bit identical at any worker count, so this is a
            pure wall-clock knob.
        backend: execution backend name (see
            :data:`repro.sim.backends.BACKEND_NAMES`); ``None``
            auto-selects from ``workers``.  "distributed" runs swarm
            shards through the file-based work queue
            (:mod:`repro.sim.queue`), so experiments can fan out to
            workers on other hosts.  Bit-for-bit identical either way.
        queue_dir: shared work-queue directory for
            ``backend="distributed"`` (``None``: a run-scoped private
            queue with locally spawned workers).  Only meaningful with
            the distributed backend.
        reduction: shard-output reduction mode ("streaming" or
            "spill", see :data:`repro.sim.reduce.REDUCTION_MODES`);
            ``None`` uses the simulator default.  Results
            are bit-for-bit identical across modes, so like ``workers``
            this is a pure resource knob (coordinator memory).
        grouping: session-grouping mode ("memory" or "external", see
            :data:`repro.sim.grouping.GROUPING_MODES`); ``None`` uses
            the simulator default ("memory").  Bit-for-bit identical
            either way -- "external" bounds coordinator memory during
            grouping for month-of-London-scale traces.
        shard_dir: where external grouping keeps its sorted shard file
            (``None``: a run-scoped temporary directory).  Only
            meaningful with ``grouping="external"``.
    """

    scale: float = 1.0
    days: int = 30
    seed: int = 20130901
    upload_ratio: float = 1.0
    num_users: int = 60_000
    num_items: int = 600
    expected_sessions: float = 1_200_000.0
    workers: Optional[int] = None
    backend: Optional[str] = None
    queue_dir: Optional[str] = None
    reduction: Optional[str] = None
    grouping: Optional[str] = None
    shard_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale!r}")
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, got {self.backend!r}"
            )
        if self.queue_dir is not None and self.backend != "distributed":
            raise ValueError(
                "queue_dir is only valid with backend='distributed', "
                f"got backend={self.backend!r}"
            )
        if self.reduction is not None and self.reduction not in REDUCTION_MODES:
            raise ValueError(
                f"reduction must be one of {REDUCTION_MODES}, got {self.reduction!r}"
            )
        if self.grouping is not None and self.grouping not in GROUPING_MODES:
            raise ValueError(
                f"grouping must be one of {GROUPING_MODES}, got {self.grouping!r}"
            )
        if self.shard_dir is not None and self.grouping != "external":
            raise ValueError(
                "shard_dir is only valid with grouping='external', "
                f"got grouping={self.grouping!r}"
            )

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """A fast configuration for tests and smoke benchmarks."""
        return cls(scale=0.05, days=7)

    # ------------------------------------------------------------------
    # Derived generator configs
    # ------------------------------------------------------------------

    def city_config(self) -> GeneratorConfig:
        """Generator config of the full-catalogue city trace."""
        return GeneratorConfig(
            num_users=max(100, int(self.num_users * self.scale)),
            num_items=max(20, int(self.num_items * min(1.0, self.scale * 4))),
            days=self.days,
            expected_sessions=self.expected_sessions * self.scale * (self.days / 30),
            seed=self.seed,
        )

    def exemplar_config(self) -> GeneratorConfig:
        """Generator config of the Fig. 2 exemplar trace.

        Only the three pinned tiers exist; their views scale with both
        ``scale`` and trace length so per-day dots stay meaningful.
        """
        factor = self.scale * (self.days / 30)
        return GeneratorConfig(
            num_users=max(100, int(self.num_users * self.scale)),
            num_items=len(TIER_VIEWS),
            days=self.days,
            expected_sessions=0.0,
            pinned_views={tier: views * factor for tier, views in TIER_VIEWS.items()},
            seed=self.seed + 1,
        )

    def simulation_config(
        self, upload_ratio: Optional[float] = None
    ) -> SimulationConfig:
        """Simulation config at a given (or the default) upload ratio."""
        ratio = self.upload_ratio if upload_ratio is None else upload_ratio
        return SimulationConfig(
            upload_ratio=ratio,
            workers=self.workers,
            backend=self.backend,
            queue_dir=self.queue_dir,
            **({"reduction": self.reduction} if self.reduction else {}),
            grouping=self.grouping or "memory",
            shard_dir=self.shard_dir,
        )

    def service_config(
        self,
        epoch_seconds: float = SECONDS_PER_DAY,
        *,
        upload_ratio: Optional[float] = None,
        allowed_lateness: float = 0.0,
    ) -> "ServiceConfig":
        """Service-mode config over these settings' simulation knobs.

        The accounting horizon is pinned to the settings' trace length
        (``days`` worth of seconds) -- the fixed-horizon mode in which
        the service's cumulative result is bit-for-bit equal to the
        batch run of the same trace (see :mod:`repro.sim.service`).
        """
        from repro.sim.service import ServiceConfig

        return ServiceConfig(
            simulation=self.simulation_config(upload_ratio),
            epoch_seconds=epoch_seconds,
            horizon=self.days * SECONDS_PER_DAY,
            allowed_lateness=allowed_lateness,
        )


# ----------------------------------------------------------------------
# Memoised artefacts
# ----------------------------------------------------------------------

_TRACES: Dict[Tuple, Trace] = {}
_RESULTS: Dict[Tuple, SimulationResult] = {}


def memo_key(kind: str, settings: ExperimentSettings) -> Tuple:
    """Cache key for memoised artefacts.

    ``workers``, ``backend``, ``queue_dir``, ``reduction``,
    ``grouping`` and ``shard_dir`` are excluded: they only change
    wall-clock and memory, never values (backends, reduction modes and
    grouping strategies are bit-for-bit identical), so runs differing
    only in those knobs share traces and simulation results.  Exported
    so figure drivers can key their own sweep-level artefacts (e.g.
    fig2's per-tier ratio sweeps) the same way.
    """
    return (
        kind,
        replace(
            settings,
            workers=None,
            backend=None,
            queue_dir=None,
            reduction=None,
            grouping=None,
            shard_dir=None,
        ),
    )


def sweep_configs(
    settings: ExperimentSettings, upload_ratios: Sequence[float]
) -> List[SimulationConfig]:
    """Per-ratio simulation configs for one ``Simulator.run_sweep`` call.

    The sweep-submission helper figure drivers share: every config
    carries the settings' runtime knobs and policy, differing only in
    ``upload_ratio``, so a whole ratio axis ships as one sweep (grouped
    once, decoded once, swept once -- see
    :meth:`repro.sim.engine.Simulator.run_sweep`).
    """
    return [settings.simulation_config(ratio) for ratio in upload_ratios]


def city_trace(settings: ExperimentSettings) -> Trace:
    """The (cached) full-catalogue city trace for these settings."""
    key = memo_key("city", settings)
    if key not in _TRACES:
        _TRACES[key] = TraceGenerator(
            config=settings.city_config(), device_mix=CITY_DEVICE_MIX
        ).generate()
    return _TRACES[key]


def exemplar_trace(settings: ExperimentSettings) -> Trace:
    """The (cached) Fig. 2 exemplar trace for these settings."""
    key = memo_key("exemplar", settings)
    if key not in _TRACES:
        _TRACES[key] = TraceGenerator(
            config=settings.exemplar_config(), device_mix=UNIFORM_DEVICE_MIX
        ).generate()
    return _TRACES[key]


def paper_simulation(settings: ExperimentSettings) -> SimulationResult:
    """The (cached) paper-policy simulation of the city trace."""
    key = memo_key("city-sim", settings)
    if key not in _RESULTS:
        simulator = Simulator(settings.simulation_config())
        try:
            _RESULTS[key] = simulator.run(city_trace(settings))
        finally:
            # Deterministic release: a distributed backend owns spawned
            # worker processes (and maybe a temp queue dir) that must
            # not wait for garbage collection.
            simulator.close()
    return _RESULTS[key]
