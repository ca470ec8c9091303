"""Workload substrate: sessions, catalogue, population, synthetic traces.

Substitutes the paper's proprietary BBC iPlayer trace with a fully
parameterised synthetic generator (docs/ARCHITECTURE.md, "Trace
synthesis").  The simulator consumes a :class:`Trace` regardless of where
it came from.
"""

from repro.trace.catalogue import Catalogue, ContentItem, zipf_weights
from repro.trace.diurnal import DiurnalProfile, FLAT_PROFILE, UK_TV_PROFILE
from repro.trace.events import SECONDS_PER_DAY, Session, Trace
from repro.trace.generator import (
    GeneratorConfig,
    TraceGenerator,
    generate_trace,
    sample_poisson,
)
from repro.trace.loader import (
    iter_csv,
    iter_jsonl,
    iter_store,
    load_csv,
    load_jsonl,
    load_store,
    read_jsonl_horizon,
    save_csv,
    save_jsonl,
    save_store,
)
from repro.trace.store import (
    Extent,
    ExternalGroupSorter,
    ShardManifest,
    StoreReader,
    StoreWriter,
)
from repro.trace.population import (
    DEFAULT_DEVICE_MIX,
    DeviceProfile,
    Population,
    User,
)
from repro.trace.stats import TraceStats, summarise
from repro.trace.synth import SynthConfig, SynthResult, ensure_store, synthesize

__all__ = [
    "Catalogue",
    "ContentItem",
    "DEFAULT_DEVICE_MIX",
    "DeviceProfile",
    "DiurnalProfile",
    "Extent",
    "ExternalGroupSorter",
    "FLAT_PROFILE",
    "GeneratorConfig",
    "Population",
    "SECONDS_PER_DAY",
    "Session",
    "ShardManifest",
    "StoreReader",
    "StoreWriter",
    "SynthConfig",
    "SynthResult",
    "Trace",
    "TraceGenerator",
    "TraceStats",
    "UK_TV_PROFILE",
    "User",
    "ensure_store",
    "generate_trace",
    "iter_csv",
    "iter_jsonl",
    "iter_store",
    "load_csv",
    "load_jsonl",
    "load_store",
    "read_jsonl_horizon",
    "sample_poisson",
    "save_csv",
    "save_jsonl",
    "save_store",
    "summarise",
    "synthesize",
    "zipf_weights",
]
