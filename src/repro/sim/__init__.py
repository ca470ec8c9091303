"""Discrete time-step hybrid-CDN simulator (paper Section IV.A).

Windows of ``delta_tau`` seconds (paper: 10 s), swarms scoped per
content item x bitrate class x ISP, closest-first peer matching over the
metro tree, byte ledgers at system / swarm / (ISP, day) / user level.
"""

from repro.sim.accounting import (
    ByteLedger,
    baseline_energy_nj,
    hybrid_energy_nj,
    savings,
)
from repro.sim.backends import (
    DistributedBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.sim.engine import SimulationConfig, Simulator, SweepStats, simulate
from repro.sim.federate import (
    FederationLedger,
    FederationResult,
    RegionJob,
    declared_home_rule,
    default_home_rule,
    run_federation,
)
from repro.sim.grouping import (
    GROUPING_MODES,
    ExternalGrouping,
    GroupingStats,
    GroupingStrategy,
    MemoryGrouping,
    TaskPlan,
    resolve_grouping,
)
from repro.sim.kernel import (
    SwarmOutput,
    SwarmTask,
    build_tasks,
    merge_outputs,
    resolve_task,
    run_swarm,
)
from repro.sim.matching import PeerState, WindowAllocation, match_window
from repro.sim.policies import PAPER_POLICY, EpochPolicy, SwarmKey, SwarmPolicy
from repro.sim.queue import JobSpec, WorkItem, WorkQueue
from repro.sim.service import (
    EpochResult,
    JsonlSink,
    ServiceCheckpoint,
    ServiceConfig,
    SimulationService,
    serve_jsonl,
)
from repro.sim.reduce import (
    REDUCTION_MODES,
    FootprintAccumulator,
    FootprintStats,
    ReductionStats,
    StreamingReducer,
    iter_user_deltas,
    load_user_deltas,
)
from repro.sim.results import SimulationResult, SwarmResult, UserTraffic
from repro.sim.validation import (
    ValidationPoint,
    ValidationReport,
    validate_against_theory,
)

__all__ = [
    "ByteLedger",
    "DistributedBackend",
    "EpochPolicy",
    "EpochResult",
    "FederationLedger",
    "FederationResult",
    "JobSpec",
    "JsonlSink",
    "ExecutionBackend",
    "ExternalGrouping",
    "FootprintAccumulator",
    "FootprintStats",
    "GROUPING_MODES",
    "GroupingStats",
    "GroupingStrategy",
    "MemoryGrouping",
    "PAPER_POLICY",
    "PeerState",
    "ProcessPoolBackend",
    "REDUCTION_MODES",
    "ReductionStats",
    "RegionJob",
    "SerialBackend",
    "ServiceCheckpoint",
    "ServiceConfig",
    "SimulationConfig",
    "SimulationResult",
    "SimulationService",
    "Simulator",
    "SweepStats",
    "StreamingReducer",
    "SwarmKey",
    "SwarmOutput",
    "SwarmPolicy",
    "SwarmResult",
    "SwarmTask",
    "TaskPlan",
    "UserTraffic",
    "WorkItem",
    "WorkQueue",
    "ValidationPoint",
    "ValidationReport",
    "WindowAllocation",
    "build_tasks",
    "declared_home_rule",
    "default_home_rule",
    "iter_user_deltas",
    "load_user_deltas",
    "merge_outputs",
    "resolve_backend",
    "resolve_grouping",
    "resolve_task",
    "run_federation",
    "run_swarm",
    "serve_jsonl",
    "validate_against_theory",
    "baseline_energy_nj",
    "hybrid_energy_nj",
    "match_window",
    "savings",
    "simulate",
]
