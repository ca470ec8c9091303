"""Pure per-swarm simulation kernel: the unit of parallel work.

The engine's original sweep mutated three shared dicts (total ledger,
per-(ISP, day) ledgers, per-user traffic) while iterating swarms, which
made the run order load-bearing and the work impossible to distribute.
This module is the refactored core: a swarm is described by an immutable
:class:`SwarmTask`, simulated by the pure function :func:`run_swarm`,
and its *entire* effect on the world is returned as a self-contained
:class:`SwarmOutput` -- the swarm's key plus one packed, checksummed
block (docs/BLOCK_FORMAT.md) holding its ledger and its own per-(ISP,
day) and per-user deltas.  Nothing is shared, nothing is mutated, and a
task round-trips through ``pickle`` unchanged, so the same kernel runs
unmodified under the serial, process and distributed backends
(:mod:`repro.sim.backends`).

Determinism contract:

* :func:`build_tasks` orders swarms canonically (sorted swarm key) and
  sorts each swarm's sessions by ``(start, session_id)``, so the task
  list is a pure function of the session *multiset* -- independent of
  trace ordering, iterator chunking or backend.
* :func:`run_swarm` consumes only its task and the config; two calls
  with equal arguments produce byte-for-byte equal blocks in any
  process, on either kernel.
* Outputs fold in task order (:func:`merge_outputs`, or the
  :class:`~repro.sim.reduce.StreamingReducer` it wraps), so every
  backend reduces to the identical float-addition sequence: parallel
  runs are bit-for-bit equal to serial runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional
from typing import Sequence, Tuple

from repro.sim.accounting import ByteLedger
from repro.sim.block import read_block, write_block
from repro.sim.matching import PeerState, WindowAllocation, match_window
from repro.sim.policies import SwarmKey, SwarmPolicy
from repro.sim.profiling import PROFILE
from repro.sim.reduce import StreamingReducer
from repro.sim.results import SimulationResult, SwarmResult, UserTraffic
from repro.trace.events import SECONDS_PER_DAY, Session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.engine import SimulationConfig

__all__ = [
    "SwarmTask",
    "SwarmOutput",
    "MultiSwarmOutput",
    "build_tasks",
    "resolve_task",
    "run_swarm",
    "run_swarm_object",
    "run_ref",
    "run_ref_multi",
    "run_shard",
    "run_shard_multi",
    "merge_outputs",
]

#: Event kinds, in the order they apply within one window.
_REMOVE, _DEMOTE, _ADD = 0, 1, 2


@dataclass(frozen=True)
class SwarmTask:
    """One swarm's complete, immutable work description.

    Attributes:
        key: the swarm's identity under the scoping policy.
        sessions: the swarm's sessions, sorted by ``(start, session_id)``.
        horizon: trace horizon in seconds (for capacity/arrival rates).
    """

    key: SwarmKey
    sessions: Tuple[Session, ...]
    horizon: float

    @property
    def num_sessions(self) -> int:
        """Session count (shared shape with extent refs, for balancing)."""
        return len(self.sessions)

    def materialize(self) -> "SwarmTask":
        """A task *is* its own materialization (see :func:`resolve_task`)."""
        return self


def resolve_task(ref: object) -> SwarmTask:
    """Turn a task ref into a resident :class:`SwarmTask`.

    The worker-side half of the lazy task plan contract
    (:mod:`repro.sim.grouping`): a ref is either a ``SwarmTask``
    already (memory grouping -- sessions travelled with the ref) or an
    extent handle whose ``materialize()`` decodes the sessions from the
    shard file the worker opens itself (external grouping -- only
    ``(path, offset, length, key)`` ever crossed the process boundary).
    """
    if isinstance(ref, SwarmTask):
        return ref
    if PROFILE.enabled:
        t0 = perf_counter()
        task = ref.materialize()  # type: ignore[attr-defined]
        PROFILE.decode_seconds += perf_counter() - t0
        return task
    return ref.materialize()  # type: ignore[attr-defined]


class SwarmOutput(NamedTuple):
    """Everything one swarm contributed to the run, self-contained.

    The swarm's key plus one packed block (:mod:`repro.sim.block`)
    holding its ledger, its own per-(ISP, day) ledgers and its per-user
    traffic; both kernels write the same bytes.  The reducer folds the
    block as it is; the properties decode fresh objects on every read.
    """

    key: SwarmKey
    block: bytes

    @classmethod
    def pack(
        cls,
        result: SwarmResult,
        per_day: Dict[int, ByteLedger],
        per_user: Dict[int, UserTraffic],
    ) -> "SwarmOutput":
        """An output from dicts: day ledgers keyed by day, users by id."""
        return cls(result.key, write_block(result, per_day, per_user))

    @property
    def result(self) -> SwarmResult:
        """The swarm's ledger and measured dynamics."""
        return read_block(self.key, self.block)[0]

    @property
    def per_isp_day(self) -> Dict[Tuple[str, int], ByteLedger]:
        """This swarm's ledger deltas keyed by (ISP, day)."""
        return read_block(self.key, self.block)[1]

    @property
    def per_user(self) -> Dict[int, UserTraffic]:
        """This swarm's byte deltas keyed by user id."""
        return read_block(self.key, self.block)[2]


def build_tasks(
    sessions: Iterable[Session], horizon: float, policy: SwarmPolicy
) -> List[SwarmTask]:
    """Partition a session stream into canonically ordered swarm tasks.

    Consumes any iterable (a :class:`~repro.trace.events.Trace`, a list,
    or a lazy generator) exactly once; only the grouped sessions are
    retained, never an intermediate full-trace tuple.

    Raises:
        ValueError: if ``horizon <= 0`` or a session ends after it.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    groups: Dict[SwarmKey, List[Session]] = {}
    latest_end = 0.0
    for session in sessions:
        groups.setdefault(policy.key_for(session), []).append(session)
        if session.end > latest_end:
            latest_end = session.end
    if latest_end > horizon:
        raise ValueError(
            f"horizon {horizon} shorter than last session end {latest_end}"
        )
    tasks = []
    for key in sorted(groups, key=SwarmKey.sort_key):
        members = sorted(groups[key], key=lambda s: (s.start, s.session_id))
        tasks.append(SwarmTask(key=key, sessions=tuple(members), horizon=horizon))
    return tasks


# ----------------------------------------------------------------------
# The per-swarm sweep
# ----------------------------------------------------------------------

#: One window-grid event: ``(window, kind, sequence, session)``.  The
#: sequence number is the event's creation index, so plain tuple
#: comparison is a total order that never reaches the ``Session`` --
#: ``list.sort()`` runs without a key function and without ever
#: comparing (unorderable, and expensive to even try) session objects.
_Event = Tuple[int, int, int, Session]


def _build_events(
    sessions: Sequence[Session], config: "SimulationConfig"
) -> List[_Event]:
    """Add/demote/remove events on the window grid, in sweep order.

    Event kinds sort as remove (0) < demote (1) < add (2), so at a
    shared window a session ending exactly when another starts never
    overlaps it.  "Demote" turns a finished viewer into an upload-only
    lingering seed (the caching extension); with
    ``seed_linger_seconds == 0`` sessions go straight to removal,
    reproducing the paper.  The schedule depends only on the config's
    ``(delta_tau, seed_linger_seconds, participation)`` signature
    (:func:`_schedule_signature`), which is what lets a sweep share one
    packed schedule per signature group (:func:`run_ref_multi`).
    """
    dtau = config.delta_tau
    events: List[_Event] = []
    for session in sessions:
        w_start = int(session.start // dtau)
        w_end = max(w_start + 1, int(math.ceil(session.end / dtau)))
        events.append((w_start, _ADD, len(events), session))
        lingers = (
            config.seed_linger_seconds > 0.0
            and config.participates(session.user_id)
        )
        if lingers:
            w_linger = int(math.ceil((session.end + config.seed_linger_seconds) / dtau))
            if w_linger > w_end:
                events.append((w_end, _DEMOTE, len(events), session))
                events.append((w_linger, _REMOVE, len(events), session))
            else:
                events.append((w_end, _REMOVE, len(events), session))
        else:
            events.append((w_end, _REMOVE, len(events), session))
    # Ties on (window, kind) resolve by creation order -- exactly what
    # the historical stable key-sort produced.
    events.sort()
    return events


def _compiled_path(config: "SimulationConfig"):
    """The kernel dispatch rule, the one place it is written down.

    A config runs the compiled columnar sweep
    (:mod:`repro.sim.kernel_columns` over ``repro.sim._ckernel``) when
    all three hold: its ``kernel`` is ``"auto"``, its matching is
    locality-aware (random matching has no columnar form), and the
    extension imported.  Returns the ``kernel_columns`` module then,
    ``None`` otherwise -- every other config runs
    :func:`run_swarm_object`.  Both paths are bit-for-bit identical, so
    dispatch can never change results.  ``kernel_columns`` is imported
    here, on first dispatch, never at ``import repro`` time.
    """
    if config.kernel != "auto" or not config.locality_aware_matching:
        return None
    from repro.sim import kernel_columns

    return kernel_columns if kernel_columns.HAVE_COMPILED else None


def run_swarm(task: SwarmTask, config: "SimulationConfig") -> SwarmOutput:
    """Simulate one swarm; pure, picklable, shared-nothing.

    The kernel dispatcher (see :func:`_compiled_path` for the rule):
    the compiled columnar sweep where it applies, otherwise the object
    sweep :func:`run_swarm_object`, the semantics reference.
    """
    columnar = _compiled_path(config)
    if columnar is None:
        return run_swarm_object(task, config)
    return columnar.run_ref_columnar(task, config)


def run_swarm_object(task: SwarmTask, config: "SimulationConfig") -> SwarmOutput:
    """The object-sweep kernel: per-session python objects, no packing.

    Builds add/demote/remove events on the window grid, sweeps the
    stretches of constant membership, and accounts every byte into the
    output's own ledgers.  See the module docstring in
    :mod:`repro.sim.engine` for the windowing scheme.  This is the
    semantics reference the compiled columnar sweep must reproduce
    bit-for-bit (the hypothesis law in
    ``tests/sim/test_kernel_columns.py`` pins the contract), and the
    kernel every config off the compiled path runs.  With
    :data:`~repro.sim.profiling.PROFILE` enabled, each call counts one
    task and charges its time to the ``sweep`` phase.
    """
    profile = PROFILE.enabled
    if profile:
        t0 = perf_counter()
    dtau = config.delta_tau
    windows_per_day = int(SECONDS_PER_DAY // dtau)
    sessions = task.sessions
    events = _build_events(sessions, config)

    # The swarm ledger, its day ledgers keyed by day, per-user traffic.
    accounts = (ByteLedger(sessions=len(sessions)), {}, {})
    watch_seconds = 0.0

    members: Dict[int, PeerState] = {}
    previous_window = 0
    index = 0
    while index < len(events):
        window = events[index][0]
        if window > previous_window and members:
            watch_seconds += _account_stretch(
                accounts, members, previous_window, window, windows_per_day, config
            )
        previous_window = max(previous_window, window)
        # Apply every event at this window (removals first by sort).
        while index < len(events) and events[index][0] == window:
            _, kind, _, session = events[index]
            if kind == _REMOVE:
                members.pop(session.session_id, None)
            elif kind == _DEMOTE:
                viewer = members.get(session.session_id)
                if viewer is not None:
                    members[session.session_id] = PeerState(
                        member_id=viewer.member_id,
                        user_id=viewer.user_id,
                        demand=0.0,
                        supply=viewer.supply,
                        exchange=viewer.exchange,
                        pop=viewer.pop,
                        isp=viewer.isp,
                        attachment=viewer.attachment,
                    )
            else:
                supply_rate = (
                    config.upload_rate_for(session.bitrate)
                    if config.participates(session.user_id)
                    else 0.0
                )
                members[session.session_id] = PeerState(
                    member_id=session.session_id,
                    user_id=session.user_id,
                    demand=session.bitrate * dtau,
                    supply=supply_rate * dtau,
                    exchange=session.attachment.exchange,
                    pop=session.attachment.pop,
                    isp=session.isp,
                    attachment=session.attachment,
                )
            index += 1

    ledger, per_day, per_user = accounts
    ledger.watch_seconds = watch_seconds
    horizon = task.horizon
    result = SwarmResult(
        key=task.key,
        ledger=ledger,
        capacity=watch_seconds / horizon if horizon > 0 else 0.0,
        arrival_rate=len(sessions) / horizon if horizon > 0 else 0.0,
        mean_duration=(
            sum(s.duration for s in sessions) / len(sessions) if sessions else 0.0
        ),
    )
    output = SwarmOutput.pack(result, per_day, per_user)
    if profile:
        PROFILE.sweep_seconds += perf_counter() - t0
        PROFILE.tasks += 1
    return output


def _account_stretch(
    accounts: Tuple,
    members: Dict[int, PeerState],
    w_from: int,
    w_to: int,
    windows_per_day: int,
    config: "SimulationConfig",
) -> float:
    """Account a run of identical windows, split at day boundaries.

    Returns the watch-seconds covered by the stretch.
    """
    member_list = list(members.values())
    allocation = match_window(
        member_list,
        allow_cross_isp=config.allow_cross_isp_matching,
        locality_aware=config.locality_aware_matching,
    )
    # Lingering seeds (demand 0) are not *viewers*: capacity counts
    # concurrent watchers only, as in the paper.
    viewers = sum(1 for m in member_list if m.demand > 0.0)
    watch_per_window = viewers * config.delta_tau

    watch_seconds = 0.0
    window = w_from
    while window < w_to:
        day = window // windows_per_day
        day_end = (day + 1) * windows_per_day
        chunk = min(w_to, day_end) - window
        _apply_allocation(
            accounts, allocation, member_list, chunk, day, watch_per_window * chunk
        )
        watch_seconds += watch_per_window * chunk
        window += chunk
    return watch_seconds


def _apply_allocation(
    accounts: Tuple,
    allocation: WindowAllocation,
    member_list: List[PeerState],
    num_windows: int,
    day: int,
    watch_seconds: float,
) -> None:
    ledger, per_day, per_user = accounts
    day_ledger = per_day.get(day)
    if day_ledger is None:
        day_ledger = per_day[day] = ByteLedger()
    day_ledger.watch_seconds += watch_seconds

    server = allocation.server_bits * num_windows
    demanded = allocation.demanded_bits * num_windows
    for target in (ledger, day_ledger):
        target.server_bits += server
        target.demanded_bits += demanded
        for layer, bits in allocation.peer_bits.items():
            target.peer_bits[layer] = (
                target.peer_bits.get(layer, 0.0) + bits * num_windows
            )

    for member in member_list:
        traffic = per_user.get(member.user_id)
        if traffic is None:
            traffic = per_user[member.user_id] = UserTraffic()
        traffic.watched_bits += member.demand * num_windows
    for user_id, bits in allocation.uploaded_bits.items():
        traffic = per_user.get(user_id)
        if traffic is None:
            traffic = per_user[user_id] = UserTraffic()
        traffic.uploaded_bits += bits * num_windows


# ----------------------------------------------------------------------
# The multi-config sweep kernel
# ----------------------------------------------------------------------


@dataclass
class MultiSwarmOutput:
    """One swarm's outputs for every config of a sweep, plus kernel stats.

    Produced by :func:`run_ref_multi`.  ``outputs[k]`` is bit-for-bit
    the :class:`SwarmOutput` that ``run_swarm(task, configs[k])`` would
    have produced; the counter reports how much work the sweep actually
    shared so callers can assert (and benchmarks can publish) the
    amortization instead of trusting it.

    Attributes:
        outputs: per-config swarm outputs, aligned with the sweep's
            config list.
        schedule_builds: packed schedules built -- one per distinct
            ``(delta_tau, seed_linger, participation)`` signature among
            the configs on the compiled path, 0 when none is or the C
            builder declines the task.
    """

    outputs: List[SwarmOutput]
    schedule_builds: int = 0


def _schedule_signature(config: "SimulationConfig") -> Tuple:
    """What the event schedule (and membership timeline) depends on.

    Two configs with equal signatures produce identical event lists for
    any session set: the window grid is set by ``delta_tau``, and the
    demote/remove split by ``seed_linger_seconds`` gated on
    participation.  With no lingering, participation never reaches the
    schedule (it only scales supplies), so it is normalized out and a
    whole upload-ratio x participation sweep shares one timeline.
    """
    return (
        config.delta_tau,
        config.seed_linger_seconds,
        config.participation_rate if config.seed_linger_seconds > 0.0 else None,
    )


# ----------------------------------------------------------------------
# Shard execution and deterministic reduction
# ----------------------------------------------------------------------


def run_ref(ref: object, config: "SimulationConfig") -> SwarmOutput:
    """Run one task ref: a resident :class:`SwarmTask` or an extent ref.

    The ref-level dispatcher every backend funnels through.  On the
    compiled path (:func:`_compiled_path`) an extent ref takes the
    zero-object route -- raw store bytes to packed columns, no
    ``Session`` objects (:func:`repro.sim.kernel_columns.\
schedule_from_ref`).  Off it, the ref materializes via
    :func:`resolve_task` and runs :func:`run_swarm_object`.  Outputs are
    bit-for-bit identical either way (the extent columns decode to the
    exact field values the objects would carry).
    """
    columnar = _compiled_path(config)
    if columnar is None:
        return run_swarm_object(resolve_task(ref), config)
    return columnar.run_ref_columnar(ref, config)


def run_ref_multi(
    ref: object, configs: Sequence["SimulationConfig"]
) -> MultiSwarmOutput:
    """Run one task ref under every sweep config, sharing the schedule.

    Each config's own ``kernel`` field decides its path
    (:func:`_compiled_path`).  The configs on the compiled path are
    grouped by :func:`_schedule_signature`; each group builds one
    :class:`~repro.sim.kernel_columns.ColumnSchedule` -- straight from
    the raw records when ``ref`` is an extent ref -- and sweeps it once
    per config.  Every other config, and every config of a group whose
    builder declines the task, runs :func:`run_swarm_object` on the
    task, decoded at most once.  Each output is bit-for-bit what
    ``run_ref(ref, configs[k])`` returns.
    """
    groups: Dict[Tuple, List[int]] = {}
    columnar = None
    for position, config in enumerate(configs):
        compiled = _compiled_path(config)
        if compiled is not None:
            columnar = compiled
            groups.setdefault(_schedule_signature(config), []).append(position)
    outputs: List[Optional[SwarmOutput]] = [None] * len(configs)
    builds = 0
    for positions in groups.values():
        schedule = columnar.schedule_from_ref(ref, configs[positions[0]])
        if schedule is None:
            continue
        builds += 1
        for position in positions:
            outputs[position] = columnar.run_from_schedule(
                ref, configs[position], schedule
            )
    task: Optional[SwarmTask] = None
    for position, output in enumerate(outputs):
        if output is None:
            if task is None:
                task = resolve_task(ref)
            outputs[position] = run_swarm_object(task, configs[position])
    return MultiSwarmOutput(
        outputs=outputs,  # type: ignore[arg-type] - every slot is filled
        schedule_builds=builds,
    )


def run_shard(
    tasks: Sequence[object], config: "SimulationConfig"
) -> List[SwarmOutput]:
    """Run a batch of swarm task refs in-process, preserving order.

    The unit of work a process backend ships to a worker: one pickle
    round-trip amortises over the whole shard.  Accepts resident
    :class:`SwarmTask` values or lazy refs; each runs through
    :func:`run_ref` (zero-object for extent refs on the compiled path)
    and is released before the next, so a worker holds at most one
    decoded task at a time.
    """
    return [run_ref(task, config) for task in tasks]


def run_shard_multi(
    tasks: Sequence[object], configs: Sequence["SimulationConfig"]
) -> List[MultiSwarmOutput]:
    """Run a batch of swarm task refs under every sweep config.

    The multi-config counterpart of :func:`run_shard` -- and the whole
    point of the fan-out amortization: one pickle round-trip ships the
    task refs plus K config deltas, each task's sessions are decoded
    once per schedule signature (to columns on the zero-object path),
    and :func:`run_ref_multi` shares the schedule across the configs.
    Task order is preserved.
    """
    return [run_ref_multi(task, configs) for task in tasks]


def merge_outputs(
    outputs: Iterable[SwarmOutput],
    *,
    delta_tau: float,
    horizon: float,
    upload_ratio: float,
) -> SimulationResult:
    """Reduce swarm outputs (in the given order) into a final result.

    The in-order reference fold: one output per block, delivered in
    order, through the same :class:`repro.sim.reduce.StreamingReducer`
    every run uses, so the two cannot drift.  The outputs themselves
    are never mutated or aliased: reducing the same outputs twice gives
    the same result.
    """
    reducer = StreamingReducer(
        delta_tau=delta_tau, horizon=horizon, upload_ratio=upload_ratio
    )
    for index, output in enumerate(outputs):
        reducer.add(index, (output,))
    return reducer.result()
