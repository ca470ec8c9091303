"""Columnar swarm kernel: packed session columns swept in C.

The object kernel (:func:`repro.sim.kernel.run_swarm_object`) walks
per-session python objects -- ``PeerState`` dataclasses, tuple events
carrying ``Session`` references, dict-of-object ledgers -- and its
attribute traffic dominates the profile.  This module is the fast
path: a :class:`ColumnSchedule` packs one swarm's sessions into
parallel scalar columns (demand, identity, dense geometry codes, sorted
window events), and the compiled ``repro.sim._ckernel`` extension
sweeps them over integer indices with a linked-list membership
timeline.

The contract is the one that makes the dispatch safe to default on:
**bit-for-bit identity with the object kernel.**  The C sweep replays
every float operation of :func:`~repro.sim.kernel.run_swarm_object` and
:func:`~repro.sim.matching.match_window` in the same order with the
same association -- window indices use the object kernel's exact
expressions (``int(start // dtau)``, ``int(math.ceil(end / dtau))``),
day chunks split identically, and even dict *insertion orders*
(per-layer peer bits, per-(ISP, day) ledgers, per-user traffic) are
reproduced, so reducers and serializers see indistinguishable outputs.

The extension is optional and looked up once, at import time: when
``repro.sim._ckernel`` imports (built via ``python setup.py build_ext
--inplace`` or the ``compiled`` extra), :data:`HAVE_COMPILED` is true
and :func:`repro.sim.kernel._compiled_path` routes ``kernel="auto"``
configs here; otherwise every config runs the object kernel, with
identical results.  ``REPRO_NO_CKERNEL=1`` hides a built extension (the
equivalence tests use it to exercise both installs).  This is the one
place that decides whether the extension is loaded: the trace
generator reads :data:`_ckernel` from here for its draw replay too.
Schedules are built only in C, lingering seeds included; a task the C
builders decline runs on the object kernel.

Random (non-locality-aware) matching has no columnar form, so those
configs stay on the object kernel -- the dispatch rule routes them
there.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.accounting import ByteLedger
from repro.sim.kernel import (
    SwarmOutput,
    SwarmTask,
    resolve_task,
    run_swarm_object,
)
from repro.sim.profiling import PROFILE
from repro.sim.results import SwarmResult, UserTraffic
from repro.topology.layers import NetworkLayer
from repro.trace.events import SECONDS_PER_DAY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimulationConfig
    from repro.sim.grouping import ExtentTaskRef

__all__ = [
    "HAVE_COMPILED",
    "ColumnSchedule",
    "run_from_schedule",
    "schedule_from_ref",
    "run_ref_columnar",
]

_ckernel = None
if not os.environ.get("REPRO_NO_CKERNEL"):
    try:
        from repro.sim import _ckernel  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - depends on the local build
        _ckernel = None

#: Whether the compiled sweep is active in this process.
HAVE_COMPILED = _ckernel is not None

#: Matching-phase layers by compiled-kernel index (the C sweep reports
#: peer bits against these positions).
_LAYERS = (
    NetworkLayer.EXCHANGE,
    NetworkLayer.POP,
    NetworkLayer.CORE,
    NetworkLayer.SERVER,
)


class ColumnSchedule:
    """One swarm's sessions packed into parallel typed columns.

    Built once per ``(task, schedule signature)`` in C (see
    :func:`schedule_from_ref`) -- the schedule the object kernel's
    ``_build_events`` would build -- and reused across every sweep
    config with that signature: the event timeline and the
    demand/identity/geometry columns depend only on ``(delta_tau,
    seed_linger_seconds, participation)``, while per-config supplies
    are derived on demand via :meth:`supplies_for`.

    ``packed`` holds the sweep's eight buffers: f64 demand, i64 user
    and member ids, i32 user slots, i32 ex/pop/isp codes and the i64
    events.  Geometry is stored as dense per-swarm codes with the same
    equality structure as the object matcher's scope keys: ``ex_code``
    equal iff ``(isp, exchange)`` equal, ``pop_code`` iff ``(isp,
    pop)``, ``isp_code`` iff ``isp`` -- which is all the C matcher needs
    to form :func:`~repro.sim.matching.match_window`'s scopes.  Events
    are packed into single sorted integers ``(window << 34) | (kind <<
    32) | session_index``: the bit layout makes integer order equal
    ``(window, kind, session_index)`` lexicographic order, and within a
    ``(window, kind)`` tie the session index reproduces the object
    kernel's creation-order tie-break, because each session contributes
    at most one event per kind and creation order is session order.
    The builders decline a window at or past ``2**29``, which would not
    fit int64.
    """

    __slots__ = (
        "n",
        "dtau",
        "windows_per_day",
        "num_days",
        "mean_duration",
        "packed",
        "bcode",
        "distinct_bitrates",
        "slot_users",
        "num_users",
        "num_ex",
        "num_pop",
        "num_isp",
    )

    def __init__(self, built: Tuple, n: int, dtau: float) -> None:
        """Wrap a ``_ckernel.build`` or ``decode_build`` 16-tuple."""
        self.n = n
        self.dtau = dtau
        self.windows_per_day = int(SECONDS_PER_DAY // dtau)
        self.packed = built[:8]
        (
            self.bcode,
            self.distinct_bitrates,
            self.slot_users,
            self.num_ex,
            self.num_pop,
            self.num_isp,
            self.mean_duration,
            max_window,
        ) = built[8:]
        self.num_users = len(self.slot_users)
        self.num_days = (
            (max_window - 1) // self.windows_per_day + 1 if max_window > 0 else 0
        )

    def supplies_for(self, config: "SimulationConfig") -> bytes:
        """Per-session supply column (f64 bits/window) under one config.

        Replays the object kernel's expression ``upload_rate_for(
        bitrate) * dtau`` for participants and ``0.0`` otherwise: python
        resolves rates once per distinct bitrate and participation once
        per user slot, and a C map returns the packed column.
        """
        dtau = self.dtau
        rates = array(
            "d",
            [
                config.upload_rate_for(bitrate) * dtau
                for bitrate in self.distinct_bitrates
            ],
        )
        if config.participation_rate >= 1.0:
            part = None
        else:
            part = bytes(map(config.participates, self.slot_users))
        return _ckernel.supplies(self.n, self.bcode, rates, self.packed[3], part)


def schedule_from_ref(
    ref: "SwarmTask | ExtentTaskRef", config: "SimulationConfig"
) -> Optional[ColumnSchedule]:
    """Build the :class:`ColumnSchedule` of one task ref in C.

    A resident :class:`SwarmTask` packs its ``Session`` slots
    (``_ckernel.build``, the ``schedule build`` profile phase).  An
    extent ref takes the zero-object ingest path: one
    ``_ckernel.decode_build`` pass over the extent's raw 56 B records
    decodes *and* builds the schedule, so ``Session`` objects never
    exist (the ``decode`` phase, counted in ``fused_tasks``).  Both take
    ``config.participates`` for lingering seeds and call it once per
    user.  Returns ``None`` when the builder declines -- a window at or
    past ``2**29``, a field that is not a float or a machine-width int,
    mixed session types, a big-endian host or an empty task -- and the
    caller runs the task on the object kernel.
    """
    dtau = config.delta_tau
    linger = config.seed_linger_seconds
    resident = isinstance(ref, SwarmTask)
    profile = PROFILE.enabled
    if profile:
        t0 = perf_counter()
    if resident:
        n = len(ref.sessions)
        built = _ckernel.build(ref.sessions, dtau, linger, config.participates)
    else:
        n = ref.num_sessions
        built = _ckernel.decode_build(
            ref.read_raw(), n, dtau, linger, config.participates
        )
    if profile:
        if resident:
            PROFILE.schedule_seconds += perf_counter() - t0
        else:
            PROFILE.decode_seconds += perf_counter() - t0
            PROFILE.fused_tasks += built is not None
    return None if built is None else ColumnSchedule(built, n, dtau)


def run_ref_columnar(
    ref: "SwarmTask | ExtentTaskRef", config: "SimulationConfig"
) -> SwarmOutput:
    """Columnar run of one task ref; zero-object for an extent ref.

    An extent ref carries ``key`` and ``horizon``, which is all
    :func:`run_from_schedule` needs from a task -- its sessions only
    ever exist as columns.  A task the builder declines runs on
    :func:`~repro.sim.kernel.run_swarm_object`, which counts it in the
    profile's ``tasks`` but not in ``compiled_tasks``; results are
    identical either way.
    """
    schedule = schedule_from_ref(ref, config)
    if schedule is None:
        return run_swarm_object(resolve_task(ref), config)
    return run_from_schedule(ref, config, schedule)


def run_from_schedule(
    task: "SwarmTask | ExtentTaskRef",
    config: "SimulationConfig",
    schedule: ColumnSchedule,
) -> SwarmOutput:
    """Sweep a prebuilt schedule under one config in C and materialize.

    ``task`` may be a :class:`SwarmTask` or an extent ref -- only its
    ``key`` and ``horizon`` are read (see :func:`_materialize`).
    """
    profile = PROFILE.enabled
    supplies = schedule.supplies_for(config)
    if profile:
        t0 = perf_counter()
    flat = _sweep_compiled(schedule, supplies, config.allow_cross_isp_matching, profile)
    if profile:
        PROFILE.sweep_seconds += perf_counter() - t0
        PROFILE.match_seconds += flat[6]
        PROFILE.account_seconds += flat[7]
        PROFILE.tasks += 1
        PROFILE.compiled_tasks += 1
    return _materialize(task, schedule, flat)


def _sweep_compiled(
    schedule: ColumnSchedule,
    supplies: bytes,
    allow_cross: bool,
    profile: bool,
) -> Tuple:
    """Run the C sweep and lift its layer indices back to enums."""
    (
        demand_buf,
        uid_buf,
        mid_buf,
        slot_buf,
        ex_buf,
        pop_buf,
        isp_buf,
        ev_buf,
    ) = schedule.packed
    (
        watch_total,
        server_total,
        demanded_total,
        peer_items,
        day_items,
        user_items,
        match_s,
        account_s,
    ) = _ckernel.sweep(
        schedule.n,
        demand_buf,
        supplies,
        uid_buf,
        mid_buf,
        slot_buf,
        ex_buf,
        pop_buf,
        isp_buf,
        schedule.num_users,
        schedule.num_ex,
        schedule.num_pop,
        schedule.num_isp,
        ev_buf,
        schedule.windows_per_day,
        schedule.num_days,
        schedule.dtau,
        1 if allow_cross else 0,
        1 if profile else 0,
    )
    layers = _LAYERS
    return (
        watch_total,
        server_total,
        demanded_total,
        [(layers[layer], bits) for layer, bits in peer_items],
        [
            (
                day,
                watch,
                server,
                demanded,
                [(layers[layer], bits) for layer, bits in day_peer],
            )
            for day, watch, server, demanded, day_peer in day_items
        ],
        user_items,
        match_s,
        account_s,
    )


def _materialize(
    task: "SwarmTask | ExtentTaskRef", schedule: ColumnSchedule, flat: Tuple
) -> SwarmOutput:
    """Build the :class:`SwarmOutput` from a sweep's flat accumulators.

    Only ``task.key`` and ``task.horizon`` are read, so an extent ref
    works as well as a materialized task -- the accounting boundary
    interns nothing per session (the ledger's ISP comes from the key).
    """
    (
        watch_seconds,
        server_total,
        demanded_total,
        peer_items,
        day_items,
        user_items,
        _match_s,
        _account_s,
    ) = flat
    n = schedule.n
    horizon = task.horizon
    isp = task.key.isp if task.key.isp is not None else "all"
    per_isp_day = {
        (isp, day): ByteLedger(
            server_bits=server,
            peer_bits=dict(day_peer),
            demanded_bits=demanded,
            watch_seconds=watch,
        )
        for day, watch, server, demanded, day_peer in day_items
    }
    slot_users = schedule.slot_users
    per_user = {
        slot_users[slot]: UserTraffic(watched_bits=watched, uploaded_bits=uploaded)
        for slot, watched, uploaded in user_items
    }
    return SwarmOutput(
        result=SwarmResult(
            key=task.key,
            ledger=ByteLedger(
                server_bits=server_total,
                peer_bits=dict(peer_items),
                demanded_bits=demanded_total,
                watch_seconds=watch_seconds,
                sessions=n,
            ),
            capacity=watch_seconds / horizon if horizon > 0 else 0.0,
            arrival_rate=n / horizon if horizon > 0 else 0.0,
            mean_duration=schedule.mean_duration,
        ),
        per_isp_day=per_isp_day,
        per_user=per_user,
    )
