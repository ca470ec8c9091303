"""Columnar swarm kernel: packed session columns swept in C.

The object kernel (:func:`repro.sim.kernel.run_swarm_object`) walks
per-session python objects, and its attribute traffic dominates the
profile.  This module is the fast path: a :class:`ColumnSchedule` packs
one swarm's sessions into parallel scalar columns (demand, identity,
dense geometry codes, sorted window events), and the compiled
``repro.sim._ckernel`` extension sweeps them over integer indices with
a linked-list membership timeline.

The contract that makes the dispatch safe to default on is
**bit-for-bit identity with the object kernel.**  The C sweep replays
every float operation of :func:`~repro.sim.kernel.run_swarm_object` and
:func:`~repro.sim.matching.match_window` in the same order with the
same association -- window indices use the object kernel's exact
expressions (``int(start // dtau)``, ``int(math.ceil(end / dtau))``),
day chunks split identically, and dict *insertion orders* (per-layer
peer bits, per-(ISP, day) ledgers, per-user traffic) are reproduced.
The sweep writes the output's packed block (docs/BLOCK_FORMAT.md)
itself, so both kernels' outputs are equal byte for byte and no
per-day or per-user python object exists between the C sweep and the
reducer's fold.

The extension is optional and looked up once, at import time: when
``repro.sim._ckernel`` imports (``python setup.py build_ext
--inplace``), :data:`HAVE_COMPILED` is true and
:func:`repro.sim.kernel._compiled_path` routes ``kernel="auto"``
configs here; otherwise every config runs the object kernel, with
identical results.  ``REPRO_NO_CKERNEL=1`` hides a built extension.
This is the one place that decides whether the extension is loaded:
the trace generator reads :data:`_ckernel` from here for its draw
replay, and the reducer for its compiled fold.  Schedules are built
only in C, lingering seeds included; a task the C builders decline,
and every config with random (non-locality-aware) matching, runs on
the object kernel.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.kernel import (
    SwarmOutput,
    SwarmTask,
    resolve_task,
    run_swarm_object,
)
from repro.sim.profiling import PROFILE
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


class ColumnSchedule:
    """One swarm's sessions packed into parallel typed columns.

    Built once per ``(task, schedule signature)`` in C (see
    :func:`schedule_from_ref`) -- the schedule the object kernel's
    ``_build_events`` would build -- and reused across every sweep
    config with that signature; per-config supplies come from
    :meth:`supplies_for`.

    ``packed`` holds the sweep's eight buffers: f64 demand, i64 user
    and member ids, i32 user slots, i32 ex/pop/isp codes and the i64
    events.  Geometry is stored as dense per-swarm codes with the same
    equality structure as the object matcher's scope keys (``ex_code``
    equal iff ``(isp, exchange)`` equal, and so on), which is all the C
    matcher needs to form :func:`~repro.sim.matching.match_window`'s
    scopes.  Events are single sorted integers ``(window << 34) | (kind
    << 32) | session_index``, so integer order is the object kernel's
    ``(window, kind, creation)`` order; the builders decline a window at
    or past ``2**29``.  ``slot_users`` is an ``array('q')`` of each user
    slot's id, in first-encounter order: the sweep writes the block's
    user ids from it.
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
    """Sweep a prebuilt schedule under one config in C.

    The sweep writes the output's packed block itself (user ids from
    the schedule's ``slot_users``), so only ``task.key`` and
    ``task.horizon`` are read: an extent ref works as well as a
    materialized task.
    """
    profile = PROFILE.enabled
    supplies = schedule.supplies_for(config)
    if profile:
        t0 = perf_counter()
    block, match_s, account_s = _ckernel.sweep(
        schedule, supplies, task.horizon, config.allow_cross_isp_matching, profile
    )
    if profile:
        PROFILE.sweep_seconds += perf_counter() - t0
        PROFILE.match_seconds += match_s
        PROFILE.account_seconds += account_s
        PROFILE.tasks += 1
        PROFILE.compiled_tasks += 1
    return SwarmOutput(task.key, block)
