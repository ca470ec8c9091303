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
generator reads :data:`_ckernel` from here for its draw replay too.  The schedule
builders exist in python as well as in C: the C builders decline
lingering seeds (participation is a python hash), and the python-built
schedule then runs on the same C sweep.

Random (non-locality-aware) matching has no columnar form, so those
configs stay on the object kernel -- the dispatch rule routes them
there.
"""

from __future__ import annotations

import math
import os
from array import array
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.accounting import ByteLedger
from repro.sim.kernel import (
    _ADD,
    _DEMOTE,
    _REMOVE,
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
    from repro.trace.store import SessionColumns

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
    """One swarm's sessions packed into parallel scalar columns.

    Built once per ``(task, schedule signature)`` -- the schedule the
    object kernel's ``_build_events`` would build -- and reused across
    every sweep config with that signature: the event timeline and the
    demand/identity/geometry columns depend only on ``(delta_tau,
    seed_linger_seconds, participation)``, while per-config supplies
    are derived on demand via :meth:`supplies_for`.

    Geometry is stored as dense per-swarm codes with the same equality
    structure as the object matcher's scope keys: ``ex_code`` equal iff
    ``(isp, exchange)`` equal, ``pop_code`` iff ``(isp, pop)``,
    ``isp_code`` iff ``isp`` -- which is all the C matcher needs to form
    :func:`~repro.sim.matching.match_window`'s scopes.  Events
    are packed into single sorted integers ``(window << 34) | (kind <<
    32) | session_index``: the bit layout makes integer order equal
    ``(window, kind, session_index)`` lexicographic order, and within a
    ``(window, kind)`` tie the session index reproduces the object
    kernel's creation-order tie-break, because each session contributes
    at most one event per kind and creation order is session order.
    (Python integers never overflow the encoding; only the C sweep
    needs ``window < 2**29`` to fit int64, and :func:`run_from_schedule`
    runs a wider schedule's task on the object kernel.)
    """

    __slots__ = (
        "n",
        "dtau",
        "windows_per_day",
        "num_days",
        "mean_duration",
        "demand",
        "bitrates",
        "user_ids",
        "member_ids",
        "user_slot",
        "slot_users",
        "num_users",
        "ex_code",
        "pop_code",
        "isp_code",
        "num_ex",
        "num_pop",
        "num_isp",
        "ev_enc",
        "native",
        "bcode",
        "distinct_bitrates",
        "_packed",
    )

    def __init__(self, task: SwarmTask, config: "SimulationConfig") -> None:
        sessions = task.sessions
        dtau = config.delta_tau
        n = len(sessions)
        self.n = n
        self.dtau = dtau
        self.windows_per_day = int(SECONDS_PER_DAY // dtau)

        # Native fast path: the C module builds the packed columns
        # straight from the Session slots (no-linger case only -- seed
        # lingering needs config.participates per user, which stays in
        # python).  It returns None to decline, and this python builder
        # takes over; results are identical either way.
        if _ckernel is not None and n > 0 and config.seed_linger_seconds <= 0.0:
            built = _ckernel.build(sessions, dtau)
            if built is not None:
                self._adopt_native(built)
                return
        self.native = False
        self.bcode = None
        self.distinct_bitrates = None

        demand: List[float] = []
        bitrates: List[float] = []
        user_ids: List[int] = []
        member_ids: List[int] = []
        user_slot: List[int] = []
        ex_code: List[int] = []
        pop_code: List[int] = []
        isp_code: List[int] = []
        slot_users: List[int] = []
        slot_of: Dict[int, int] = {}
        ex_of: Dict[Tuple[object, object], int] = {}
        pop_of: Dict[Tuple[object, object], int] = {}
        isp_of: Dict[object, int] = {}
        # One id-keyed cache resolves all three scope codes per session
        # without hashing the attachment dataclass.  Keying by identity
        # is sound because every attachment in this task stays alive
        # (referenced by its session) for the whole loop, and correct
        # even for equal-but-distinct attachment objects because the
        # canonical tuple-keyed dicts above stay the source of truth
        # (two attachments sharing an (isp, exchange) share the ex
        # code); ``Session.isp`` is ``attachment.isp``, so identity
        # determines all three scope keys.
        codes_of: Dict[int, Tuple[int, int, int]] = {}

        demand_append = demand.append
        bitrates_append = bitrates.append
        uid_append = user_ids.append
        mid_append = member_ids.append
        slot_append = user_slot.append
        ex_append = ex_code.append
        pop_append = pop_code.append
        isp_append = isp_code.append

        linger = config.seed_linger_seconds
        lingering = linger > 0.0
        part_cache: Dict[int, bool] = {}
        events: List[int] = []
        ev_append = events.append
        ceil = math.ceil
        identity = id
        add_tag = _ADD << 32
        demote_tag = _DEMOTE << 32
        remove_tag = _REMOVE << 32
        duration_total = 0

        idx = 0
        for session in sessions:
            # The object kernel's exact window expressions: float
            # floordiv and ceil-divide must not be "simplified" -- the
            # window grid is part of the bit-for-bit contract.
            # ``Session.end`` is ``start + duration``, inlined here.
            duration = session.duration
            duration_total += duration
            start = session.start
            end = start + duration
            w_start = int(start // dtau)
            w_end = int(ceil(end / dtau))
            if w_end <= w_start:
                w_end = w_start + 1
            ev_append((w_start << 34) | add_tag | idx)
            uid = session.user_id
            if lingering:
                lingers = part_cache.get(uid)
                if lingers is None:
                    lingers = part_cache[uid] = config.participates(uid)
                if lingers:
                    w_linger = int(ceil((end + linger) / dtau))
                    if w_linger > w_end:
                        ev_append((w_end << 34) | demote_tag | idx)
                        ev_append((w_linger << 34) | remove_tag | idx)
                    else:
                        ev_append((w_end << 34) | remove_tag | idx)
                else:
                    ev_append((w_end << 34) | remove_tag | idx)
            else:
                ev_append((w_end << 34) | remove_tag | idx)

            bitrate = session.bitrate
            demand_append(bitrate * dtau)
            bitrates_append(bitrate)
            uid_append(uid)
            mid_append(session.session_id)
            slot = slot_of.get(uid)
            if slot is None:
                slot = slot_of[uid] = len(slot_users)
                slot_users.append(uid)
            slot_append(slot)
            attachment = session.attachment
            att_key = identity(attachment)
            codes = codes_of.get(att_key)
            if codes is None:
                isp = attachment.isp
                key_ex = (isp, attachment.exchange)
                code_ex = ex_of.get(key_ex)
                if code_ex is None:
                    code_ex = ex_of[key_ex] = len(ex_of)
                key_pop = (isp, attachment.pop)
                code_pop = pop_of.get(key_pop)
                if code_pop is None:
                    code_pop = pop_of[key_pop] = len(pop_of)
                code_isp = isp_of.get(isp)
                if code_isp is None:
                    code_isp = isp_of[isp] = len(isp_of)
                codes = codes_of[att_key] = (code_ex, code_pop, code_isp)
            ex_append(codes[0])
            pop_append(codes[1])
            isp_append(codes[2])
            idx += 1

        events.sort()
        # Replays ``sum(s.duration for s in sessions) / len(sessions)``:
        # same left-to-right float additions from the same int 0 start.
        self.mean_duration = duration_total / n if n else 0.0
        self.demand = demand
        self.bitrates = bitrates
        self.user_ids = user_ids
        self.member_ids = member_ids
        self.user_slot = user_slot
        self.slot_users = slot_users
        self.num_users = len(slot_users)
        self.ex_code = ex_code
        self.pop_code = pop_code
        self.isp_code = isp_code
        self.num_ex = len(ex_of)
        self.num_pop = len(pop_of)
        self.num_isp = len(isp_of)
        self.ev_enc = events
        max_window = events[-1] >> 34 if events else 0
        self.num_days = (
            (max_window - 1) // self.windows_per_day + 1 if max_window > 0 else 0
        )
        self._packed: Optional[Tuple[array, ...]] = None

    def _adopt_native(self, built: Tuple) -> None:
        """Take ownership of a compiled builder's 16-tuple (``build`` or
        ``decode_build`` -- both return the same shape).  Requires ``n``,
        ``dtau`` and ``windows_per_day`` to be set already."""
        (
            demand_b,
            uid_b,
            mid_b,
            slot_b,
            ex_b,
            pop_b,
            isp_b,
            ev_b,
            bcode_b,
            distinct_bitrates,
            slot_users,
            num_ex,
            num_pop,
            num_isp,
            mean_duration,
            max_window,
        ) = built
        self.native = True
        self._packed = (
            demand_b,
            uid_b,
            mid_b,
            slot_b,
            ex_b,
            pop_b,
            isp_b,
            ev_b,
        )
        self.bcode = bcode_b
        self.distinct_bitrates = distinct_bitrates
        self.slot_users = slot_users
        self.num_users = len(slot_users)
        self.num_ex = num_ex
        self.num_pop = num_pop
        self.num_isp = num_isp
        self.mean_duration = mean_duration
        self.num_days = (
            (max_window - 1) // self.windows_per_day + 1 if max_window > 0 else 0
        )
        # List-form columns exist only on the python-built path
        # (packed() serves a native schedule's buffers directly).
        self.demand = None
        self.bitrates = None
        self.user_ids = None
        self.member_ids = None
        self.user_slot = None
        self.ex_code = None
        self.pop_code = None
        self.isp_code = None
        self.ev_enc = None

    @classmethod
    def from_native(cls, built: Tuple, n: int, dtau: float) -> "ColumnSchedule":
        """Wrap a fused ``decode_build`` result (zero-object fast path)."""
        self = cls.__new__(cls)
        self.n = n
        self.dtau = dtau
        self.windows_per_day = int(SECONDS_PER_DAY // dtau)
        self._adopt_native(built)
        return self

    @classmethod
    def from_columns(
        cls, columns: "SessionColumns", config: "SimulationConfig"
    ) -> "ColumnSchedule":
        """Build a schedule straight from decoded extent columns.

        The zero-object counterpart of the ``__init__`` python builder:
        the same arithmetic over the same float values in the same order
        (stored doubles round-trip losslessly), so the packed columns
        are byte-identical.  Scope identities stay the store file's
        integer refs -- ``(isp_ref, exchange)`` / ``(isp_ref, pop)`` /
        ``isp_ref`` keys in place of the string-keyed dicts -- which
        assign the same dense first-encounter codes because the store's
        interned string table is bijective within one file.  Strings are
        never interned here; accounting boundaries carry the swarm key's
        ISP, not per-session strings.
        """
        self = cls.__new__(cls)
        dtau = config.delta_tau
        n = columns.count
        self.n = n
        self.dtau = dtau
        self.windows_per_day = int(SECONDS_PER_DAY // dtau)
        self.native = False
        self.bcode = None
        self.distinct_bitrates = None

        demand: List[float] = []
        bitrates: List[float] = []
        user_ids: List[int] = []
        member_ids: List[int] = []
        user_slot: List[int] = []
        ex_code: List[int] = []
        pop_code: List[int] = []
        isp_code: List[int] = []
        slot_users: List[int] = []
        slot_of: Dict[int, int] = {}
        ex_of: Dict[Tuple[int, int], int] = {}
        pop_of: Dict[Tuple[int, int], int] = {}
        isp_of: Dict[int, int] = {}

        demand_append = demand.append
        bitrates_append = bitrates.append
        uid_append = user_ids.append
        mid_append = member_ids.append
        slot_append = user_slot.append
        ex_append = ex_code.append
        pop_append = pop_code.append
        isp_append = isp_code.append

        linger = config.seed_linger_seconds
        lingering = linger > 0.0
        part_cache: Dict[int, bool] = {}
        events: List[int] = []
        ev_append = events.append
        ceil = math.ceil
        add_tag = _ADD << 32
        demote_tag = _DEMOTE << 32
        remove_tag = _REMOVE << 32
        duration_total = 0

        col_starts = columns.starts
        col_durations = columns.durations
        col_bitrates = columns.bitrates
        col_uids = columns.user_ids
        col_sids = columns.session_ids
        col_isp_refs = columns.isp_refs
        col_pops = columns.pops
        col_exchanges = columns.exchanges

        for idx in range(n):
            # The object kernel's exact window expressions over the same
            # stored doubles -- part of the bit-for-bit contract.
            duration = col_durations[idx]
            duration_total += duration
            start = col_starts[idx]
            end = start + duration
            w_start = int(start // dtau)
            w_end = int(ceil(end / dtau))
            if w_end <= w_start:
                w_end = w_start + 1
            ev_append((w_start << 34) | add_tag | idx)
            uid = col_uids[idx]
            if lingering:
                lingers = part_cache.get(uid)
                if lingers is None:
                    lingers = part_cache[uid] = config.participates(uid)
                if lingers:
                    w_linger = int(ceil((end + linger) / dtau))
                    if w_linger > w_end:
                        ev_append((w_end << 34) | demote_tag | idx)
                        ev_append((w_linger << 34) | remove_tag | idx)
                    else:
                        ev_append((w_end << 34) | remove_tag | idx)
                else:
                    ev_append((w_end << 34) | remove_tag | idx)
            else:
                ev_append((w_end << 34) | remove_tag | idx)

            bitrate = col_bitrates[idx]
            demand_append(bitrate * dtau)
            bitrates_append(bitrate)
            uid_append(uid)
            mid_append(col_sids[idx])
            slot = slot_of.get(uid)
            if slot is None:
                slot = slot_of[uid] = len(slot_users)
                slot_users.append(uid)
            slot_append(slot)
            isp_ref = col_isp_refs[idx]
            key_ex = (isp_ref, col_exchanges[idx])
            code_ex = ex_of.get(key_ex)
            if code_ex is None:
                code_ex = ex_of[key_ex] = len(ex_of)
            key_pop = (isp_ref, col_pops[idx])
            code_pop = pop_of.get(key_pop)
            if code_pop is None:
                code_pop = pop_of[key_pop] = len(pop_of)
            code_isp = isp_of.get(isp_ref)
            if code_isp is None:
                code_isp = isp_of[isp_ref] = len(isp_of)
            ex_append(code_ex)
            pop_append(code_pop)
            isp_append(code_isp)

        events.sort()
        # Same left-to-right float additions from the same int 0 start
        # as the object-path builder (and the object kernel's mean).
        self.mean_duration = duration_total / n if n else 0.0
        self.demand = demand
        self.bitrates = bitrates
        self.user_ids = user_ids
        self.member_ids = member_ids
        self.user_slot = user_slot
        self.slot_users = slot_users
        self.num_users = len(slot_users)
        self.ex_code = ex_code
        self.pop_code = pop_code
        self.isp_code = isp_code
        self.num_ex = len(ex_of)
        self.num_pop = len(pop_of)
        self.num_isp = len(isp_of)
        self.ev_enc = events
        max_window = events[-1] >> 34 if events else 0
        self.num_days = (
            (max_window - 1) // self.windows_per_day + 1 if max_window > 0 else 0
        )
        self._packed = None
        return self

    def supplies_for(self, config: "SimulationConfig") -> "List[float] | bytes":
        """Per-session supply column (bits/window) under one config.

        Replays the object kernel's expression ``upload_rate_for(
        bitrate) * dtau`` for participants and ``0.0`` otherwise;
        participation resolves once per user and rates once per
        distinct bitrate, so the column costs O(n) dict hits -- or, on
        a native-built schedule, O(distinct) python calls plus a C map
        returning the packed f64 buffer directly.
        """
        dtau = self.dtau
        if self.native:
            rates = array(
                "d",
                [
                    config.upload_rate_for(bitrate) * dtau
                    for bitrate in self.distinct_bitrates
                ],
            )
            _, _, _, slot_b, _, _, _, _ = self._packed
            if config.participation_rate >= 1.0:
                part = None
            else:
                part = bytes(
                    bytearray(
                        1 if config.participates(uid) else 0
                        for uid in self.slot_users
                    )
                )
            return _ckernel.supplies(self.n, self.bcode, rates, slot_b, part)
        bitrates = self.bitrates
        rate_of: Dict[float, float] = {}
        if config.participation_rate >= 1.0:
            out = []
            for bitrate in bitrates:
                supply = rate_of.get(bitrate)
                if supply is None:
                    supply = rate_of[bitrate] = config.upload_rate_for(bitrate) * dtau
                out.append(supply)
            return out
        user_slot = self.user_slot
        user_ids = self.user_ids
        part_of: Dict[int, bool] = {}
        out = []
        for index in range(self.n):
            slot = user_slot[index]
            participates = part_of.get(slot)
            if participates is None:
                participates = part_of[slot] = config.participates(user_ids[index])
            if participates:
                bitrate = bitrates[index]
                supply = rate_of.get(bitrate)
                if supply is None:
                    supply = rate_of[bitrate] = config.upload_rate_for(bitrate) * dtau
                out.append(supply)
            else:
                out.append(0.0)
        return out

    def packed(self) -> Tuple[array, ...]:
        """The columns as typed buffers for the compiled sweep (cached)."""
        packed = self._packed
        if packed is None:
            packed = self._packed = (
                array("d", self.demand),
                array("q", self.user_ids),
                array("q", self.member_ids),
                array("i", self.user_slot),
                array("i", self.ex_code),
                array("i", self.pop_code),
                array("i", self.isp_code),
                array("q", self.ev_enc),
            )
        return packed


def schedule_from_ref(
    ref: "SwarmTask | ExtentTaskRef", config: "SimulationConfig"
) -> ColumnSchedule:
    """Build the :class:`ColumnSchedule` of one task ref.

    A resident :class:`SwarmTask` packs its ``Session`` objects
    (``ColumnSchedule(task, config)``, the ``schedule build`` profile
    phase).  An extent ref takes the zero-object ingest path: the
    extent's raw bytes (or typed columns) come directly off the store
    file and Session objects are never created.  Its three tiers are
    bit-for-bit identical:

    1. **Fused** (compiled, no lingering): one ``_ckernel.decode_build``
       pass over the raw 56 B records decodes *and* builds the packed
       schedule.  Charged to the ``decode`` profile phase and counted in
       ``fused_tasks``.
    2. **Columns** (the C builder declined or is absent): batched
       ``struct.iter_unpack`` into typed arrays (``decode`` phase), then
       :meth:`ColumnSchedule.from_columns` (``schedule build`` phase).
    3. Lingering configs always take tier 2 -- ``config.participates``
       stays in python, same as the object-path builder.
    """
    profile = PROFILE.enabled
    if isinstance(ref, SwarmTask):
        if profile:
            t0 = perf_counter()
        schedule = ColumnSchedule(ref, config)
        if profile:
            PROFILE.schedule_seconds += perf_counter() - t0
        return schedule
    count = ref.num_sessions
    if _ckernel is not None and count > 0 and config.seed_linger_seconds <= 0.0:
        if profile:
            t0 = perf_counter()
        built = _ckernel.decode_build(ref.read_raw(), count, config.delta_tau)
        if built is not None:
            schedule = ColumnSchedule.from_native(built, count, config.delta_tau)
            if profile:
                PROFILE.decode_seconds += perf_counter() - t0
                PROFILE.fused_tasks += 1
            return schedule
        if profile:
            PROFILE.decode_seconds += perf_counter() - t0
    if profile:
        t0 = perf_counter()
    columns = ref.read_columns()
    if profile:
        t1 = perf_counter()
        PROFILE.decode_seconds += t1 - t0
    schedule = ColumnSchedule.from_columns(columns, config)
    if profile:
        PROFILE.schedule_seconds += perf_counter() - t1
    return schedule


def run_ref_columnar(
    ref: "SwarmTask | ExtentTaskRef", config: "SimulationConfig"
) -> SwarmOutput:
    """Columnar run of one task ref; zero-object for an extent ref.

    An extent ref carries ``key`` and ``horizon``, which is all
    :func:`run_from_schedule` needs from a task -- its sessions only
    ever exist as columns.
    """
    return run_from_schedule(ref, config, schedule_from_ref(ref, config))


def run_from_schedule(
    task: "SwarmTask | ExtentTaskRef",
    config: "SimulationConfig",
    schedule: ColumnSchedule,
) -> SwarmOutput:
    """Sweep a prebuilt schedule under one config in C and materialize.

    ``task`` may be a :class:`SwarmTask` or an extent ref -- only its
    ``key`` and ``horizon`` are read (see :func:`_materialize`).  The C
    sweep takes events packed into int64, so a python-built schedule
    with a window at or past ``2**29`` (or no sessions at all) declines:
    the task then runs on :func:`~repro.sim.kernel.run_swarm_object`,
    as it does in a process without the compiled module.  Results are
    identical either way; the object kernel counts a declined task in
    the profile's ``tasks`` (not in ``compiled_tasks``).
    """
    if _ckernel is None or not (
        schedule.native or (schedule.n > 0 and schedule.ev_enc[-1] < (1 << 63))
    ):
        return run_swarm_object(resolve_task(task), config)
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
    supplies: List[float],
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
    ) = schedule.packed()
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
        supplies if type(supplies) is bytes else array("d", supplies),
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
