"""Incremental streaming reduction of swarm-shard outputs.

Holding every :class:`~repro.sim.kernel.SwarmOutput` in the coordinator
until one final fold would cap trace size well below the paper's
month-of-London scale.  This module folds them with bounded memory
instead:

* :class:`StreamingReducer` folds shard outputs **as they complete**,
  re-ordered back into canonical task order (the order
  :func:`~repro.sim.kernel.build_tasks` produced), so every completion
  order performs the identical float-addition sequence and every
  backend's result is bit-for-bit equal.  Its reorder buffer is the
  *only* place un-folded shards live; with the backends' bounded
  in-flight window it never holds more than ``workers + 1`` blocks.
  It folds each output's packed block (docs/BLOCK_FORMAT.md) into
  columnar running state -- no per-day or per-user python object --
  in C (``_ckernel.fold``) for the compiled build, or in python over
  the same bytes, the reference.
* :class:`FootprintAccumulator` holds the per-user traffic: two floats
  per user in memory, or -- with a ``spill_path`` -- an append-only
  delta log on disk, re-read only when the final result is built.
* :class:`ReductionStats` reports what a run actually did (mode,
  blocks folded, peak resident partials, spill location) so benchmarks
  and tests can assert the memory bound instead of trusting it.

:func:`repro.sim.kernel.merge_outputs`, the in-order reference fold,
is a thin wrapper over :class:`StreamingReducer`, so there is one fold
implementation and it cannot drift.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sim.accounting import ByteLedger
from repro.sim.block import LAYERS, check_block, ledger_fields, read_block, user_rows
from repro.sim.policies import SwarmKey
from repro.sim.profiling import PROFILE
from repro.sim.results import SimulationResult, SwarmResult, UserTraffic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.sim.kernel import SwarmOutput

__all__ = [
    "REDUCTION_MODES",
    "FootprintStats",
    "FootprintAccumulator",
    "StreamingReducer",
    "SweepReducer",
    "ReductionStats",
    "iter_user_deltas",
    "load_user_deltas",
]

#: Selectable reduction modes, the single source of truth consumed by
#: ``SimulationConfig`` validation and the CLI's ``--reduction`` choices.
#:
#: Both fold shard outputs as they complete, with at most ``workers + 1``
#: shard blocks resident:
#:
#: * ``"streaming"`` -- per-user traffic packed into float columns until
#:   the final result is built (the default).
#: * ``"spill"``     -- per-user deltas appended to a disk log instead of
#:   held in memory; the log is re-aggregated only when the final result
#:   is materialized (and is left behind for out-of-core consumers when
#:   ``spill_dir`` is set explicitly).
REDUCTION_MODES: Tuple[str, ...] = ("streaming", "spill")

#: A ledger table of the reducer's state: a dict of first-seen rows, the
#: rows' doubles -- server, demanded, watch, sessions, one slot per peer
#: layer (``LAYERS`` order, 0.0 when absent), then capacity, arrival rate
#: and mean duration for a swarm -- and their layer orders (4 bytes each).
_Table = Tuple[Dict, array, array]
_LEDGER, _SWARM = 8, 11

_CKERNEL: object = False


def _compiled_fold():
    """The compiled extension or None, looked up lazily (import stays light)."""
    global _CKERNEL
    if _CKERNEL is False:
        from repro.sim import kernel_columns

        _CKERNEL = kernel_columns._ckernel
    return _CKERNEL


# ----------------------------------------------------------------------
# Per-user footprint accumulation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FootprintStats:
    """Fixed-size summary of the per-user traffic folded so far.

    Attributes:
        users: distinct users seen (``None`` in spill mode, where the
            accumulator deliberately keeps no per-user index).
        records: per-(shard, user) delta records folded.
        watched_bits: total bits streamed across all users.
        uploaded_bits: total bits uploaded across all users.
    """

    users: Optional[int]
    records: int
    watched_bits: float
    uploaded_bits: float


class FootprintAccumulator:
    """Collapses per-user traffic deltas into compact running state.

    In-memory mode packs each user's (watched, uploaded) totals into one
    ``array('d')`` plus an id->row index: a first delta is copied, later
    ones add.  With ``spill_path`` set, deltas are instead appended to a
    text log (one ``"uid watched uploaded"`` line per user per shard,
    floats serialized with ``repr`` so they round-trip exactly) and only
    fixed-size running totals stay resident.

    Either way, :meth:`materialize` rebuilds the exact per-user dict a
    plain dict fold would have produced: additions happen in the same
    (fold) order, so the result is bit-for-bit identical.
    """

    def __init__(self, spill_path: Optional[Union[str, Path]] = None) -> None:
        self.spill_path: Optional[Path] = (
            Path(spill_path) if spill_path is not None else None
        )
        self._spill_file = None
        self._spill_closed = False
        self._rows: Dict[int, int] = {}
        self._traffic = array("d")
        self._records = 0
        self._watched_total = 0.0
        self._uploaded_total = 0.0

    # -- folding -------------------------------------------------------

    def add(self, per_user: Mapping[int, UserTraffic]) -> None:
        """Fold one shard's per-user deltas (in their iteration order)."""
        self._add_rows(
            (user_id, traffic.watched_bits, traffic.uploaded_bits)
            for user_id, traffic in per_user.items()
        )

    def _add_rows(self, rows: Iterable[Tuple[int, float, float]]) -> None:
        """Fold ``(user_id, watched, uploaded)`` delta rows in order."""
        if self.spill_path is not None:
            spill = self._spill()
            for user_id, watched, uploaded in rows:
                spill.write(f"{user_id} {watched!r} {uploaded!r}\n")
                self._records += 1
                self._watched_total += watched
                self._uploaded_total += uploaded
            return
        index = self._rows
        traffic = self._traffic
        for user_id, watched, uploaded in rows:
            row = index.get(user_id)
            if row is None:
                index[user_id] = len(index)
                traffic.append(watched)
                traffic.append(uploaded)
            else:
                traffic[2 * row] += watched
                traffic[2 * row + 1] += uploaded
            self._records += 1

    def _spill(self):
        if self._spill_closed:
            # Reopening with "w" would truncate the folded records --
            # refuse instead of silently losing data.
            raise RuntimeError(
                f"spill log {self.spill_path} was already closed; "
                "cannot fold further deltas"
            )
        if self._spill_file is None:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            self._spill_file = open(self.spill_path, "w", encoding="ascii")
        return self._spill_file

    # -- reading back ----------------------------------------------------

    @property
    def num_users(self) -> Optional[int]:
        """Distinct users folded so far (``None`` in spill mode)."""
        if self.spill_path is not None:
            return None
        return len(self._rows)

    def stats(self) -> FootprintStats:
        """The fixed-size summary (in memory, totals sum the columns)."""
        watched, uploaded = self._watched_total, self._uploaded_total
        if self.spill_path is None:
            watched, uploaded = sum(self._traffic[0::2]), sum(self._traffic[1::2])
        return FootprintStats(
            users=self.num_users,
            records=self._records,
            watched_bits=watched,
            uploaded_bits=uploaded,
        )

    def materialize(self) -> Dict[int, UserTraffic]:
        """The exact per-user traffic map, as the plain dict fold builds it.

        In-memory mode unpacks the float columns in first-seen order;
        spill mode closes and re-reads the delta log, aggregating
        records in file (= fold) order.  Both reproduce the plain dict
        bit for bit.
        """
        if self.spill_path is not None:
            self.close()
            if not self.spill_path.exists():
                return {}
            return load_user_deltas(self.spill_path)
        values = iter(self._traffic)
        return {
            user_id: UserTraffic(watched, uploaded)
            for user_id, watched, uploaded in zip(self._rows, values, values)
        }

    def close(self) -> None:
        """Flush and close the spill log (no-op in memory mode).

        Once a written log is closed, further :meth:`add` calls raise
        rather than truncate it.
        """
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None
            self._spill_closed = True


def iter_user_deltas(path: Union[str, Path]) -> Iterator[Tuple[int, float, float]]:
    """Stream ``(user_id, watched_bits, uploaded_bits)`` delta records.

    The raw spill-log reader for out-of-core consumers that want to
    process per-user deltas without ever building the full map.
    """
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if not line.strip():
                continue
            user_field, watched_field, uploaded_field = line.split()
            yield int(user_field), float(watched_field), float(uploaded_field)


def load_user_deltas(path: Union[str, Path]) -> Dict[int, UserTraffic]:
    """Aggregate a spill log back into the exact per-user traffic map.

    Records are folded in file order -- the order shards folded in --
    so the map is bit-for-bit the one the in-memory reduction builds.
    """
    per_user: Dict[int, UserTraffic] = {}
    for user_id, watched_bits, uploaded_bits in iter_user_deltas(path):
        delta = UserTraffic(watched_bits=watched_bits, uploaded_bits=uploaded_bits)
        existing = per_user.get(user_id)
        if existing is None:
            per_user[user_id] = delta
        else:  # the shared merge path, so spill replay cannot drift
            existing.merge(delta)
    return per_user


# ----------------------------------------------------------------------
# The incremental reducer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionStats:
    """What one reduction actually did, for benchmarks and assertions.

    Attributes:
        mode: one of :data:`REDUCTION_MODES`.
        outputs: swarm outputs folded.
        blocks: contiguous shard blocks the backend delivered.
        peak_resident: most blocks ever resident (buffered awaiting
            their turn in the fold, including the one being added).
        peak_resident_outputs: most swarm *outputs* ever resident
            across those blocks -- the honest memory unit when blocks
            hold more than one output each (the process backend's
            shards).
        spill_path: where per-user deltas were spilled, if anywhere.
    """

    mode: str
    outputs: int
    blocks: int
    peak_resident: int
    peak_resident_outputs: int = 0
    spill_path: Optional[str] = None


class StreamingReducer:
    """Folds swarm outputs into running columns, in canonical order.

    Blocks of outputs are keyed by the task index of their first output
    (tasks as ordered by :func:`~repro.sim.kernel.build_tasks`).  Each
    output's packed block is verified (framing, CRC-32) on arrival; a
    refused block raises ``ValueError`` naming its task and is neither
    buffered nor folded.  A block arriving out of order is buffered; as
    soon as the next-in-line block is present the fold advances through
    every contiguous buffered block, so any completion order produces
    the in-order result bit for bit.  Per output it replays: per swarm,
    copy the first key's result and :meth:`SwarmResult.combine` a
    duplicate; :meth:`ByteLedger.merge` into the total; per (ISP, day),
    copy a new key's row with its layer order, or merge (new layers
    append); per user, copy a new user's row, or add.

    The state is python-owned (``array`` columns and dicts), so a
    reducer pickles -- which :meth:`snapshot_result` and
    :class:`~repro.sim.service.ServiceCheckpoint` rely on.  With
    :data:`~repro.sim.profiling.PROFILE` enabled, the fold and the final
    result build are charged to its ``reduce`` phase, and outputs folded
    in C are counted in ``compiled_folds``.

    Args:
        delta_tau / horizon / upload_ratio: run parameters stamped on
            the final :class:`~repro.sim.results.SimulationResult`.
        users: the :class:`FootprintAccumulator` receiving per-user
            deltas; ``None`` folds them into a fresh in-memory one.
    """

    def __init__(
        self,
        *,
        delta_tau: float,
        horizon: float,
        upload_ratio: float,
        users: Optional[FootprintAccumulator] = None,
    ) -> None:
        self._delta_tau = delta_tau
        self._horizon = horizon
        self._upload_ratio = upload_ratio
        self._users = users if users is not None else FootprintAccumulator()
        self._total = (None, array("d", bytes(8 * _LEDGER)), array("B", bytes(4)))
        self._swarms: _Table = ({}, array("d"), array("B"))
        self._days: _Table = ({}, array("d"), array("B"))
        self._pending: Dict[int, List["SwarmOutput"]] = {}
        self._next_index = 0
        self._finalized = False
        self._resident_outputs = 0
        self.outputs_folded = 0
        self.blocks_folded = 0
        self.peak_resident = 0
        self.peak_resident_outputs = 0

    def add(self, index: int, outputs: Sequence["SwarmOutput"]) -> None:
        """Accept the block whose first output is task ``index``.

        Blocks may arrive in any order; each is buffered until every
        earlier task has been folded, then folded in task order.

        Raises:
            ValueError: on an empty block, a block already folded, a
                duplicate index, or an output whose packed block fails
                its check (the message names the task).
            RuntimeError: after :meth:`result` has been called.
        """
        if self._finalized:
            raise RuntimeError("cannot add blocks after result() was taken")
        block = list(outputs)
        if not block:
            raise ValueError("blocks must contain at least one output")
        if index < self._next_index or index in self._pending:
            raise ValueError(f"block at task index {index} was already delivered")
        profile = PROFILE.enabled
        if profile:
            t0 = perf_counter()
        compiled = _compiled_fold()
        if compiled is None or compiled.check(block, index) is None:
            for offset, output in enumerate(block):
                check_block(output.block, index + offset)
        self._pending[index] = block
        self._resident_outputs += len(block)
        if len(self._pending) > self.peak_resident:
            self.peak_resident = len(self._pending)
        if self._resident_outputs > self.peak_resident_outputs:
            self.peak_resident_outputs = self._resident_outputs
        while self._next_index in self._pending:
            ready = self._pending.pop(self._next_index)
            self._fold(ready, compiled)
            self._next_index += len(ready)
            self._resident_outputs -= len(ready)
            self.blocks_folded += 1
        if profile:
            PROFILE.reduce_seconds += perf_counter() - t0

    def _fold(self, outputs: List["SwarmOutput"], compiled) -> None:
        """Fold checked outputs in order: in C when built, else python."""
        users = self._users
        spill = users.spill_path is not None
        table = None if spill else (users._rows, users._traffic, None)
        seen = compiled and compiled.fold(
            outputs, self._total, self._swarms, self._days, table
        )
        if seen is None:
            for output in outputs:
                self._fold_python(output)
        elif spill:  # the C fold skipped the user rows: spill them here
            for output in outputs:
                users._add_rows(user_rows(output.block))
        else:
            users._records += seen
        if seen is not None and PROFILE.enabled:
            PROFILE.compiled_folds += len(outputs)
        self.outputs_folded += len(outputs)

    def _fold_python(self, output: "SwarmOutput") -> None:
        """One output's worth of the canonical reduction, in python.

        The semantics reference of ``_ckernel.fold``: decodes the block
        and folds with the ledger and result merges.  Never mutates or
        aliases the output, so re-reducing the same outputs stays
        idempotent.
        """
        result, per_isp_day, per_user = read_block(*output)
        key, swarm = result.key, result
        row = self._swarms[0].get(key)
        if row is not None:  # duplicate key (never from build_tasks)
            swarm = SwarmResult.combine(key, [self._swarm_result(key, row), result])
        dynamics = (swarm.capacity, swarm.arrival_rate, swarm.mean_duration)
        _put(self._swarms, key, row, swarm.ledger, dynamics)
        total = _ledger_at(self._total, 0)
        total.merge(result.ledger)
        _put(self._total, None, 0, total)
        for day_key, ledger in per_isp_day.items():
            row = self._days[0].get(day_key)
            if row is not None:
                day = _ledger_at(self._days, row)
                day.merge(ledger)
                ledger = day
            _put(self._days, day_key, row, ledger)
        self._users.add(per_user)

    def _swarm_result(self, key: SwarmKey, row: int) -> SwarmResult:
        dynamics = self._swarms[1][row * _SWARM + _LEDGER : (row + 1) * _SWARM]
        return SwarmResult(key, _ledger_at(self._swarms, row, _SWARM), *dynamics)

    def advance_horizon(self, horizon: float) -> None:
        """Extend the horizon stamped on the final result (never shrink).

        The always-on service folds epoch after epoch into one
        long-lived reducer; under a rolling per-epoch horizon the
        reducer's stamp must track the furthest epoch folded so far.

        Raises:
            RuntimeError: after :meth:`result` has been called.
        """
        if self._finalized:
            raise RuntimeError("cannot advance horizon after result() was taken")
        self._horizon = max(self._horizon, horizon)

    def snapshot_result(self) -> SimulationResult:
        """The result so far, without finalizing this reducer.

        Built from a pickled deep copy, so the returned result shares
        no state with the live fold and more blocks can keep arriving.
        This is how the service reads its cumulative result between
        epochs -- and why the reducer itself is picklable enough to
        live inside a :class:`~repro.sim.service.ServiceCheckpoint`.

        Raises:
            ValueError: if out-of-order blocks are still buffered.
            RuntimeError: when per-user deltas spill to a log (its
                handle cannot be copied).
        """
        if self._users.spill_path is not None:
            raise RuntimeError("snapshot_result() cannot copy a spill log")
        return pickle.loads(pickle.dumps(self)).result()

    def result(self) -> SimulationResult:
        """Finish the reduction and build the final result.

        The result's dicts are built here, once, in first-seen order.

        Raises:
            ValueError: if out-of-order blocks are still buffered (the
                block at the fold frontier never arrived).
        """
        if self._pending:
            raise ValueError(
                f"block at task index {self._next_index} never arrived; "
                f"{len(self._pending)} later blocks still buffered"
            )
        self._finalized = True
        profile = PROFILE.enabled
        if profile:
            t0 = perf_counter()
        result = SimulationResult(
            total=_ledger_at(self._total, 0),
            per_swarm={
                key: self._swarm_result(key, row)
                for key, row in self._swarms[0].items()
            },
            per_isp_day={
                key: _ledger_at(self._days, row) for key, row in self._days[0].items()
            },
            per_user=self._users.materialize(),
            delta_tau=self._delta_tau,
            horizon=self._horizon,
            upload_ratio=self._upload_ratio,
        )
        if profile:
            PROFILE.reduce_seconds += perf_counter() - t0
        return result

    def stats(self, mode: str) -> ReductionStats:
        """This reduction's :class:`ReductionStats` under ``mode``."""
        spill = self._users.spill_path
        return ReductionStats(
            mode=mode,
            outputs=self.outputs_folded,
            blocks=self.blocks_folded,
            peak_resident=self.peak_resident,
            peak_resident_outputs=self.peak_resident_outputs,
            spill_path=str(spill) if spill is not None else None,
        )


def _ledger_at(table: "_Table", row: int, width: int = _LEDGER) -> ByteLedger:
    """The ledger a state row holds."""
    _, values, orders = table
    base = row * width
    return ByteLedger(
        server_bits=values[base],
        peer_bits={
            LAYERS[slot - 1]: values[base + 3 + slot]
            for slot in orders[row * 4 : row * 4 + 4]
            if slot
        },
        demanded_bits=values[base + 1],
        watch_seconds=values[base + 2],
        sessions=int(values[base + 3]),
    )


def _put(table: "_Table", key, row: Optional[int], ledger, extra=()) -> None:
    """Write a ledger's state row, then ``extra`` doubles; a ``None`` row
    appends one under ``key``."""
    rows, column, orders = table
    fields = ledger_fields(ledger)
    values = array("d", [*fields[4:7], ledger.sessions, *fields[7:], *extra])
    if row is None:
        rows[key] = len(rows)
        column.extend(values)
        orders.extend(fields[:4])
    else:
        column[row * len(values) : (row + 1) * len(values)] = values
        orders[row * 4 : row * 4 + 4] = array("B", fields[:4])


class SweepReducer:
    """Folds a sweep's shard blocks into K results in one pass.

    The reduction half of ``Simulator.run_sweep``: backends deliver
    ``(start_index, [MultiSwarmOutput, ...])`` blocks (each carrying one
    output per sweep config for each task in the block), and this class
    demultiplexes every block into K :class:`StreamingReducer` instances
    -- one per config -- as it arrives.  Each per-config reducer sees
    exactly the ``(index, outputs)`` sequence a single-config run would
    have produced, so every result of :meth:`results` is bit-for-bit the
    result of the corresponding independent run, under any backend,
    completion order or reduction mode.
    """

    def __init__(self, reducers: Sequence[StreamingReducer]) -> None:
        if not reducers:
            raise ValueError("SweepReducer needs at least one per-config reducer")
        self.reducers = list(reducers)

    def add(self, index: int, multi_block: Sequence) -> None:
        """Demultiplex one sweep block into every per-config reducer.

        ``multi_block`` holds one :class:`~repro.sim.kernel.\
MultiSwarmOutput` per task, each with ``outputs`` aligned with the
        sweep's config list.
        """
        for position, reducer in enumerate(self.reducers):
            reducer.add(index, [multi.outputs[position] for multi in multi_block])

    @property
    def outputs_folded(self) -> int:
        """Per-config outputs folded so far (identical across configs)."""
        return self.reducers[0].outputs_folded

    def results(self) -> List[SimulationResult]:
        """Finish every per-config reduction, in config order."""
        return [reducer.result() for reducer in self.reducers]

    def config_stats(self, mode: str) -> List[ReductionStats]:
        """Per-config :class:`ReductionStats`, in config order."""
        return [reducer.stats(mode) for reducer in self.reducers]

    def stats(self, mode: str) -> ReductionStats:
        """Sweep-aggregate stats.

        ``outputs`` and ``blocks`` count fold operations across all
        per-config reducers; ``peak_resident`` is the worst single
        reducer's reorder buffer (the number the ``workers + 1`` bound
        applies to -- every reducer sees the same block sequence, so
        peaks coincide); ``peak_resident_outputs`` sums the per-reducer
        peaks, the honest total of simultaneously buffered outputs.
        ``spill_path`` is the single log when one config spilled, or the
        logs' common directory when several did (the engine creates all
        per-config logs in one spill root), so every persistent log is
        discoverable from the stats.
        """
        per_config = self.config_stats(mode)
        spill_paths = [
            stats.spill_path for stats in per_config if stats.spill_path is not None
        ]
        if not spill_paths:
            spill_path = None
        elif len(spill_paths) == 1:
            spill_path = spill_paths[0]
        else:
            spill_path = str(Path(spill_paths[0]).parent)
        return ReductionStats(
            mode=mode,
            outputs=sum(stats.outputs for stats in per_config),
            blocks=sum(stats.blocks for stats in per_config),
            peak_resident=max(stats.peak_resident for stats in per_config),
            peak_resident_outputs=sum(
                stats.peak_resident_outputs for stats in per_config
            ),
            spill_path=spill_path,
        )
