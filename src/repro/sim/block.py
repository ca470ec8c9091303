"""The packed swarm-output block: one swarm's whole effect as bytes.

A :class:`~repro.sim.kernel.SwarmOutput` is a swarm key plus one block
holding every :class:`~repro.sim.results.SwarmResult` field but the key,
one row per (ISP, day) ledger and one row per user, in the object
kernel's dict insertion order, then a CRC-32 trailer.
docs/BLOCK_FORMAT.md is the normative layout; this module is its python
writer and reader.  The compiled sweep writes the same bytes, and
:class:`~repro.sim.reduce.StreamingReducer` folds them.  Day rows take
their ISP from the key (``"all"`` when it has none).  A ledger's peer
bits are four slots, one per :class:`~repro.topology.layers.\
NetworkLayer`, plus the order its layers were first touched in, which
``hybrid_energy_nj`` sums them in.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.sim.accounting import ByteLedger
from repro.sim.results import SwarmResult, UserTraffic
from repro.topology.layers import NetworkLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.policies import SwarmKey

__all__ = [
    "LAYERS",
    "check_block",
    "ledger_fields",
    "read_block",
    "user_rows",
    "write_block",
]

MAGIC, VERSION = b"SWOB", 1

#: Peer-bit slots, in slot order; the order bytes hold ``layer.value``.
LAYERS = tuple(sorted(NetworkLayer, key=lambda layer: layer.value))

#: magic, version, flags, day rows, user rows, sessions, then a ledger
#: (layer order, pad, server, demanded, watch, 4 peer slots), capacity,
#: arrival rate and mean duration.
HEADER = struct.Struct("<4sHHIIq4B4x3d4d3d")
#: day, then a ledger (layer order, server, demanded, watch, 4 peer slots).
DAY_ROW = struct.Struct("<i4B3d4d")
#: user id, watched bits, uploaded bits.
USER_ROW = struct.Struct("<qdd")


def ledger_fields(ledger: ByteLedger) -> Tuple:
    """Layer order (4 bytes), server, demanded, watch, the 4 peer slots."""
    order = [layer.value for layer in ledger.peer_bits]
    order += [0] * (len(LAYERS) - len(order))
    totals = (ledger.server_bits, ledger.demanded_bits, ledger.watch_seconds)
    return (*order, *totals, *(ledger.peer_bits.get(layer, 0.0) for layer in LAYERS))


def write_block(
    result: SwarmResult,
    per_day: Mapping[int, ByteLedger],
    per_user: Mapping[int, UserTraffic],
) -> bytes:
    """Pack a swarm's result, day ledgers (keyed by day) and user traffic."""
    ledger = result.ledger
    parts = [
        HEADER.pack(
            MAGIC,
            VERSION,
            0,
            len(per_day),
            len(per_user),
            ledger.sessions,
            *ledger_fields(ledger),
            result.capacity,
            result.arrival_rate,
            result.mean_duration,
        )
    ]
    parts += [DAY_ROW.pack(day, *ledger_fields(row)) for day, row in per_day.items()]
    parts += [
        USER_ROW.pack(user_id, traffic.watched_bits, traffic.uploaded_bits)
        for user_id, traffic in per_user.items()
    ]
    body = b"".join(parts)
    return body + zlib.crc32(body).to_bytes(4, "little")


def check_block(block: bytes, index: Optional[int] = None) -> Tuple:
    """Verify a block's framing, CRC-32 and layer orders; return its header.

    Raises:
        ValueError: naming task ``index`` when given.
    """
    problem = "shorter than a header"
    if len(block) >= HEADER.size + 4:
        header = HEADER.unpack_from(block)
        rows = header[3] * DAY_ROW.size + header[4] * USER_ROW.size
        crc = int.from_bytes(block[-4:], "little")
        if header[:3] != (MAGIC, VERSION, 0):
            problem = "bad magic, version or flags"
        elif len(block) != HEADER.size + rows + 4:
            problem = "length disagrees with its rows"
        elif zlib.crc32(memoryview(block)[:-4]) != crc:
            problem = "CRC-32 mismatch"
        elif not _valid_orders(block, header):
            problem = "invalid layer order"
        else:
            return header
    task = "" if index is None else f" of task {index}"
    raise ValueError(f"swarm output block{task} refused: {problem}")


def _valid_orders(block: bytes, header: Tuple) -> bool:
    """Every ledger's order: distinct layer values, then zero padding."""
    for order in [header[6:10], *(row[1:5] for row in _days(block))]:
        used = [value for value in order if value]
        if (
            list(order[: len(used)]) != used
            or len(set(used)) != len(used)
            or max(used, default=0) > len(LAYERS)
        ):
            return False
    return True


def _days(block: bytes):
    end = HEADER.size + int.from_bytes(block[8:12], "little") * DAY_ROW.size
    return DAY_ROW.iter_unpack(memoryview(block)[HEADER.size : end])


def user_rows(block: bytes):
    """Iterate a checked block's ``(user_id, watched, uploaded)`` rows."""
    start = HEADER.size + int.from_bytes(block[8:12], "little") * DAY_ROW.size
    end = start + int.from_bytes(block[12:16], "little") * USER_ROW.size
    return USER_ROW.iter_unpack(memoryview(block)[start:end])


def _ledger(fields, sessions: int = 0) -> ByteLedger:
    """The ledger of :func:`ledger_fields`' layout."""
    order, values = fields[:4], fields[4:]
    return ByteLedger(
        server_bits=values[0],
        peer_bits={LAYERS[slot - 1]: values[2 + slot] for slot in order if slot},
        demanded_bits=values[1],
        watch_seconds=values[2],
        sessions=sessions,
    )


def read_block(
    key: "SwarmKey", block: bytes
) -> Tuple[SwarmResult, Dict[Tuple[str, int], ByteLedger], Dict[int, UserTraffic]]:
    """Decode a block into the swarm result, (ISP, day) ledgers and users."""
    header = check_block(block)
    result = SwarmResult(key, _ledger(header[6:17], header[5]), *header[17:20])
    isp = key.isp if key.isp is not None else "all"
    per_isp_day = {(isp, row[0]): _ledger(row[1:]) for row in _days(block)}
    per_user = {
        user_id: UserTraffic(watched, uploaded)
        for user_id, watched, uploaded in user_rows(block)
    }
    return result, per_isp_day, per_user
