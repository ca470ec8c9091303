"""docs/BLOCK_FORMAT.md round-trips: the spec is sufficient to write.

``write_from_the_doc`` below packs blocks from the layout tables it
parses out of docs/BLOCK_FORMAT.md -- offsets, types and field names --
with plain ``struct`` and ``zlib``.  Its blocks must equal both kernels'
outputs byte for byte: the python writer the object kernel packs its
dicts with, and the compiled sweep's.  If the doc drifts from the code,
these comparisons break.  The rest pins the reducer's refusal of
damaged blocks: a flipped byte or a truncated block raises, naming its
task, and nothing is folded, under the compiled fold and the python
fold alike.
"""

import pickle
import re
import struct
import zlib
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest

from repro.sim import block as block_module
from repro.sim import kernel_columns, reduce
from repro.sim.accounting import ByteLedger
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import SwarmOutput, SwarmTask, run_swarm, run_swarm_object
from repro.sim.policies import SwarmKey
from repro.sim.reduce import StreamingReducer
from repro.sim.results import SwarmResult, UserTraffic
from repro.topology.layers import NetworkLayer
from repro.topology.nodes import intern_attachment
from repro.trace.events import SECONDS_PER_DAY, Session

DOC = Path(__file__).resolve().parents[2] / "docs" / "BLOCK_FORMAT.md"

needs_compiled = pytest.mark.skipif(
    not kernel_columns.HAVE_COMPILED, reason="compiled kernel not built"
)

# ----------------------------------------------------------------------
# The writer, transcribed from the doc's tables (and nothing else)
# ----------------------------------------------------------------------

#: The doc's type names as struct codes.
TYPES = {
    "bytes4": "4s",
    "pad4": "4x",
    "u8": "B",
    "u16": "H",
    "u32": "I",
    "i32": "i",
    "i64": "q",
    "f64": "d",
}


def layout(section):
    """``(size, [(offset, code, field), ...])`` of one doc section."""
    text = DOC.read_text(encoding="utf-8")
    match = re.search(rf"^### {section} — (\d+) bytes", text, re.MULTILINE)
    body = text[match.end() :].split("\n###")[0]
    rows = []
    for line in body.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].isdigit():
            rows.append((int(cells[0]), TYPES[cells[1]], cells[2]))
    return int(match.group(1)), rows


def pack_section(section, values):
    size, rows = layout(section)
    out = bytearray(size)
    for offset, code, field in rows:
        if code != "4x":
            struct.pack_into("<" + code, out, offset, values[field])
    return bytes(out)


def ledger_values(ledger):
    """The doc's per-ledger fields: order bytes, totals, peer slots."""
    order = [layer.value for layer in ledger.peer_bits] + [0, 0, 0, 0]
    values = {f"order{k}": order[k] for k in range(4)}
    values.update(
        server_bits=ledger.server_bits,
        demanded_bits=ledger.demanded_bits,
        watch_seconds=ledger.watch_seconds,
    )
    for layer in NetworkLayer:
        values[f"peer_{layer.name.lower()}"] = ledger.peer_bits.get(layer, 0.0)
    return values


def write_from_the_doc(result, per_day, per_user):
    """A block for a result, day ledgers keyed by day and user traffic."""
    header = ledger_values(result.ledger)
    header.update(
        magic=b"SWOB",
        version=1,
        flags=0,
        day_rows=len(per_day),
        user_rows=len(per_user),
        sessions=result.ledger.sessions,
        capacity=result.capacity,
        arrival_rate=result.arrival_rate,
        mean_duration=result.mean_duration,
    )
    body = pack_section("Header", header)
    for day, ledger in per_day.items():
        body += pack_section("Day rows", {"day": day, **ledger_values(ledger)})
    for user_id, traffic in per_user.items():
        body += pack_section(
            "User rows",
            {
                "user_id": user_id,
                "watched_bits": traffic.watched_bits,
                "uploaded_bits": traffic.uploaded_bits,
            },
        )
    return body + pack_section("Trailer", {"crc32": zlib.crc32(body)})


def rewrite(output):
    """An output's block, decoded and written again from the doc."""
    per_day = {day: ledger for (_, day), ledger in output.per_isp_day.items()}
    return write_from_the_doc(output.result, per_day, output.per_user)


# ----------------------------------------------------------------------
# The doc agrees with both writers
# ----------------------------------------------------------------------


def awkward_output():
    """Awkward floats and non-canonical layer orders in every ledger."""
    key = SwarmKey(content_id="item", isp="ISP-1")
    ledger = ByteLedger(
        server_bits=0.1 + 0.2,
        peer_bits={NetworkLayer.CORE: -0.0, NetworkLayer.EXCHANGE: 5e-324},
        demanded_bits=1e300,
        watch_seconds=3.0,
        sessions=7,
    )
    result = SwarmResult(key, ledger, 1.5, 2.5e-5, 601.25)
    per_day = {
        3: ByteLedger(server_bits=1.0, peer_bits={NetworkLayer.SERVER: 2.0}),
        0: ByteLedger(
            watch_seconds=-0.0,
            peer_bits={
                NetworkLayer.POP: 1.0,
                NetworkLayer.SERVER: 2.0,
                NetworkLayer.CORE: 3.0,
                NetworkLayer.EXCHANGE: 4.0,
            },
        ),
    }
    per_user = {9: UserTraffic(1.0, -0.0), -4: UserTraffic(0.0, 2.0**-1070)}
    return result, per_day, per_user


class TestDocLayout:
    def test_sections_match_the_structs(self):
        sizes = {name: layout(name)[0] for name in ("Header", "Day rows", "User rows")}
        assert sizes == {
            "Header": block_module.HEADER.size,
            "Day rows": block_module.DAY_ROW.size,
            "User rows": block_module.USER_ROW.size,
        }
        assert layout("Trailer")[0] == 4
        for section in ("Header", "Day rows", "User rows"):
            size, rows = layout(section)
            end = max(offset + struct.calcsize("<" + code) for offset, code, _ in rows)
            assert end == size, section

    def test_doc_names_the_version(self):
        assert f"Version: `{block_module.VERSION}`" in DOC.read_text(encoding="utf-8")

    def test_doc_writer_equals_the_python_writer(self):
        result, per_day, per_user = awkward_output()
        expected = write_from_the_doc(result, per_day, per_user)
        assert SwarmOutput.pack(result, per_day, per_user).block == expected

    def test_decoding_round_trips_the_dict_orders(self):
        result, per_day, per_user = awkward_output()
        output = SwarmOutput.pack(result, per_day, per_user)
        assert rewrite(output) == output.block
        assert list(output.result.ledger.peer_bits) == list(result.ledger.peer_bits)
        assert list(output.per_isp_day) == [("ISP-1", 3), ("ISP-1", 0)]
        assert list(output.per_user) == [9, -4]
        assert str(output.per_user[9].uploaded_bits) == "-0.0"


def deterministic_task():
    """200 sessions with colliding users, windows and attachments."""
    attachments = [
        intern_attachment("ISP-1", 0, 0),
        intern_attachment("ISP-1", 1, 3),
        intern_attachment("ISP-2", 1, 5),
    ]
    horizon = 2 * SECONDS_PER_DAY
    sessions = sorted(
        (
            Session(
                session_id=index,
                user_id=(index * 7) % 23,
                content_id="item",
                start=float((index * 977) % int(horizon - 2000)),
                duration=float(1 + (index * 13) % 700),
                bitrate=[800_000.0, 1_500_000.0][index % 2],
                attachment=attachments[index % 3],
            )
            for index in range(200)
        ),
        key=lambda s: (s.start, s.session_id),
    )
    return SwarmTask(
        key=SwarmKey(content_id="item"), sessions=tuple(sessions), horizon=horizon
    )


CONFIGS = [
    SimulationConfig(),
    SimulationConfig(seed_linger_seconds=180.0, participation_rate=0.35),
    SimulationConfig(allow_cross_isp_matching=True, upload_ratio=1.7),
]


class TestKernelsWriteTheDoc:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_object_kernel_block_is_the_doc_block(self, config):
        output = run_swarm_object(deterministic_task(), config)
        assert output.per_isp_day and output.per_user
        assert rewrite(output) == output.block

    @needs_compiled
    @pytest.mark.parametrize("config", CONFIGS)
    def test_compiled_block_is_the_doc_block(self, config):
        task = deterministic_task()
        output = run_swarm(task, config)
        assert output.block == rewrite(output)
        assert output.block == run_swarm_object(task, config).block
        assert zlib.crc32(output.block[:-4]).to_bytes(4, "little") == output.block[-4:]


# ----------------------------------------------------------------------
# Damaged blocks are refused and nothing is folded
# ----------------------------------------------------------------------

FOLDS = [
    pytest.param("compiled", marks=needs_compiled),
    pytest.param("python"),
]


def fold_backend(name):
    """Force the python fold, or leave the compiled one in place."""
    if name == "python":
        return mock.patch.object(reduce, "_CKERNEL", None)
    return nullcontext()


def good_outputs():
    task = deterministic_task()
    return [run_swarm_object(task, config) for config in CONFIGS]


def flipped(output, position):
    raw = bytearray(output.block)
    raw[position] ^= 0x01
    return SwarmOutput(output.key, bytes(raw))


def reducer():
    horizon = 2 * SECONDS_PER_DAY
    return StreamingReducer(delta_tau=10.0, horizon=horizon, upload_ratio=1.0)


def damaged():
    """One good output's block damaged in every section, and cut short."""
    output = good_outputs()[0]
    size = len(output.block)
    days = struct.unpack_from("<I", output.block, 8)[0]
    positions = {
        "magic": 0,
        "header ledger": 40,
        "day row": 112 + 8,
        "user row": 112 + 64 * days + 8,
        "trailer": size - 1,
    }
    cases = {name: flipped(output, at) for name, at in positions.items()}
    cases["truncated"] = SwarmOutput(output.key, output.block[:-24])
    cases["empty"] = SwarmOutput(output.key, b"")
    return cases


class TestRefusal:
    @pytest.mark.parametrize("fold", FOLDS)
    @pytest.mark.parametrize("case", sorted(damaged()))
    def test_damaged_block_is_refused_and_nothing_folded(self, fold, case):
        bad = damaged()[case]
        with fold_backend(fold):
            fresh, subject = reducer(), reducer()
            with pytest.raises(ValueError, match="block of task 0 refused"):
                subject.add(0, [bad])
            assert subject.outputs_folded == 0
            assert pickle.dumps(subject) == pickle.dumps(fresh)
            # The reducer stays usable: a good copy folds normally.
            good = good_outputs()[0]
            subject.add(0, [good])
            fresh.add(0, [good])
            assert subject.result().identical_to(fresh.result())

    @pytest.mark.parametrize("fold", FOLDS)
    def test_one_bad_output_refuses_its_whole_block(self, fold):
        good = good_outputs()
        bad = flipped(good[1], 50)
        with fold_backend(fold):
            fresh, subject = reducer(), reducer()
            with pytest.raises(ValueError, match="block of task 4 refused"):
                subject.add(3, [good[0], bad, good[2]])
            assert pickle.dumps(subject) == pickle.dumps(fresh)

    @pytest.mark.parametrize("fold", FOLDS)
    def test_invalid_layer_order_is_refused_despite_its_crc(self, fold):
        result, per_day, per_user = awkward_output()
        body = bytearray(write_from_the_doc(result, per_day, per_user)[:-4])
        body[25] = body[24]  # the swarm ledger lists one layer twice
        block = bytes(body) + zlib.crc32(body).to_bytes(4, "little")
        with fold_backend(fold):
            subject = reducer()
            with pytest.raises(ValueError, match="invalid layer order"):
                subject.add(0, [SwarmOutput(result.key, block)])
            assert subject.outputs_folded == 0
