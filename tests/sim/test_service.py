"""Service mode (repro/sim/service.py): epochs, exactness, resume.

The contract under test: a long-running coordinator over an unbounded
session stream emits one delta per epoch, exactly once, and the merge
of everything emitted (the service's cumulative fold) is **bit for
bit** the batch result over the same finite trace -- including across
SIGKILL-and-restart at every crash window, on serial and distributed
backends.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.policies import PAPER_POLICY, EpochPolicy
from repro.sim.service import (
    EpochResult,
    JsonlSink,
    ServiceCheckpoint,
    ServiceConfig,
    SimulationService,
    result_digest,
    result_from_payload,
    result_to_payload,
    serve_jsonl,
)
from repro.trace.events import SECONDS_PER_DAY, Trace
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.loader import append_jsonl_end, save_jsonl, session_to_record

EPOCH = SECONDS_PER_DAY


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=300, num_items=30, days=3, expected_sessions=1_500, seed=7
    )
    return TraceGenerator(config=config).generate()


@pytest.fixture(scope="module")
def service_config(trace):
    return ServiceConfig(
        simulation=SimulationConfig(),
        epoch_seconds=EPOCH,
        horizon=trace.horizon,
    )


@pytest.fixture(scope="module")
def batch_result(trace, service_config):
    """The reference: one batch run under the epoch-scoped config."""
    return Simulator(service_config.scoped_config).run(trace)


def run_service(config, state_dir, sessions, subscribers=()):
    service = SimulationService(config, state_dir, subscribers=subscribers)
    try:
        service.run(iter(sessions))
        return service, service.result()
    finally:
        service.close()


class TestEpochPolicy:
    def test_scopes_swarm_identity_to_the_epoch(self, trace):
        policy = EpochPolicy(base=PAPER_POLICY, epoch_seconds=EPOCH)
        session = trace.sessions[0]
        key = policy.key_for(session)
        assert key.epoch == int(session.start // EPOCH)
        assert replace(key, epoch=None) == PAPER_POLICY.key_for(session)

    def test_sort_key_is_epoch_major(self, trace):
        """The property batch parity rests on: canonical task order
        under an epoch policy is the concatenation of per-epoch orders."""
        policy = EpochPolicy(base=PAPER_POLICY, epoch_seconds=EPOCH)
        keys = sorted(
            {policy.key_for(s) for s in trace.sessions},
            key=lambda key: key.sort_key(),
        )
        epochs = [key.epoch for key in keys]
        assert epochs == sorted(epochs)
        # Epoch-less (batch) keys sort ahead of every scoped key.
        base = PAPER_POLICY.key_for(trace.sessions[0])
        assert base.sort_key() < keys[0].sort_key()

    def test_epoch_bounds(self):
        policy = EpochPolicy(base=PAPER_POLICY, epoch_seconds=100.0)
        assert policy.epoch_of(0.0) == 0
        assert policy.epoch_of(99.999) == 0
        assert policy.epoch_of(100.0) == 1
        assert policy.epoch_bounds(2) == (200.0, 300.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochPolicy(base=PAPER_POLICY, epoch_seconds=0.0)


class TestServiceConfig:
    def test_scoped_config_wraps_the_policy(self, service_config):
        scoped = service_config.scoped_config
        assert isinstance(scoped.policy, EpochPolicy)
        assert scoped.policy.base == PAPER_POLICY
        assert scoped.policy.epoch_seconds == EPOCH

    def test_rejects_a_prescoped_policy(self):
        scoped = SimulationConfig(
            policy=EpochPolicy(base=PAPER_POLICY, epoch_seconds=EPOCH)
        )
        with pytest.raises(ValueError, match="base"):
            ServiceConfig(simulation=scoped, epoch_seconds=EPOCH)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(epoch_seconds=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(horizon=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(allowed_lateness=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(late_policy="buffer")


class TestBatchParity:
    """The tentpole claim: cumulative == batch, bit for bit."""

    def test_cumulative_result_identical_to_batch(
        self, trace, service_config, batch_result, tmp_path
    ):
        _, cumulative = run_service(service_config, tmp_path, trace.sessions)
        assert cumulative.identical_to(batch_result)

    def test_epochs_are_contiguous_and_cover_the_trace(
        self, trace, service_config, tmp_path
    ):
        events = []
        service, _ = run_service(
            service_config, tmp_path, trace.sessions, subscribers=[events.append]
        )
        assert [e.epoch for e in events] == list(range(len(events)))
        assert sum(e.sessions for e in events) == len(trace)
        assert service.emitted == len(events)
        assert service.late_sessions == 0

    def test_each_delta_is_the_batch_result_over_its_epoch(
        self, trace, service_config, tmp_path
    ):
        events = []
        run_service(
            service_config, tmp_path, trace.sessions, subscribers=[events.append]
        )
        for event in events:
            sub = [
                s for s in trace.sessions if int(s.start // EPOCH) == event.epoch
            ]
            reference = Simulator(service_config.scoped_config).run_stream(
                iter(sub), trace.horizon
            )
            assert event.delta.identical_to(reference)

    def test_empty_epochs_are_emitted_not_skipped(
        self, trace, service_config, tmp_path
    ):
        """A day with no sessions still yields its (empty) delta -- the
        emission sequence must be gap-free for subscribers to trust it."""
        gappy = [s for s in trace.sessions if int(s.start // EPOCH) != 1]
        events = []
        _, cumulative = run_service(
            service_config, tmp_path, gappy, subscribers=[events.append]
        )
        assert [e.epoch for e in events] == list(range(len(events)))
        middle = events[1]
        assert middle.sessions == 0
        assert middle.delta.total.demanded_bits == 0.0
        reference = Simulator(service_config.scoped_config).run(
            Trace.from_sessions(gappy, horizon=trace.horizon)
        )
        assert cumulative.identical_to(reference)

    def test_result_is_a_snapshot_not_a_finalization(
        self, trace, service_config, tmp_path
    ):
        """result() mid-stream must not wedge the cumulative fold."""
        service = SimulationService(service_config, tmp_path)
        try:
            for session in trace.sessions[:800]:
                service.ingest(session)
            partial = service.result()
            assert partial.total.sessions > 0
            for session in trace.sessions[800:]:
                service.ingest(session)
            service.flush()
            final = service.result()
        finally:
            service.close()
        assert final.total.sessions == len(trace)


class TestResultCodec:
    def test_round_trip_is_exact(self, batch_result):
        payload = json.loads(json.dumps(result_to_payload(batch_result)))
        assert result_from_payload(payload).identical_to(batch_result)

    def test_equal_results_serialize_identically(self, batch_result):
        a = json.dumps(result_to_payload(batch_result), sort_keys=True)
        b = json.dumps(result_to_payload(batch_result), sort_keys=True)
        assert a == b

    def test_digest_equals_the_benchmark_digest(self, batch_result, monkeypatch):
        """``result_digest`` streams what perfbench's ``digest`` hashes
        from the whole payload, over several 1,024-row chunks."""
        payload = result_to_payload(batch_result)
        payload["per_user"] += [
            [uid, uid * 0.1, uid / 3.0] for uid in range(10_000, 12_500)
        ]
        result = result_from_payload(payload)
        perfbench = Path(__file__).resolve().parents[2] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        workloads = pytest.importorskip("workloads")
        assert result_digest(result) == workloads.digest(result)
        assert result_digest(batch_result) == workloads.digest(batch_result)

    def test_digest_tells_results_apart(self, batch_result):
        payload = result_to_payload(batch_result)
        payload["per_user"][-1][1] += 1.0
        changed = result_from_payload(payload)
        assert result_digest(changed) != result_digest(batch_result)


class TestJsonlSink:
    def _event(self, batch_result, epoch):
        return EpochResult(
            epoch=epoch,
            epoch_start=epoch * EPOCH,
            epoch_end=(epoch + 1) * EPOCH,
            horizon=3 * EPOCH,
            sessions=batch_result.total.sessions,
            delta=batch_result,
        )

    def test_appends_and_reads_back(self, batch_result, tmp_path):
        sink = JsonlSink(tmp_path / "out.jsonl")
        sink(self._event(batch_result, 0))
        sink(self._event(batch_result, 1))
        records = JsonlSink.read(tmp_path / "out.jsonl")
        assert [r["epoch"] for r in records] == [0, 1]
        assert result_from_payload(records[0]["result"]).identical_to(
            batch_result
        )

    def test_replayed_epochs_are_deduplicated(self, batch_result, tmp_path):
        path = tmp_path / "out.jsonl"
        JsonlSink(path)(self._event(batch_result, 0))
        # A restarted coordinator builds a fresh sink over the same file
        # and replays the epoch it never got to checkpoint.
        resumed = JsonlSink(path)
        assert resumed.last_epoch == 0
        resumed(self._event(batch_result, 0))
        resumed(self._event(batch_result, 1))
        assert [r["epoch"] for r in JsonlSink.read(path)] == [0, 1]

    def test_torn_tail_is_truncated_on_recovery(self, batch_result, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        sink(self._event(batch_result, 0))
        whole = path.read_bytes()
        sink(self._event(batch_result, 1))
        torn = path.read_bytes()[: len(whole) + 40]  # killed mid-append
        path.write_bytes(torn)
        resumed = JsonlSink(path)
        assert resumed.last_epoch == 0  # the torn record does not count
        assert path.read_bytes() == whole  # and is gone from the file
        resumed(self._event(batch_result, 1))
        assert [r["epoch"] for r in JsonlSink.read(path)] == [0, 1]


class TestCrashResume:
    """The kill/restart matrix, driven by in-process crash injection.

    Every window asserts the same two facts: the sink holds each epoch
    exactly once with payloads byte-identical to an uninterrupted run,
    and the restarted service's cumulative result is bit-for-bit the
    batch result.
    """

    @pytest.fixture()
    def reference_sink(self, trace, service_config, tmp_path):
        ref_dir = tmp_path / "reference"
        run_service(
            service_config,
            ref_dir,
            trace.sessions,
            subscribers=[JsonlSink(ref_dir / "out.jsonl")],
        )
        return (ref_dir / "out.jsonl").read_bytes()

    def _crash_at(self, config, state_dir, sessions, bomb_position):
        """Drive a service that 'dies' (raises) at a chosen window;
        returns the stream cursor the checkpoint will resume from."""

        class Bomb(RuntimeError):
            pass

        fired = []

        def bomb(event):
            # Fire on the SECOND epoch, so epoch 0's checkpoint exists
            # and the restart is a genuine mid-stream resume.
            if event.epoch == 1 and not fired:
                fired.append(event.epoch)
                raise Bomb()

        sink = JsonlSink(Path(state_dir) / "out.jsonl")
        subscribers = (
            [bomb, sink] if bomb_position == "before_sink" else [sink, bomb]
        )
        service = SimulationService(config, state_dir, subscribers=subscribers)
        with pytest.raises(Bomb):
            for session in sessions:
                service.ingest(session)
        service.close()
        assert fired, "the crash window was never reached"

    def _resume_and_verify(
        self, trace, config, state_dir, batch_result, reference_sink
    ):
        service = SimulationService(
            config, state_dir, subscribers=[JsonlSink(Path(state_dir) / "out.jsonl")]
        )
        try:
            assert service.resumed
            service.run(iter(trace.sessions[service.cursor :]))
            cumulative = service.result()
        finally:
            service.close()
        assert (Path(state_dir) / "out.jsonl").read_bytes() == reference_sink
        assert cumulative.identical_to(batch_result)

    def test_killed_before_any_checkpoint(
        self, trace, service_config, batch_result, tmp_path, reference_sink
    ):
        """SIGKILL before the first epoch ever closes: nothing on disk
        but ingested state that must be re-derived from the stream."""
        state = tmp_path / "state"
        service = SimulationService(service_config, state)
        for session in trace.sessions[:100]:  # dies before epoch 0 closes
            service.ingest(session)
        assert service.emitted == 0
        service.close()  # drop cold: no flush, no checkpoint ever written
        assert not (state / ServiceCheckpoint.FILENAME).exists()
        resumed = SimulationService(
            service_config, state, subscribers=[JsonlSink(state / "out.jsonl")]
        )
        try:
            assert not resumed.resumed and resumed.cursor == 0
            resumed.run(iter(trace.sessions))
            cumulative = resumed.result()
        finally:
            resumed.close()
        assert (state / "out.jsonl").read_bytes() == reference_sink
        assert cumulative.identical_to(batch_result)

    def test_killed_after_close_before_emission(
        self, trace, service_config, batch_result, tmp_path, reference_sink
    ):
        """Died after the epoch simulated but before the sink append:
        the restart re-simulates and the sink sees the epoch once."""
        state = tmp_path / "state"
        self._crash_at(
            service_config, state, trace.sessions, bomb_position="before_sink"
        )
        self._resume_and_verify(
            trace, service_config, state, batch_result, reference_sink
        )

    def test_killed_after_emission_before_checkpoint(
        self, trace, service_config, batch_result, tmp_path, reference_sink
    ):
        """Died between the durable append and the checkpoint write:
        the restart replays the epoch and the sink deduplicates it."""
        state = tmp_path / "state"
        self._crash_at(
            service_config, state, trace.sessions, bomb_position="after_sink"
        )
        assert JsonlSink.read(state / "out.jsonl")  # emitted pre-crash
        self._resume_and_verify(
            trace, service_config, state, batch_result, reference_sink
        )

    def test_killed_after_checkpoint_mid_next_epoch(
        self, trace, service_config, batch_result, tmp_path, reference_sink
    ):
        """Died with one epoch fully committed and the next one half
        ingested: resume re-reads only from the checkpointed cursor."""
        state = tmp_path / "state"
        service = SimulationService(
            service_config, state, subscribers=[JsonlSink(state / "out.jsonl")]
        )
        for session in trace.sessions[:800]:
            service.ingest(session)
        assert service.emitted >= 1
        service.close()  # dies mid-ingestion of the open epoch
        self._resume_and_verify(
            trace, service_config, state, batch_result, reference_sink
        )

    def test_resume_rejects_a_different_config(
        self, trace, service_config, tmp_path
    ):
        state = tmp_path / "state"
        run_service(service_config, state, trace.sessions)
        other = replace(service_config, epoch_seconds=2 * EPOCH)
        with pytest.raises(ValueError, match="different service config"):
            SimulationService(other, state)
        physics = replace(
            service_config,
            simulation=replace(service_config.simulation, upload_ratio=0.5),
        )
        with pytest.raises(ValueError, match="different service config"):
            SimulationService(physics, state)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"workers": 2},
            {"grouping": "external"},
            {"backend": "process", "workers": 2},
            {"kernel": "object"},
        ],
        ids=["workers", "external-grouping", "process-backend", "object-kernel"],
    )
    def test_resume_under_other_execution_knobs(
        self, trace, service_config, batch_result, tmp_path, knobs
    ):
        """Execution-only fields change speed, never results, so a
        restart may change them and still continue the same fold."""
        state = tmp_path / "state"
        service = SimulationService(service_config, state)
        for session in trace.sessions[:800]:
            service.ingest(session)
        assert service.emitted >= 1
        service.close()
        other = replace(
            service_config,
            simulation=replace(service_config.simulation, **knobs),
        )
        resumed = SimulationService(other, state)
        try:
            assert resumed.resumed
            resumed.run(iter(trace.sessions[resumed.cursor :]))
            cumulative = resumed.result()
        finally:
            resumed.close()
        assert cumulative.identical_to(batch_result)

    def test_corrupt_checkpoint_is_loud(self, tmp_path):
        (tmp_path / ServiceCheckpoint.FILENAME).write_bytes(b"not a pickle")
        with pytest.raises(RuntimeError, match="corrupt service checkpoint"):
            ServiceCheckpoint.load(tmp_path)

    def test_checkpoint_of_another_version_is_refused(
        self, trace, service_config, tmp_path
    ):
        """A reducer pickled in another layout is refused, not resumed."""
        self._crash_at(service_config, tmp_path, trace.sessions, "before_sink")
        checkpoint = ServiceCheckpoint.load(tmp_path)
        assert checkpoint.version == ServiceCheckpoint.version == 2
        replace(checkpoint, version=1).save(tmp_path)
        with pytest.raises(RuntimeError, match="is version 1, not 2"):
            SimulationService(service_config, tmp_path)


def _spawn_serve(feed, state, src_root, horizon, extra=""):
    """A real coordinator process tailing the feed (for SIGKILL tests)."""
    script = (
        "import sys; sys.path.insert(0, {src!r})\n"
        "from repro.sim.engine import SimulationConfig\n"
        "from repro.sim.service import ServiceConfig, serve_jsonl\n"
        "config = ServiceConfig(simulation=SimulationConfig({extra}),\n"
        "    epoch_seconds={epoch!r}, horizon={horizon!r})\n"
        "serve_jsonl({feed!r}, {state!r}, config, poll_interval=0.02,\n"
        "    sink_path={sink!r})\n"
    ).format(
        src=str(src_root),
        extra=extra,
        epoch=EPOCH,
        horizon=horizon,
        feed=str(feed),
        state=str(state),
        sink=str(Path(state) / "out.jsonl"),
    )
    return subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_epochs(sink_path, count, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if sink_path.exists() and len(JsonlSink.read(sink_path)) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"sink never reached {count} epochs")


class TestSigkillConvergence:
    """Real SIGKILL, real restart, same stream: identical emissions."""

    @pytest.fixture()
    def src_root(self):
        import repro

        return Path(repro.__file__).resolve().parent.parent

    def _run_matrix(self, trace, service_config, tmp_path, src_root, extra=""):
        batch = Simulator(service_config.scoped_config).run(trace)
        # Uninterrupted reference over the finite feed.
        feed = tmp_path / "feed.jsonl"
        save_jsonl(trace, feed)
        append_jsonl_end(feed)
        ref_state = tmp_path / "ref-state"
        reference = serve_jsonl(
            feed,
            ref_state,
            service_config,
            sink_path=ref_state / "out.jsonl",
            poll_interval=0.01,
        )
        ref_bytes = (ref_state / "out.jsonl").read_bytes()
        assert reference.result().identical_to(batch)

        # The victim follows a LIVE feed: only the head is written, so
        # the kill lands with epochs emitted and the stream unfinished.
        live = tmp_path / "live.jsonl"
        head = [s for s in trace.sessions if s.start < 1.5 * EPOCH]
        tail = [s for s in trace.sessions if s.start >= 1.5 * EPOCH]
        save_jsonl(Trace.from_sessions(head, horizon=trace.horizon), live)
        state = tmp_path / "state"
        victim = _spawn_serve(live, state, src_root, trace.horizon, extra=extra)
        try:
            _wait_for_epochs(state / "out.jsonl", 1)
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=30)
        # The feed keeps growing while nobody is listening...
        with live.open("a", encoding="utf-8") as handle:
            for session in tail:
                handle.write(json.dumps(session_to_record(session)) + "\n")
        append_jsonl_end(live)
        # ...and the restarted coordinator catches up from its checkpoint.
        survivor = _spawn_serve(live, state, src_root, trace.horizon, extra=extra)
        assert survivor.wait(timeout=120) == 0
        assert (state / "out.jsonl").read_bytes() == ref_bytes
        resumed = SimulationService(service_config, state)
        try:
            assert resumed.result().identical_to(batch)
        finally:
            resumed.close()

    def test_serial_backend(self, trace, service_config, tmp_path, src_root):
        self._run_matrix(trace, service_config, tmp_path, src_root)

    def test_distributed_backend(self, trace, tmp_path, src_root):
        queue_dir = tmp_path / "queue"
        config = ServiceConfig(
            simulation=SimulationConfig(
                backend="distributed", workers=2, queue_dir=str(queue_dir)
            ),
            epoch_seconds=EPOCH,
            horizon=trace.horizon,
        )
        extra = (
            f"backend='distributed', workers=2, queue_dir={str(queue_dir)!r}"
        )
        try:
            self._run_matrix(trace, config, tmp_path, src_root, extra=extra)
        finally:
            # Orphan workers spawned by the SIGKILLed coordinator exit
            # on the STOP file instead of polling forever.
            queue_dir.mkdir(exist_ok=True)
            (queue_dir / "STOP").touch()
            time.sleep(0.3)


class TestLateSessions:
    def test_late_sessions_are_counted_and_dropped(self, trace, tmp_path):
        config = ServiceConfig(
            simulation=SimulationConfig(),
            epoch_seconds=EPOCH,
            horizon=trace.horizon,
        )
        sessions = sorted(trace.sessions, key=lambda s: s.start)
        # A day-0 session arriving after the watermark crossed day 2.
        shuffled = sessions[:-1]
        straggler = sessions[0]
        late_feed = shuffled + [straggler]
        events = []
        service, _ = run_service(
            config, tmp_path, late_feed, subscribers=[events.append]
        )
        assert service.late_sessions == 1
        assert sum(e.sessions for e in events) == len(late_feed) - 1

    def test_late_policy_error_raises(self, trace, tmp_path):
        config = ServiceConfig(
            simulation=SimulationConfig(),
            epoch_seconds=EPOCH,
            horizon=trace.horizon,
            late_policy="error",
        )
        sessions = sorted(trace.sessions, key=lambda s: s.start)
        service = SimulationService(config, tmp_path)
        try:
            with pytest.raises(RuntimeError, match="arrived for epoch"):
                for session in sessions + [sessions[0]]:
                    service.ingest(session)
        finally:
            service.close()

    def test_allowed_lateness_holds_the_epoch_open(self, trace, tmp_path):
        config = ServiceConfig(
            simulation=SimulationConfig(),
            epoch_seconds=EPOCH,
            horizon=trace.horizon,
            allowed_lateness=EPOCH,  # a full epoch of slack
        )
        sessions = sorted(trace.sessions, key=lambda s: s.start)
        service = SimulationService(config, tmp_path)
        try:
            for session in sessions:
                service.ingest(session)
            # Watermark is in the last epoch; with a full epoch of
            # lateness the previous epoch must still be open.
            last = int(sessions[-1].start // EPOCH)
            assert last - 1 in service.open_epochs
            service.flush()
            assert service.late_sessions == 0
        finally:
            service.close()


class TestRollingHorizon:
    def test_each_delta_matches_batch_at_its_own_horizon(
        self, trace, tmp_path
    ):
        """horizon=None: unbounded operation; every delta still equals
        the batch result over its epoch at the rolling horizon."""
        config = ServiceConfig(simulation=SimulationConfig(), epoch_seconds=EPOCH)
        events = []
        run_service(config, tmp_path, trace.sessions, subscribers=[events.append])
        assert events
        for event in events:
            sub = [
                s for s in trace.sessions if int(s.start // EPOCH) == event.epoch
            ]
            expected = max(
                (event.epoch + 1) * EPOCH, max(s.end for s in sub)
            )
            assert event.horizon == expected
            reference = Simulator(config.scoped_config).run_stream(
                iter(sub), event.horizon
            )
            assert event.delta.identical_to(reference)


class TestExperimentSettingsIntegration:
    def test_service_config_helper(self):
        from repro.experiments.config import ExperimentSettings

        settings = ExperimentSettings.quick()
        config = settings.service_config(epoch_seconds=2 * EPOCH)
        assert config.epoch_seconds == 2 * EPOCH
        assert config.horizon == settings.days * SECONDS_PER_DAY
        assert config.simulation == settings.simulation_config()
