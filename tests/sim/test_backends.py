"""Backend equivalence: every backend is bit-for-bit the serial run.

The runtime's core guarantee (see repro/sim/backends.py): swarm tasks
are canonically ordered, kernels are pure, and outputs fold in task
order -- so the process pool and the distributed queue must reproduce
the serial baseline *exactly* (float equality, not approx), across
policies, participation rates and the lingering-seed extension.
"""

import os
import signal
import threading
import time

import pytest

from repro.sim import SimulationConfig, Simulator, simulate
from repro.sim.backends import (
    DistributedBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.sim.grouping import ExternalGrouping
from repro.sim.kernel import build_tasks, merge_outputs, run_swarm, run_swarm_object
from repro.sim.policies import SwarmPolicy
from repro.sim.queue import WorkQueue
from repro.sim.worker import run_worker
from repro.trace.generator import GeneratorConfig, TraceGenerator


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=300, num_items=25, days=2, expected_sessions=2_500, seed=42
    )
    return TraceGenerator(config=config).generate()


def assert_identical(a, b):
    """Exact equality at every accounting level of two results.

    Field-by-field asserts first (readable failures), then the
    canonical catch-all ``identical_to`` so fields added later are
    still compared.
    """
    assert a.total.server_bits == b.total.server_bits
    assert a.total.demanded_bits == b.total.demanded_bits
    assert a.total.peer_bits == b.total.peer_bits
    assert a.total.watch_seconds == b.total.watch_seconds
    assert a.total.sessions == b.total.sessions
    assert list(a.per_swarm.keys()) == list(b.per_swarm.keys())
    for key, swarm in a.per_swarm.items():
        other = b.per_swarm[key]
        assert swarm.ledger.server_bits == other.ledger.server_bits
        assert swarm.ledger.peer_bits == other.ledger.peer_bits
        assert swarm.capacity == other.capacity
    assert a.per_isp_day.keys() == b.per_isp_day.keys()
    for key, ledger in a.per_isp_day.items():
        assert ledger.server_bits == b.per_isp_day[key].server_bits
        assert ledger.demanded_bits == b.per_isp_day[key].demanded_bits
        assert ledger.peer_bits == b.per_isp_day[key].peer_bits
    assert a.per_user.keys() == b.per_user.keys()
    for uid, traffic in a.per_user.items():
        assert traffic.watched_bits == b.per_user[uid].watched_bits
        assert traffic.uploaded_bits == b.per_user[uid].uploaded_bits
    assert a.identical_to(b)


#: One config per axis the kernel branches on.
CONFIGS = {
    "paper-default": SimulationConfig(),
    "upload-ratio": SimulationConfig(upload_ratio=0.4),
    "cross-isp-swarms": SimulationConfig(policy=SwarmPolicy(split_by_isp=False)),
    "mixed-bitrates": SimulationConfig(policy=SwarmPolicy(split_by_bitrate=False)),
    "participation": SimulationConfig(participation_rate=0.35),
    "lingering-seeds": SimulationConfig(seed_linger_seconds=120.0),
    "random-matching": SimulationConfig(locality_aware_matching=False),
    "cross-isp-matching": SimulationConfig(
        policy=SwarmPolicy(split_by_isp=False), allow_cross_isp_matching=True
    ),
}


def reference_fold(trace, config):
    """The in-order reference: ``merge_outputs`` over object-kernel outputs.

    Shares neither the engine nor the ``FootprintAccumulator`` with any
    backend x reduction x grouping cell it is compared against.
    """
    outputs = [
        run_swarm_object(task, config)
        for task in build_tasks(trace, trace.horizon, config.policy)
    ]
    return merge_outputs(
        outputs,
        delta_tau=config.delta_tau,
        horizon=trace.horizon,
        upload_ratio=config.upload_ratio,
    )


def collect_outputs(backend, tasks, config):
    """Every output of ``backend.iter_outputs``, restored to task order."""
    blocks = sorted(backend.iter_outputs(tasks, config), key=lambda b: b[0])
    return [output for _, block in blocks for output in block]


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_process_backend_identical_to_serial(self, trace, name):
        config = CONFIGS[name]
        serial = Simulator(config, backend=SerialBackend()).run(trace)
        # min_sessions=0 forces real worker processes even on this
        # small trace (the default would fall back inline).
        pooled = Simulator(
            config, backend=ProcessPoolBackend(2, min_sessions=0)
        ).run(trace)
        assert_identical(serial, pooled)

    def test_workers_flag_identical_to_serial(self, trace):
        serial = simulate(trace)
        parallel = simulate(trace, SimulationConfig(workers=4))
        assert_identical(serial, parallel)

    def test_result_independent_of_session_order(self, trace):
        """Canonical sharding: a shuffled stream gives the same result."""
        serial = simulate(trace)
        reversed_stream = Simulator(SimulationConfig()).run_stream(
            reversed(trace.sessions), trace.horizon
        )
        assert_identical(serial, reversed_stream)


class TestRunStream:
    def test_stream_matches_materialized_run(self, trace):
        config = SimulationConfig()
        from_trace = Simulator(config).run(trace)
        from_stream = Simulator(config).run_stream(iter(trace), trace.horizon)
        assert_identical(from_trace, from_stream)

    def test_generator_stream_matches_generated_trace(self):
        gen = TraceGenerator(
            config=GeneratorConfig(
                num_users=150, num_items=12, days=1, expected_sessions=800, seed=9
            )
        )
        trace = gen.generate()
        result = Simulator(SimulationConfig()).run_stream(
            gen.iter_sessions(), gen.config.horizon
        )
        assert_identical(simulate(trace), result)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            Simulator().run_stream(iter([]), 0.0)

    def test_rejects_sessions_past_horizon(self, trace):
        with pytest.raises(ValueError):
            Simulator().run_stream(iter(trace), trace.horizon / 4)


class TestKernelContracts:
    def test_tasks_canonically_ordered(self, trace):
        config = SimulationConfig()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        keys = [t.key.sort_key() for t in tasks]
        assert keys == sorted(keys)
        for task in tasks:
            order = [(s.start, s.session_id) for s in task.sessions]
            assert order == sorted(order)

    def test_kernel_is_pure(self, trace):
        config = SimulationConfig()
        task = build_tasks(trace, trace.horizon, config.policy)[0]
        first = run_swarm(task, config)
        second = run_swarm(task, config)
        assert first.result.ledger.server_bits == second.result.ledger.server_bits
        assert first.per_isp_day.keys() == second.per_isp_day.keys()
        assert first.per_user.keys() == second.per_user.keys()

    def test_tasks_and_outputs_pickle(self, trace):
        import pickle

        config = SimulationConfig()
        task = build_tasks(trace, trace.horizon, config.policy)[0]
        assert pickle.loads(pickle.dumps(task)) == task
        output = run_swarm(task, config)
        clone = pickle.loads(pickle.dumps(output))
        assert clone.result.ledger.server_bits == output.result.ledger.server_bits

    def test_merge_outputs_empty(self):
        result = merge_outputs([], delta_tau=10.0, horizon=86_400.0, upload_ratio=1.0)
        assert result.total.demanded_bits == 0.0
        assert result.per_swarm == {}


class TestBackendSelection:
    def test_auto_serial(self):
        assert isinstance(resolve_backend(None, None), SerialBackend)
        assert isinstance(resolve_backend(None, 1), SerialBackend)

    def test_auto_process_when_workers(self):
        backend = resolve_backend(None, 4)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 4

    def test_explicit_names(self):
        assert isinstance(resolve_backend("serial", 8), SerialBackend)
        assert isinstance(resolve_backend("process", 3), ProcessPoolBackend)
        with pytest.raises(ValueError):
            resolve_backend("thread", 3)

    def test_distributed_name_resolves_with_queue_dir(self, tmp_path):
        backend = resolve_backend("distributed", 2, str(tmp_path / "q"))
        try:
            assert isinstance(backend, DistributedBackend)
            assert backend.workers == 2
            assert backend._queue_root == tmp_path / "q"
        finally:
            backend.close()

    def test_config_queue_dir_requires_distributed(self, tmp_path):
        with pytest.raises(ValueError):
            SimulationConfig(backend="process", queue_dir=str(tmp_path))
        with pytest.raises(ValueError):
            SimulationConfig(queue_dir=str(tmp_path))
        config = SimulationConfig(backend="distributed", queue_dir=str(tmp_path))
        assert config.queue_dir == str(tmp_path)

    def test_distributed_backend_validation(self):
        with pytest.raises(ValueError):
            DistributedBackend(0)
        with pytest.raises(ValueError):
            DistributedBackend(2, lease_timeout=0.0)
        with pytest.raises(ValueError):
            DistributedBackend(2, shard_quantum=0)
        with pytest.raises(ValueError):
            DistributedBackend(2, max_attempts=0)

    def test_distributed_empty_plan_short_circuits(self, tmp_path):
        """No tasks -> no job, no workers, no queue traffic."""
        backend = DistributedBackend(2, queue_dir=tmp_path / "q")
        try:
            assert list(backend.iter_outputs([], SimulationConfig())) == []
            assert list(backend.iter_outputs_multi([], [SimulationConfig()])) == []
            assert backend.live_workers() == 0  # nothing was ever spawned
        finally:
            backend.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_config_validates_workers_and_backend(self):
        with pytest.raises(ValueError):
            SimulationConfig(workers=0)
        with pytest.raises(ValueError):
            SimulationConfig(backend="gpu")

    def test_process_pool_single_task_falls_back_inline(self):
        backend = ProcessPoolBackend(4)
        config = SimulationConfig()
        trace = TraceGenerator(
            config=GeneratorConfig(
                num_users=20, num_items=1, days=1, expected_sessions=30, seed=3
            )
        ).generate()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        outputs = collect_outputs(backend, tasks, config)
        assert len(outputs) == len(tasks)
        assert backend._executor is None  # no pool was spawned

    def test_process_pool_small_workload_falls_back_inline(self, trace):
        """Below min_sessions the pool is never spawned (same results,
        no per-run executor cost on tiny experiment subtraces)."""
        backend = ProcessPoolBackend(4, min_sessions=10**9)
        config = SimulationConfig()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        outputs = collect_outputs(backend, tasks, config)
        assert len(outputs) == len(tasks)
        assert backend._executor is None  # no pool was spawned

    def test_simulator_caches_resolved_backend(self):
        simulator = Simulator(SimulationConfig(workers=2))
        assert simulator.backend is simulator.backend


def make_matrix_backend(backend_name, tmp_path):
    """One backend per matrix axis value, tuned to really parallelize
    on the test trace (no inline fallbacks, real worker processes)."""
    backends = {
        "serial": lambda: SerialBackend(),
        # min_sessions=0 forces real worker processes on this trace.
        "process": lambda: ProcessPoolBackend(2, min_sessions=0),
        # A tiny shard quantum forces several work items through the
        # file queue; the two spawned workers are real OS processes.
        "distributed": lambda: DistributedBackend(
            2,
            queue_dir=tmp_path / "queue",
            lease_timeout=60.0,
            poll_interval=0.01,
            shard_quantum=400,
        ),
    }
    return backends[backend_name]()


class TestReductionMatrix:
    """Backend x reduction x grouping equivalence: every cell of the
    {serial, process, distributed} x {streaming, spill} x {memory,
    external} matrix, on both entry points (run / run_stream),
    reproduces the in-order reference fold (:func:`reference_fold`) bit
    for bit -- while obeying the ``workers + 1`` residency bound, and
    external grouping its sort-buffer bound.

    The reference runs the object kernel and every matrix cell runs
    ``kernel="auto"`` -- the compiled columnar sweep when the extension
    is built -- so each cell is also a cross-kernel identity check (see
    repro/sim/kernel_columns.py)."""

    @pytest.fixture(scope="class")
    def reference(self, trace):
        return reference_fold(trace, SimulationConfig())

    @pytest.mark.parametrize("backend_name", ["serial", "process", "distributed"])
    @pytest.mark.parametrize("reduction", ["streaming", "spill"])
    @pytest.mark.parametrize("grouping", ["memory", "external"])
    def test_backend_reduction_equivalence(
        self, trace, reference, backend_name, reduction, grouping, tmp_path
    ):
        backend = make_matrix_backend(backend_name, tmp_path)
        spill_dir = str(tmp_path / "spill") if reduction == "spill" else None
        config = SimulationConfig(
            reduction=reduction, spill_dir=spill_dir, kernel="auto"
        )
        # run_sessions=500 forces real spill-and-merge grouping on this
        # ~2.5K-session trace (and exercises worker-side extent decode).
        strategy = (
            ExternalGrouping(shard_dir=tmp_path / "shards", run_sessions=500)
            if grouping == "external"
            else None
        )
        simulator = Simulator(config, backend=backend, grouping=strategy)
        try:
            from_run = simulator.run(trace)
            assert_identical(reference, from_run)
            stats = simulator.last_reduction
            assert stats is not None and stats.mode == reduction
            workers = getattr(backend, "workers", 1)
            assert 1 <= stats.peak_resident <= workers + 1
            grouping_stats = simulator.last_grouping
            assert grouping_stats is not None and grouping_stats.mode == grouping
            if grouping == "external":
                assert grouping_stats.peak_buffered_sessions <= 500
                assert grouping_stats.runs_spilled >= 1

            from_stream = simulator.run_stream(iter(trace.sessions), trace.horizon)
            assert_identical(reference, from_stream)
        finally:
            if hasattr(backend, "close"):
                backend.close()


class TestSweepMatrix:
    """Sweep x backend x reduction x grouping: ``run_sweep`` reproduces
    the K in-order reference folds (:func:`reference_fold`) bit for bit
    in every cell of the {serial, process, distributed} x {streaming,
    spill} x {memory, external} matrix, while keeping each per-config
    reducer inside the ``workers + 1`` residency bound.

    As in TestReductionMatrix, the references run the object kernel and
    the sweep configs run ``kernel="auto"``, so the whole matrix is
    also a cross-kernel identity check."""

    RATIOS = (0.2, 0.6, 1.0)

    @pytest.fixture(scope="class")
    def sweep_reference(self, trace):
        return [
            reference_fold(trace, SimulationConfig(upload_ratio=r))
            for r in self.RATIOS
        ]

    @pytest.mark.parametrize("backend_name", ["serial", "process", "distributed"])
    @pytest.mark.parametrize("reduction", ["streaming", "spill"])
    @pytest.mark.parametrize("grouping", ["memory", "external"])
    def test_sweep_matrix_cell(
        self, trace, sweep_reference, backend_name, reduction, grouping, tmp_path
    ):
        backend = make_matrix_backend(backend_name, tmp_path)
        spill_dir = str(tmp_path / "spill") if reduction == "spill" else None
        config = SimulationConfig(reduction=reduction, spill_dir=spill_dir)
        strategy = (
            ExternalGrouping(shard_dir=tmp_path / "shards", run_sessions=500)
            if grouping == "external"
            else None
        )
        simulator = Simulator(config, backend=backend, grouping=strategy)
        configs = [
            SimulationConfig(upload_ratio=r, kernel="auto") for r in self.RATIOS
        ]
        try:
            results = simulator.run_sweep(trace, configs)
            assert len(results) == len(self.RATIOS)
            for reference, result in zip(sweep_reference, results):
                assert_identical(reference, result)
            sweep_stats = simulator.last_sweep
            assert sweep_stats is not None
            assert sweep_stats.configs == len(self.RATIOS)
            reduction_stats = simulator.last_reduction
            assert reduction_stats is not None and reduction_stats.mode == reduction
            workers = getattr(backend, "workers", 1)
            # peak_resident is the worst single per-config reducer.
            assert 1 <= reduction_stats.peak_resident <= workers + 1
            grouping_stats = simulator.last_grouping
            assert grouping_stats is not None and grouping_stats.mode == grouping

            from_stream = simulator.run_sweep_stream(
                iter(trace.sessions), trace.horizon, configs
            )
            for reference, result in zip(sweep_reference, from_stream):
                assert_identical(reference, result)
        finally:
            if hasattr(backend, "close"):
                backend.close()


class TestDistributedFaultTolerance:
    """Worker death must be invisible in the result: stale leases are
    requeued onto surviving workers and the fold converges bit for bit."""

    @pytest.fixture()
    def small_trace(self):
        return TraceGenerator(
            config=GeneratorConfig(
                num_users=200, num_items=12, days=1, expected_sessions=1_200, seed=7
            )
        ).generate()

    def test_abandoned_claim_requeued_end_to_end(self, small_trace, tmp_path):
        """Deterministic lease recovery: a 'worker' claims an item and
        dies (never renews, never acks); the coordinator requeues it
        past the lease and a real worker completes the run."""
        serial = Simulator(SimulationConfig(), backend=SerialBackend()).run(
            small_trace
        )
        queue_root = tmp_path / "queue"
        backend = DistributedBackend(
            2,
            queue_dir=queue_root,
            spawn=False,  # only our in-test worker may serve the queue
            lease_timeout=0.4,
            poll_interval=0.01,
            shard_quantum=100,
            progress_timeout=60.0,
        )
        claimed = threading.Event()
        stop_recorded = {}

        def dead_worker():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not claimed.is_set():
                for job_dir in queue_root.glob("job-*"):
                    queue = WorkQueue(job_dir, lease_timeout=0.4, create=False)
                    if queue.claim("dead-worker") is not None:
                        claimed.set()  # ...and never renew, ack, or return
                        return
                time.sleep(0.005)

        def live_worker():
            claimed.wait(timeout=30.0)
            stop_recorded["processed"] = run_worker(
                queue_root, poll_interval=0.01, worker_id="survivor"
            )

        threads = [
            threading.Thread(target=dead_worker),
            threading.Thread(target=live_worker),
        ]
        for thread in threads:
            thread.start()
        try:
            result = Simulator(SimulationConfig(), backend=backend).run(small_trace)
        finally:
            (queue_root / "STOP").touch()
            for thread in threads:
                thread.join(timeout=30.0)
            backend.close()
        assert claimed.is_set(), "the saboteur never got a claim"
        assert backend.last_requeues >= 1  # the dead claim was recovered
        assert stop_recorded["processed"] >= 1
        assert_identical(serial, result)

    def test_sigkilled_worker_process_converges(self, small_trace, tmp_path):
        """Kill -9 one of two real worker processes mid-run: the
        coordinator requeues whatever it held and the other worker
        finishes; the result is still bit-for-bit serial."""
        serial = Simulator(SimulationConfig(), backend=SerialBackend()).run(
            small_trace
        )
        queue_root = tmp_path / "queue"
        backend = DistributedBackend(
            2,
            queue_dir=queue_root,
            lease_timeout=1.0,
            poll_interval=0.01,
            shards_per_worker=2,
            shard_quantum=10**9,  # few, large blocks: kills land mid-task
            progress_timeout=120.0,
        )
        killed = threading.Event()

        def assassin():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not killed.is_set():
                pids = {proc.pid for proc in backend._procs}
                for lease in queue_root.glob("job-*/claimed/*.lease"):
                    try:
                        worker_id = lease.read_text().split()[0]
                        pid = int(worker_id.rsplit(":", 1)[1])
                    except (OSError, ValueError, IndexError):
                        continue
                    if pid in pids:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except OSError:  # already gone
                            continue
                        killed.set()
                        return
                time.sleep(0.002)

        thread = threading.Thread(target=assassin)
        thread.start()
        try:
            result = Simulator(SimulationConfig(), backend=backend).run(small_trace)
            thread.join(timeout=60.0)
            assert killed.is_set(), "no worker was ever holding a claim"
            # The victim really died; the coordinator's mid-job fleet
            # self-healing may already have spawned a replacement, so
            # count spawns, not survivors.
            assert backend._spawned >= 3
            assert_identical(serial, result)
        finally:
            thread.join(timeout=1.0)
            backend.close()

    def test_failed_item_surfaces_error(self, tmp_path):
        """A poisoned item parked in failed/ aborts the run with its
        error instead of hanging the coordinator."""
        queue_root = tmp_path / "queue"
        backend = DistributedBackend(
            1,
            queue_dir=queue_root,
            spawn=False,
            lease_timeout=30.0,
            poll_interval=0.01,
            progress_timeout=60.0,
        )

        def corrupting_worker():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                for task in queue_root.glob("job-*/pending/*.task"):
                    try:
                        task.write_bytes(b"\x80poisoned")
                    except OSError:
                        continue
                    run_worker(
                        queue_root, poll_interval=0.01, idle_exit=0.1,
                        worker_id="victim",
                    )
                    return
                time.sleep(0.005)

        trace = TraceGenerator(
            config=GeneratorConfig(
                num_users=50, num_items=2, days=1, expected_sessions=150, seed=3
            )
        ).generate()
        thread = threading.Thread(target=corrupting_worker)
        thread.start()
        try:
            with pytest.raises(RuntimeError, match="gave up"):
                Simulator(SimulationConfig(), backend=backend).run(trace)
        finally:
            (queue_root / "STOP").touch()
            thread.join(timeout=30.0)
            backend.close()


class TestExecutorReuse:
    def test_pool_persists_across_runs(self, trace):
        backend = ProcessPoolBackend(2, min_sessions=0)
        config = SimulationConfig()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        collect_outputs(backend, tasks, config)
        pool = backend._executor
        assert pool is not None
        collect_outputs(backend, tasks, config)
        assert backend._executor is pool  # reused, not respawned
        backend.close()
        assert backend._executor is None

    def test_pool_recreated_after_close(self, trace):
        backend = ProcessPoolBackend(2, min_sessions=0)
        config = SimulationConfig()
        tasks = build_tasks(trace, trace.horizon, config.policy)
        first = collect_outputs(backend, tasks, config)
        backend.close()
        second = collect_outputs(backend, tasks, config)
        assert len(first) == len(second) == len(tasks)
        backend.close()
