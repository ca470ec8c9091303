"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_command(self):
        args = build_parser().parse_args(["fig5", "--quick"])
        assert args.command == "fig5"
        assert args.quick

    def test_generate_command(self):
        args = build_parser().parse_args(["generate", "out.jsonl", "--days", "3"])
        assert args.command == "generate"
        assert args.days == 3

    def test_simulate_command(self):
        args = build_parser().parse_args(["simulate", "t.jsonl", "--upload-ratio", "0.4"])
        assert args.upload_ratio == 0.4


class TestCommands:
    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "CC Transfer" in out

    def test_tables_run(self, capsys):
        assert main(["tables", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Exchange Point" in out
        assert "Valancius" in out

    def test_fig_with_out_dir(self, tmp_path, capsys):
        assert main(["fig5", "--quick", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig5.txt").exists()

    def test_generate_and_simulate_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["generate", str(path), "--quick"]) == 0
        assert path.exists()
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "offload G" in out
        assert "valancius" in out


class TestReductionFlag:
    def test_reduction_parsed_into_settings(self):
        from repro.cli import _settings_from

        args = build_parser().parse_args(["fig5", "--reduction", "streaming"])
        settings = _settings_from(args)
        assert settings.reduction == "streaming"
        assert settings.simulation_config().reduction == "streaming"

    def test_quick_keeps_reduction(self):
        from repro.cli import _settings_from

        args = build_parser().parse_args(["fig5", "--quick", "--reduction", "spill"])
        settings = _settings_from(args)
        assert settings.scale == 0.05  # still the quick preset
        assert settings.reduction == "spill"

    def test_default_is_streaming(self):
        from repro.cli import _settings_from

        args = build_parser().parse_args(["fig5", "--quick"])
        settings = _settings_from(args)
        assert settings.reduction is None
        assert settings.simulation_config().reduction == "streaming"

    def test_rejects_unknown_reduction(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--reduction", "mapreduce"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--reduction", "batched"])

    def test_serve_has_no_reduction_flag(self):
        """The service folds through its own reducer, so the flag is gone."""
        parser = build_parser()
        args = parser.parse_args(["serve", "feed.jsonl", "--state-dir", "d"])
        assert not hasattr(args, "reduction")
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["serve", "feed.jsonl", "--state-dir", "d", "--reduction", "spill"]
            )

    def test_simulate_streaming_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["generate", str(path), "--quick", "--days", "1"]) == 0
        assert main(["simulate", str(path), "--reduction", "streaming"]) == 0
        out = capsys.readouterr().out
        assert "offload G" in out

    def test_simulate_spill_dir_keeps_delta_log(self, tmp_path, capsys):
        from repro.sim.reduce import load_user_deltas

        path = tmp_path / "trace.jsonl"
        spill_dir = tmp_path / "spill"
        assert main(["generate", str(path), "--quick", "--days", "1"]) == 0
        assert (
            main(
                [
                    "simulate", str(path),
                    "--reduction", "spill",
                    "--spill-dir", str(spill_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "per-user delta log: " in out
        log_path = out.rsplit("per-user delta log: ", 1)[1].strip()
        assert load_user_deltas(log_path)  # non-empty, parseable


class TestWorkersFlag:
    def test_workers_parsed_into_settings(self):
        from repro.cli import _settings_from

        args = build_parser().parse_args(["fig5", "--workers", "4"])
        assert args.workers == 4
        settings = _settings_from(args)
        assert settings.workers == 4
        assert settings.simulation_config().workers == 4

    def test_quick_keeps_workers(self):
        from repro.cli import _settings_from

        args = build_parser().parse_args(["fig5", "--quick", "--workers", "2"])
        settings = _settings_from(args)
        assert settings.scale == 0.05  # still the quick preset
        assert settings.workers == 2

    def test_simulate_accepts_workers_and_backend(self):
        args = build_parser().parse_args(
            ["simulate", "t.jsonl", "--workers", "2", "--backend", "process"]
        )
        assert args.workers == 2
        assert args.backend == "process"

    def test_simulate_parallel_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["generate", str(path), "--quick", "--days", "1"]) == 0
        assert main(["simulate", str(path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "offload G" in out


class TestDistributedFlags:
    def test_simulate_accepts_distributed_backend(self, tmp_path):
        args = build_parser().parse_args(
            [
                "simulate", "t.jsonl",
                "--backend", "distributed",
                "--queue-dir", str(tmp_path / "q"),
                "--workers", "2",
            ]
        )
        assert args.backend == "distributed"
        assert str(args.queue_dir) == str(tmp_path / "q")

    def test_queue_dir_requires_distributed_backend(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "t.jsonl", "--queue-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "t.jsonl",
                    "--backend", "process",
                    "--queue-dir", str(tmp_path),
                ]
            )

    def test_figure_commands_accept_backend(self):
        from repro.cli import _settings_from

        args = build_parser().parse_args(
            ["fig5", "--quick", "--backend", "serial"]
        )
        settings = _settings_from(args)
        assert settings.backend == "serial"
        assert settings.simulation_config().backend == "serial"

    def test_worker_parser(self, tmp_path):
        args = build_parser().parse_args(
            [
                "worker",
                "--queue-dir", str(tmp_path),
                "--max-tasks", "3",
                "--idle-exit", "0.5",
            ]
        )
        assert args.command == "worker"
        assert args.max_tasks == 3
        assert args.idle_exit == 0.5

    def test_worker_requires_queue_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_command_serves_and_exits(self, tmp_path):
        """`consume-local worker` drains a queue and exits with the
        distinct --max-tasks status so supervisors can tell the
        self-limit from a crash."""
        import pickle

        from repro.sim.engine import SimulationConfig
        from repro.sim.queue import JobSpec, WorkItem, WorkQueue, item_id_for
        from repro.sim.worker import EXIT_MAX_TASKS

        queue = WorkQueue(tmp_path / "job-cli", lease_timeout=30.0)
        queue.write_spec(JobSpec(kind="single", config=SimulationConfig()))
        queue.put(WorkItem(item_id=item_id_for(0), start_index=0, refs=()))
        assert main(
            [
                "worker",
                "--queue-dir", str(tmp_path),
                "--max-tasks", "1",
                "--idle-exit", "1.0",
            ]
        ) == EXIT_MAX_TASKS
        assert queue.result_ids() == {item_id_for(0)}
        assert pickle.loads(
            (queue.results_dir / f"{item_id_for(0)}.out").read_bytes()
        ) == []

    def test_simulate_distributed_round_trip(self, tmp_path, capsys):
        """generate -> simulate --backend distributed matches the serial
        CLI output byte for byte."""
        path = tmp_path / "trace.jsonl"
        assert main(["generate", str(path), "--quick", "--days", "1"]) == 0
        capsys.readouterr()  # drop the generate output
        assert main(["simulate", str(path)]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(
                [
                    "simulate", str(path),
                    "--backend", "distributed",
                    "--queue-dir", str(tmp_path / "q"),
                    "--workers", "2",
                ]
            )
            == 0
        )
        distributed_out = capsys.readouterr().out
        assert distributed_out == serial_out
