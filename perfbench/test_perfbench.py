"""Tests of the benchmark's own code (run with the repository's suite).

Tiny instances of every workload check that tracing changes no result;
synthetic spans check the self-time and coverage arithmetic; and the
metric names the runner prints are checked against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from repro.sim.profiling import PROFILE
from repro.trace.loader import load_jsonl
from tracing import (
    EXCLUDED,
    ROOT,
    SpanLog,
    coverage,
    covered_length,
    layer_totals,
    self_times,
    summary,
    traced_wall,
)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Densities small enough for a pass to take well under a second.
TINY = {
    "london_month": 0.0003,
    "fig2_sweep": 0.0003,
    "service_6h": 0.00005,
}


def traced_run(name: str, work: Path):
    """Set up a tiny workload with tracing; one untraced and one traced pass."""
    workload = workloads.WORKLOADS[name](work, seed=5, density=TINY[name])
    workload.prepare()
    log = SpanLog()
    workload.setup(log)
    try:
        _, plain = workload.run_pass(traced=False)
        workload.finish_pass()
        root = log.open(ROOT)
        PROFILE.reset()
        PROFILE.enabled = True
        try:
            _, traced = workload.run_pass(traced=True)
        finally:
            PROFILE.enabled = False
            log.close(root)
        workload.finish_pass()
        workload.after_traced_pass()
        reference = workload.reference()
    finally:
        workload.close()
    return workload, plain, traced, reference


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    return traced_run(request.param, work)


def test_traced_and_untraced_passes_agree_with_the_reference(tiny):
    workload, plain, traced, reference = tiny
    plain_digests = [workloads.digest(result) for result in plain]
    assert plain_digests == [workloads.digest(result) for result in traced]
    assert plain_digests == reference
    assert len(reference) == (5 if "sweep" in workload.name else 1)


def test_layer_metrics_cover_the_traced_pass(tiny):
    workload = tiny[0]
    metrics = workloads.layer_metrics(workload, passes=1, untraced_s=1.0)
    assert metrics["trace.coverage"] > 0.9
    assert metrics["kernel.tasks"] > 0
    assert metrics["reduce.blocks"] > 0
    if workload.name == "service_6h":
        # Every 6-hour epoch from the first session's to the last's closes.
        starts = [s.start for s in load_jsonl(workload.feed).sessions]
        epochs = [int(start // workloads.EPOCH_SECONDS) for start in starts]
        assert metrics["service.closes"] == epochs[-1] - epochs[0] + 1 >= 119
        assert metrics["service.close_p90_s"] >= metrics["service.close_p50_s"] > 0
        assert metrics["service.checkpoint_bytes"] > 0
    if workload.name == "london_month":
        assert metrics["generator.sessions"] > 0
        assert metrics["grouping.merge_s"] > 0
        assert metrics["grouping.runs_spilled"] > 1
    if workload.name == "fig2_sweep":
        assert metrics["grouping.cache_hit_ratio"] == 1.0


def test_runner_prints_exactly_the_declared_metrics(tiny):
    workload = tiny[0]
    found = {
        "run": {
            "metrics": workloads.layer_metrics(workload, passes=1, untraced_s=1.0),
            "pass_sessions": [10, 10, 10],
            "pass_seconds": [2.5, 2.0, 4.0],
            "peak_rss_mb": 50.0,
        },
        "setups": [0.3, 0.2, 0.4, 0.5, 0.1],
    }
    units = {kind["name"]: kind["unit"] for kind in SPEC["per_layer"]}
    traced = run.report_metrics(found, trace=True, probes=(1.0, 2.0))
    assert set(traced) == set(units)
    units = {kind["name"]: kind["unit"] for kind in SPEC["end_to_end"]}
    plain = run.report_metrics(found, trace=False, probes=(1.0, 2.0))
    assert set(plain) == set(units)
    assert plain["setup_s"] == 0.1  # the fastest set-up
    assert plain["sessions_per_s"] == 5.0  # the fastest pass


def test_benchmark_spec_keeps_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(names) == set(workloads.WORKLOADS)
    bounds = {kind["name"]: kind["bound"] for kind in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    every = names + list(bounds) + [kind["name"] for kind in SPEC["per_layer"]]
    assert len(every) == len(set(every))


def test_recorded_references_cover_every_workload():
    recorded = json.loads((HERE / "references.json").read_text())
    assert set(recorded) == set(workloads.WORKLOADS)
    # The month of london_month is the sweep's month at upload ratio 1.0.
    assert recorded["london_month"] == recorded["fig2_sweep"][-1:]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "london_month",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _log(*spans):
    log = SpanLog()
    for name, start, end, parent in spans:
        log.add(name, start, end, parent=parent)
    return log


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_only_what_children_cover():
    log = _log(
        (ROOT, 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 3.5, 6.0, 0),  # overlaps "a": counted once in the root
    )
    assert self_times(log) == pytest.approx([5.0, 2.0, 1.0, 2.5])
    assert layer_totals(log) == pytest.approx({ROOT: 5.0, "a": 2.0, "b": 1.0, "c": 2.5})


def test_coverage_takes_excluded_time_out_of_the_wall():
    log = _log(
        (ROOT, 0.0, 10.0, -1),
        ("a", 0.0, 6.0, 0),
        (EXCLUDED, 6.0, 8.0, 0),
        (ROOT, 20.0, 30.0, -1),
        ("b", 20.0, 29.0, 3),
    )
    assert traced_wall(log) == pytest.approx(18.0)
    # Unattributed: 2 s in the first pass, 1 s in the second.
    assert coverage(log) == pytest.approx(15.0 / 18.0)


def test_open_spans_nest_and_must_close_in_order():
    log = SpanLog()
    outer = log.open("outer", 0.0)
    inner = log.open("inner", 1.0)
    child = log.add("leaf", 1.5, 2.0)
    with pytest.raises(RuntimeError):
        log.close(outer)
    log.close(inner, 3.0)
    log.close(outer, 4.0)
    assert list(log.parents) == [-1, outer, inner]
    assert list(log.ends) == [4.0, 3.0, 2.0]
    assert log.of("leaf") == [child]
    assert summary(log) == {
        "outer": [1, 4.0, 2.0],
        "inner": [1, 2.0, 1.5],
        "leaf": [1, 0.5, 0.5],
    }
