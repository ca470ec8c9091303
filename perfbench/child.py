"""One benchmark role in a fresh process: ``child.py ROLE SPEC OUT``.

``SPEC`` is a JSON file written by ``run.py``; the role writes its
findings as JSON to ``OUT``.  Roles:

* ``prepare``   -- write the workload's inputs (untimed load generation);
* ``setup``     -- set the system up once and report ``setup_s``;
* ``reference`` -- set up, then recompute the reference digests;
* ``measure``   -- set up, then run closed-loop passes for the run's
  seconds, checking each pass's digests;
* ``trace``     -- set up with tracing, then alternate untraced and
  traced passes; report per-layer metrics.

``setup_s`` is the time of ``import repro``, which loads every module of
the program a workload uses, plus the time of the workload's set-up
(building the ``Simulator`` and, for the sweep, the shard cache).
Interpreter start and the benchmark's own modules are not counted.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

#: Least share of the traced wall the named spans must cover.
MIN_COVERAGE = 0.95


def main(role: str, spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    started = time.perf_counter()
    import repro

    imported = time.perf_counter() - started
    from repro.sim.kernel_columns import HAVE_COMPILED
    from repro.sim.profiling import PROFILE

    import workloads
    from tracing import ROOT, SpanLog, now, summary

    src = Path(spec["src"]).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")
    workload = workloads.WORKLOADS[spec["workload"]](Path(spec["work"]), spec["seed"])
    out = {"compiled": HAVE_COMPILED}
    if role == "prepare":
        workload.prepare()
        Path(out_path).write_text(json.dumps(out))
        return 0
    if not HAVE_COMPILED:
        raise SystemExit("the compiled kernel (repro.sim._ckernel) did not load")

    log = SpanLog() if role == "trace" else None
    started = time.perf_counter()
    workload.setup(log)
    out["setup_s"] = imported + time.perf_counter() - started
    reference = spec.get("reference")
    failed = passes = 0

    def one_pass(traced: bool) -> float:
        """Run, time and check one pass; return its seconds."""
        nonlocal failed, passes
        gc.collect()
        cpu = time.process_time()
        start = now()
        root = log.open(ROOT, start) if traced else None
        try:
            sessions, results = workload.run_pass(traced)
        finally:
            end = now()
            cpu = time.process_time() - cpu
            if traced:
                log.close(root, end)
        try:
            passes += 1
            out.setdefault("pass_sessions", []).append(sessions)
            out.setdefault("pass_seconds", []).append(end - start)
            out.setdefault("pass_cpu_seconds", []).append(cpu)
            if [workloads.digest(r) for r in results] != reference:
                failed += 1
        finally:
            workload.finish_pass()
        return end - start

    try:
        if role == "reference":
            out["reference"] = workload.reference()
        elif role == "measure":
            timed = 0.0
            while passes == 0 or timed < spec["seconds"]:
                timed += one_pass(False)
        elif role == "trace":
            plain_s = traced_s = 0.0
            traced_passes = 0
            while traced_passes == 0 or plain_s + traced_s < spec["seconds"]:
                plain_s += one_pass(False)
                PROFILE.reset()
                PROFILE.enabled = True
                try:
                    traced_s += one_pass(True)
                finally:
                    PROFILE.enabled = False
                workload.after_traced_pass()
                traced_passes += 1
            workload.close()  # reaps pool workers, for their peak RSS
            out["metrics"] = workloads.layer_metrics(workload, traced_passes, plain_s)
            out["spans"] = summary(log)
            if out["metrics"]["trace.coverage"] < MIN_COVERAGE:
                raise SystemExit(
                    f"named spans cover {out['metrics']['trace.coverage']:.1%} "
                    f"of the traced wall, under {MIN_COVERAGE:.0%}"
                )
    finally:
        workload.close()
    out["passes"] = passes
    out["failed"] = failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
