#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload london_month --seed 20130901 \\
        --seconds 30 --trace 0

A run

1. builds the program from this checkout's ``src/`` -- a copy of the
   package, compiled to bytecode, plus the compiled kernel
   ``repro.sim._ckernel``, built with the repository's own ``setup.py``
   -- in a scratch directory inside the checkout, removed when the run
   ends;
2. writes the workload's inputs from ``--seed`` (untimed);
3. recomputes the reference digests through an identity contract, or
   takes them from ``references.json`` for the default seed;
4. with ``--trace 0``: runs closed-loop passes for ``--seconds`` in a
   fresh process, checking every pass's output, and sets the system up
   in further fresh processes before and after it; prints the
   end-to-end metrics (``sessions_per_s`` from the fastest pass,
   ``setup_s`` from the fastest set-up);
   with ``--trace 1``: alternates untraced and traced passes and prints
   the per-layer metrics;
5. prints, as its last line, ``{"correct", "attempted", "failed",
   "metrics"}``.

Every role runs in its own child process (``child.py``).  ``README.md``
beside this file defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-process set-ups per run, counting the measuring process's own:
#: three before it and three after it.  ``setup_s`` is the fastest.
SETUP_SAMPLES = 7

#: Seconds any one child may take before the run is abandoned.
CHILD_TIMEOUT = 170

DEFAULT_SEED = 20130901

#: The workloads ``workloads.py`` implements, as ``BENCHMARK.json`` lists them.
WORKLOADS = ("london_month", "fig2_sweep", "service_6h")


def benchmark_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_probe_ms(repeats: int = 3) -> float:
    """A frozen, seeded pure-Python loop; its median time in ms.

    Diagnostic only: it shows how fast the host ran around a run and
    never scales a metric.
    """
    times = []
    for _ in range(repeats):
        rng = random.Random(DEFAULT_SEED)
        start = time.perf_counter()
        for _ in range(40_000):
            rng.betavariate(2.0, 5.0)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def source_digest() -> str:
    """A content hash of the checkout's ``src/`` (the checkout may lack git)."""
    hasher = hashlib.blake2b(digest_size=12)
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c", ".h"):
            hasher.update(str(path.relative_to(ROOT)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build(work: Path, env: Dict[str, str]) -> Path:
    """Copy the package, compile it and its kernel; return the import root.

    The copy is compiled to bytecode, as an installed package is, so
    that ``setup_s`` times imports rather than the bytecode compiler.
    """
    src = work / "src"
    shutil.copytree(
        ROOT / "src" / "repro",
        src / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
    )
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if compiled.returncode != 0:
        raise RuntimeError(f"compiling {src} failed:\n{compiled.stdout}")
    done = subprocess.run(
        [
            sys.executable, "setup.py", "-q", "build_ext",
            "--build-lib", str(src), "--build-temp", str(work / "build"),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0 or not list((src / "repro" / "sim").glob("_ckernel*.so")):
        raise RuntimeError(f"building repro.sim._ckernel failed:\n{done.stderr}")
    return src


class Runner:
    """Spawns the child roles of one run and collects what they report."""

    def __init__(self, args: argparse.Namespace, work: Path, env: Dict[str, str]):
        self.args = args
        self.work = work
        self.env = env
        self.reference: List[str] = []

    def child(self, role: str) -> Dict:
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "work": str(self.work),
            "src": str(self.work / "src"),
            "reference": self.reference,
        }
        spec_path = self.work / f"{role}.spec.json"
        out_path = self.work / f"{role}.out.json"
        out_path.unlink(missing_ok=True)
        spec_path.write_text(json.dumps(spec))
        command = [sys.executable, str(HERE / "child.py"), role]
        process = subprocess.Popen(
            command + [str(spec_path), str(out_path)],
            cwd=ROOT,
            env=self.env,
        )
        try:
            code = process.wait(timeout=CHILD_TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if code != 0 or not out_path.exists():
            raise RuntimeError(f"child role {role!r} failed with exit code {code}")
        return json.loads(out_path.read_text())


def recorded_references() -> Dict[str, List[str]]:
    return json.loads((HERE / "references.json").read_text())


def record_reference(workload: str, digests: List[str]) -> None:
    """Store the default seed's reference digests for ``workload``."""
    recorded = recorded_references()
    recorded[workload] = digests
    (HERE / "references.json").write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n"
    )


def run(args: argparse.Namespace, work: Path) -> Dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir()
    env["PYTHONPATH"] = str(build(work, env))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    runner = Runner(args, work, env)
    runner.child("prepare")
    setups = []
    if args.seed == DEFAULT_SEED and not args.record_reference:
        runner.reference = recorded_references()[args.workload]
    else:
        found = runner.child("reference")
        runner.reference = found["reference"]
        setups.append(found["setup_s"])
        if args.record_reference:
            record_reference(args.workload, runner.reference)
    if args.trace:
        return {"run": runner.child("trace"), "setups": setups}
    while len(setups) < SETUP_SAMPLES // 2:
        setups.append(runner.child("setup")["setup_s"])
    found = runner.child("measure")
    setups.append(found["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    return {"run": found, "setups": setups}


def report_metrics(found: Dict, trace: bool, probes) -> Dict[str, float]:
    """The metrics a run prints: per-layer when traced, else end-to-end."""
    result = found["run"]
    if trace:
        metrics = dict(result["metrics"])
        metrics["host.probe_ms"] = statistics.mean(probes)
        return metrics
    passes = zip(result["pass_sessions"], result["pass_seconds"])
    return {
        "sessions_per_s": max(sessions / seconds for sessions, seconds in passes),
        "setup_s": min(found["setups"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="recompute the reference digests and store them in "
        "references.json when --seed is the default seed",
    )
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--record-reference needs --seed {DEFAULT_SEED}")
    if not (ROOT / "src" / "repro" / "sim" / "_ckernel.c").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    probe_before = host_probe_ms()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        found = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_after = host_probe_ms()

    result = found["run"]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "revision": git_revision(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiled": result["compiled"],
        "pass_seconds": result["pass_seconds"],
        "pass_cpu_seconds": result["pass_cpu_seconds"],
        "setup_seconds": found["setups"],
        "host.probe_ms": {"before": probe_before, "after": probe_after},
    }
    print("stamp " + json.dumps(stamp))
    if args.trace:
        print("spans " + json.dumps(result["spans"]))
    metrics = report_metrics(found, args.trace, (probe_before, probe_after))
    kinds = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {kind["name"]: kind["unit"] for kind in kinds}
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["passes"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
