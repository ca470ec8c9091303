"""Run every experiment and collect the reports.

Every driver consumes the shared :class:`ExperimentSettings`, including
its ``workers`` knob: pass ``workers=N`` (or settings with it set) and
each experiment's simulation shards its swarms over N worker processes
-- results are bit-for-bit identical to the serial run, only faster.
Likewise ``reduction="spill"`` keeps per-user deltas on disk until
the result is built, and ``grouping="external"``
groups the session stream out-of-core through a sorted shard file,
bounding coordinator memory on large traces without changing a single
bit of any report.

Sweep-heavy drivers submit whole parameter sweeps instead of per-point
runs: fig2's upload-ratio axis goes through ``Simulator.run_sweep`` (one
grouping + one timeline sweep for all five ratios -- see
``repro.experiments.fig2.tier_dots``), and with ``grouping="external"``
plus a persistent ``shard_dir`` the sorted shard is content-addressed
and reused across experiments, runs and processes.  All of it is
bit-for-bit identical to the naive per-point loop.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, List, Mapping, Optional

from repro.experiments.config import ExperimentSettings
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.report import Report
from repro.experiments.tables import run_table1, run_table3, run_table4

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]

#: Every reproducible artefact, in paper order.
EXPERIMENTS: Mapping[str, Callable[[ExperimentSettings], Report]] = {
    "table1": run_table1,
    "table3": run_table3,
    "table4": run_table4,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
}


def _resolve_settings(
    settings: Optional[ExperimentSettings],
    workers: Optional[int],
    reduction: Optional[str] = None,
    grouping: Optional[str] = None,
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> ExperimentSettings:
    settings = settings or ExperimentSettings()
    if workers is not None:
        settings = replace(settings, workers=workers)
    if reduction is not None:
        settings = replace(settings, reduction=reduction)
    if grouping is not None:
        settings = replace(settings, grouping=grouping)
    if backend is not None:
        settings = replace(settings, backend=backend)
    if queue_dir is not None:
        settings = replace(settings, queue_dir=queue_dir)
    return settings


def run_experiment(
    name: str,
    settings: Optional[ExperimentSettings] = None,
    *,
    workers: Optional[int] = None,
    reduction: Optional[str] = None,
    grouping: Optional[str] = None,
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> Report:
    """Run one experiment by id ("table1", "fig2", ...).

    ``workers`` / ``reduction`` / ``grouping`` / ``backend`` /
    ``queue_dir`` override the settings' values for this invocation.
    """
    try:
        driver = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return driver(
        _resolve_settings(settings, workers, reduction, grouping, backend, queue_dir)
    )


def run_all(
    settings: Optional[ExperimentSettings] = None,
    *,
    out_dir: Optional[Path] = None,
    workers: Optional[int] = None,
    reduction: Optional[str] = None,
    grouping: Optional[str] = None,
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> List[Report]:
    """Run every experiment; optionally write one text file per report.

    ``workers`` / ``reduction`` / ``grouping`` / ``backend`` /
    ``queue_dir`` override the settings' values for this invocation.
    """
    settings = _resolve_settings(
        settings, workers, reduction, grouping, backend, queue_dir
    )
    reports = [driver(settings) for driver in EXPERIMENTS.values()]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            (out_dir / f"{report.name}.txt").write_text(report.render() + "\n")
    return reports
