"""Experiment drivers: one module per paper table/figure, plus a runner.

:data:`repro.experiments.runner.EXPERIMENTS` maps each paper artefact to
its driver, in paper order.
"""

from repro.experiments.config import (
    ExperimentSettings,
    city_trace,
    exemplar_trace,
    paper_simulation,
)
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.report import Report
from repro.experiments.runner import EXPERIMENTS, run_all, run_experiment
from repro.experiments.tables import run_table1, run_table3, run_table4

__all__ = [
    "EXPERIMENTS",
    "ExperimentSettings",
    "Report",
    "city_trace",
    "exemplar_trace",
    "paper_simulation",
    "run_all",
    "run_experiment",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_table1",
    "run_table3",
    "run_table4",
]
