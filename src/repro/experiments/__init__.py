"""Experiment harness reproducing the paper's Section 5.

* :mod:`~repro.experiments.config` — experiment configuration and the
  algorithm registry;
* :mod:`~repro.experiments.runner` — run one algorithm once/averaged on
  shared recorded crowd answers ("equivalent settings" as in the paper);
* :mod:`~repro.experiments.parallel` — the one experiment engine,
  :func:`run_grid`: repetitions in-process or across worker processes
  with identical results, and one fingerprinted checkpoint record per
  finished repetition;
* :mod:`~repro.experiments.sweeps` — budget sweeps (Figures 1, 3, 4) and
  error-target inversion (Figure 2), as grids through :func:`run_grid`;
* :mod:`~repro.experiments.coverage` — gold-standard attribute coverage
  (Section 5.3.1);
* :mod:`~repro.experiments.robustness` — the Section 5.4 assumption
  knobs;
* :mod:`~repro.experiments.report` — ASCII rendering of result tables.
"""

from repro.experiments.config import ALGORITHMS, ExperimentConfig
from repro.experiments.parallel import ParallelConfig, run_grid
from repro.experiments.runner import RunResult, run_algorithm, run_averaged
from repro.experiments.sweeps import (
    required_budget,
    sweep_b_obj,
    sweep_b_prc,
)
from repro.experiments.coverage import coverage_experiment
from repro.experiments.report import render_series, render_table

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "ParallelConfig",
    "RunResult",
    "coverage_experiment",
    "render_series",
    "render_table",
    "required_budget",
    "run_algorithm",
    "run_averaged",
    "run_grid",
    "sweep_b_obj",
    "sweep_b_prc",
]
