"""Budget sweeps and their inversion.

These produce the data behind the paper's line plots:

* Figures 1(a-c), 3(a), 4(a): error versus the preprocessing budget
  ``B_prc`` at a fixed per-object budget;
* Figures 1(d-f), 3(b), 4(b): error versus the per-object budget
  ``B_obj`` at a fixed preprocessing budget;
* Figure 2: the ``B_obj`` needed by each algorithm to reach given
  error targets (inversion of a ``B_obj`` sweep).

Both sweep functions build their grid points and run them through
:func:`~repro.experiments.parallel.run_grid`, which also owns the
optional :class:`~repro.experiments.parallel.ParallelConfig` fan-out
and the per-repetition checkpoint records behind ``checkpoint_dir`` /
``resume``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path

from repro.core.model import Query
from repro.domains.base import Domain
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ParallelConfig, run_grid
from repro.obs import Observability

#: A sweep result: algorithm -> list of (budget, mean error) points.
SweepSeries = dict[str, list[tuple[float, float]]]


def _series(
    algorithms: Sequence[str],
    axis_values: Sequence[float],
    merged: dict[tuple[int, str], float],
) -> SweepSeries:
    """Shape :func:`run_grid`'s cells into one series per algorithm."""
    return {
        name: [
            (axis_value, merged[(index, name)])
            for index, axis_value in enumerate(axis_values)
        ]
        for name in algorithms
    }


def sweep_b_prc(
    algorithms: Sequence[str],
    domain: Domain,
    query: Query,
    b_obj_cents: float,
    b_prc_values: Sequence[float],
    config: ExperimentConfig,
    parallel: ParallelConfig | None = None,
    obs: Observability | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> SweepSeries:
    """Error versus preprocessing budget at fixed ``B_obj``."""
    points = [(b_obj_cents, b_prc) for b_prc in b_prc_values]
    merged = run_grid(
        algorithms, domain, query, points, config, parallel, obs=obs,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )
    return _series(algorithms, b_prc_values, merged)


def sweep_b_obj(
    algorithms: Sequence[str],
    domain: Domain,
    query: Query,
    b_obj_values: Sequence[float],
    b_prc_cents: float,
    config: ExperimentConfig,
    parallel: ParallelConfig | None = None,
    obs: Observability | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> SweepSeries:
    """Error versus per-object budget at fixed ``B_prc``."""
    points = [(b_obj, b_prc_cents) for b_obj in b_obj_values]
    merged = run_grid(
        algorithms, domain, query, points, config, parallel, obs=obs,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )
    return _series(algorithms, b_obj_values, merged)


def required_budget(
    series: list[tuple[float, float]], target_error: float
) -> float:
    """Smallest swept budget whose error is at or below ``target_error``.

    This is how Figure 2 reads off "the B_obj necessary for achieving a
    target error" from a ``B_obj`` sweep.  Returns ``inf`` when the
    target is never reached within the sweep.
    """
    feasible = [budget for budget, error in series if error <= target_error]
    return min(feasible) if feasible else math.inf
