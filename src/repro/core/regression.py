"""Learning the linear regression ``l`` (Algorithm 1, lines 7-8).

The paper learns ``l`` by minimizing squared error over a training set
that *mirrors the online phase*: each attribute of each training
example is estimated from exactly ``b(a)`` crowd answers, so the
regression sees the same noise level it will face online.  The solver
is SVD-based least squares (Golub & Reinsch), used as a black box —
here :func:`numpy.linalg.lstsq`.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import BudgetDistribution, EstimationFormula
from repro.errors import ConfigurationError

#: Training sample: averaged crowd answers per attribute, plus the label.
TrainingRow = tuple[dict[str, float], float]


def recommended_training_size(n_attributes: int) -> int:
    """The paper's ``N_2 = 50 + 8 * #attributes`` rule (Green 1991)."""
    return 50 + 8 * max(n_attributes, 0)


def fit_linear_regression(
    target: str,
    rows: list[TrainingRow],
    budget: BudgetDistribution,
) -> EstimationFormula:
    """Least-squares fit of a linear formula for one target.

    Parameters
    ----------
    target:
        The target attribute the formula estimates.
    rows:
        Training samples of ``({attribute: mean answer}, true target)``.
        Only attributes in the budget's support become features.
    budget:
        The online budget distribution; its support defines the feature
        set and is embedded in the returned formula.
    """
    features = list(budget.attributes)
    if not rows:
        raise ConfigurationError(f"no training rows for target {target!r}")
    if not features:
        # Degenerate but legal: a constant predictor (the label mean).
        labels = np.array([label for _, label in rows], dtype=float)
        return EstimationFormula(
            target=target,
            coefficients={},
            intercept=float(labels.mean()),
            budget=budget,
        )

    design = np.ones((len(rows), len(features) + 1), dtype=float)
    labels = np.empty(len(rows), dtype=float)
    for row_index, (means, label) in enumerate(rows):
        labels[row_index] = label
        for column, attribute in enumerate(features):
            if attribute not in means:
                raise ConfigurationError(
                    f"training row {row_index} lacks attribute {attribute!r}"
                )
            design[row_index, column] = means[attribute]

    solution, _, _, _ = np.linalg.lstsq(design, labels, rcond=None)
    coefficients = {
        attribute: float(solution[column]) for column, attribute in enumerate(features)
    }
    return EstimationFormula(
        target=target,
        coefficients=coefficients,
        intercept=float(solution[-1]),
        budget=budget,
    )


def training_mse(formula: EstimationFormula, rows: list[TrainingRow]) -> float:
    """Mean squared error of a formula over training rows (diagnostics)."""
    if not rows:
        return float("nan")
    errors = [
        (formula.estimate(means) - label) ** 2 for means, label in rows
    ]
    return float(np.mean(errors))
