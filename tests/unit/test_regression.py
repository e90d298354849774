"""Unit tests for the SVD regression learner."""

import numpy as np
import pytest

from repro.core.model import BudgetDistribution
from repro.core.regression import (
    fit_linear_regression,
    recommended_training_size,
)
from repro.errors import ConfigurationError

from tests.online_oracle import formula_estimate


class TestRecommendedTrainingSize:
    def test_green_rule(self):
        assert recommended_training_size(0) == 50
        assert recommended_training_size(5) == 90
        assert recommended_training_size(10) == 130

    def test_negative_clamped(self):
        assert recommended_training_size(-3) == 50


def noiseless_rows(coefficients, intercept, n=60, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        means = {name: float(rng.normal()) for name in coefficients}
        label = intercept + sum(coefficients[a] * means[a] for a in coefficients)
        rows.append((means, label))
    return rows


class TestFit:
    def test_recovers_exact_linear_relation(self):
        budget = BudgetDistribution({"x": 2, "y": 1})
        rows = noiseless_rows({"x": 2.5, "y": -1.0}, intercept=3.0)
        formula = fit_linear_regression("t", rows, budget)
        assert formula.coefficients["x"] == pytest.approx(2.5, abs=1e-8)
        assert formula.coefficients["y"] == pytest.approx(-1.0, abs=1e-8)
        assert formula.intercept == pytest.approx(3.0, abs=1e-8)

    def test_noisy_fit_near_truth(self):
        rng = np.random.default_rng(1)
        budget = BudgetDistribution({"x": 1})
        rows = []
        for _ in range(300):
            x = float(rng.normal())
            rows.append(({"x": x}, 2.0 * x + 1.0 + float(rng.normal(0, 0.1))))
        formula = fit_linear_regression("t", rows, budget)
        assert formula.coefficients["x"] == pytest.approx(2.0, abs=0.05)

    def test_features_limited_to_budget_support(self):
        budget = BudgetDistribution({"x": 1})
        rows = [({"x": 1.0, "y": 5.0}, 2.0), ({"x": 2.0, "y": 7.0}, 4.0)]
        formula = fit_linear_regression("t", rows, budget)
        assert "y" not in formula.coefficients

    def test_empty_budget_gives_constant_predictor(self):
        budget = BudgetDistribution({})
        rows = [({}, 3.0), ({}, 5.0)]
        formula = fit_linear_regression("t", rows, budget)
        assert formula.coefficients == {}
        assert formula.intercept == pytest.approx(4.0)

    def test_missing_feature_in_row_rejected(self):
        budget = BudgetDistribution({"x": 1})
        with pytest.raises(ConfigurationError):
            fit_linear_regression("t", [({}, 1.0)], budget)

    def test_no_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_linear_regression("t", [], BudgetDistribution({"x": 1}))

    def test_underdetermined_system_still_fits(self):
        # Fewer rows than features: lstsq returns the min-norm solution.
        budget = BudgetDistribution({"a": 1, "b": 1, "c": 1})
        rows = [({"a": 1.0, "b": 2.0, "c": 3.0}, 6.0)]
        formula = fit_linear_regression("t", rows, budget)
        assert formula_estimate(formula, rows[0][0]) == pytest.approx(6.0, abs=1e-6)

    def test_perfect_fit_predicts_every_row(self):
        budget = BudgetDistribution({"x": 1})
        rows = noiseless_rows({"x": 1.0}, intercept=0.0, n=30)
        formula = fit_linear_regression("t", rows, budget)
        errors = [(formula_estimate(formula, means) - label) ** 2 for means, label in rows]
        assert float(np.mean(errors)) == pytest.approx(0.0, abs=1e-12)

    def test_collinear_features_stable(self):
        budget = BudgetDistribution({"a": 1, "b": 1})
        rows = [({"a": float(i), "b": float(i)}, 2.0 * i) for i in range(20)]
        formula = fit_linear_regression("t", rows, budget)
        prediction = formula_estimate(formula, {"a": 5.0, "b": 5.0})
        assert prediction == pytest.approx(10.0, abs=1e-6)
