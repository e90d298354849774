"""Unit tests for quadratic assembly formulas."""

import numpy as np
import pytest

from repro.core.model import BudgetDistribution
from repro.core.nonlinear import (
    QuadraticFormula,
    fit_quadratic_regression,
    quadratic_feature_names,
)
from repro.errors import ConfigurationError


class TestFeatureNames:
    def test_linear_then_quadratic(self):
        features = quadratic_feature_names(("x", "y"))
        assert features == [("x",), ("y",), ("x", "x"), ("x", "y"), ("y", "y")]

    def test_empty(self):
        assert quadratic_feature_names(()) == []


def quadratic_rows(n=300, seed=0):
    """y = 2x + 3z + 1.5xz - z^2 + 4, noiseless."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        x, z = rng.normal(size=2)
        y = 2 * x + 3 * z + 1.5 * x * z - z**2 + 4
        rows.append(({"x": float(x), "z": float(z)}, float(y)))
    return rows


class TestFit:
    def test_recovers_quadratic_relation(self):
        budget = BudgetDistribution({"x": 2, "z": 2})
        rows = quadratic_rows()
        formula = fit_quadratic_regression("t", rows, budget, ridge=1e-6)
        for means, label in quadratic_rows(n=20, seed=99):
            assert formula.estimate(means) == pytest.approx(label, abs=0.05)

    def test_quadratic_beats_linear_on_quadratic_truth(self):
        from repro.core.regression import fit_linear_regression, training_mse

        budget = BudgetDistribution({"x": 2, "z": 2})
        rows = quadratic_rows()
        linear = fit_linear_regression("t", rows, budget)
        quadratic = fit_quadratic_regression("t", rows, budget, ridge=1e-6)
        test_rows = quadratic_rows(n=100, seed=7)
        linear_mse = training_mse(linear, test_rows)
        quadratic_mse = float(
            np.mean([(quadratic.estimate(m) - y) ** 2 for m, y in test_rows])
        )
        assert quadratic_mse < 0.2 * linear_mse

    def test_ridge_stabilizes_small_samples(self):
        budget = BudgetDistribution({"x": 1, "z": 1, "w": 1})
        rng = np.random.default_rng(1)
        rows = [
            (
                {"x": float(rng.normal()), "z": float(rng.normal()), "w": float(rng.normal())},
                float(rng.normal()),
            )
            for _ in range(12)
        ]
        formula = fit_quadratic_regression("t", rows, budget, ridge=1.0)
        prediction = formula.estimate({"x": 3.0, "z": -3.0, "w": 3.0})
        assert np.isfinite(prediction)
        assert abs(prediction) < 50

    def test_empty_support_constant(self):
        formula = fit_quadratic_regression(
            "t", [({}, 2.0), ({}, 4.0)], BudgetDistribution({})
        )
        assert formula.estimate({}) == pytest.approx(3.0)

    def test_missing_monomials_drop_out(self):
        budget = BudgetDistribution({"x": 1, "z": 1})
        rows = quadratic_rows(n=60)
        formula = fit_quadratic_regression("t", rows, budget)
        # Only x available: z terms (and the xz interaction) drop.
        value = formula.estimate({"x": 1.0})
        assert np.isfinite(value)

    def test_no_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_quadratic_regression("t", [], BudgetDistribution({"x": 1}))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_quadratic_regression(
                "t", [({}, 1.0)], BudgetDistribution({}), ridge=-1.0
            )

    def test_str_shows_budget_counts(self):
        budget = BudgetDistribution({"x": 3})
        formula = fit_quadratic_regression(
            "t", [({"x": float(i)}, float(i)) for i in range(10)], budget
        )
        assert "x^(3)" in str(formula)


class TestPlannerIntegration:
    def test_quadratic_family_produces_quadratic_formulas(self, tiny_domain):
        from repro.core.disq import DisQParams, DisQPlanner
        from repro.core.model import Query
        from repro.crowd.platform import CrowdPlatform
        from repro.crowd.recording import AnswerRecorder

        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        params = DisQParams(n1=25, formula_family="quadratic", max_rounds=20)
        plan = DisQPlanner(
            platform, Query.single("target"), 2.0, 1200.0, params
        ).preprocess()
        formula = plan.formulas["target"]
        assert isinstance(formula, QuadraticFormula)

        # And the online evaluator applies the duck-typed formula exactly
        # as the naive loop does: bought from the crowd (the oracle's
        # fork replays the same recorded answers) ...
        from repro.core.online import OnlineEvaluator, PlatformAnswerSource
        from repro.serve import AnswerCache, CacheReadSource
        from repro.serve.stream import DeterministicValueStream

        from tests.online_oracle import estimate_naively

        objects = list(range(10))
        estimates = OnlineEvaluator(platform.fork(), plan).evaluate(objects)
        expected = estimate_naively(
            [plan], PlatformAnswerSource(platform.fork()), objects
        )
        assert estimates["target"].tolist() == expected.estimates["target"]

        # ... and read from a serving cache, where one object has no
        # answers and another has fewer than its budget asks for.
        stream = DeterministicValueStream(platform)
        cache = AnswerCache()
        for object_id in objects[1:]:
            for attribute in plan.budget.attributes:
                count = plan.budget[attribute] - (object_id == 2)
                cache.add(
                    object_id, attribute, stream.answers(object_id, attribute, 0, count)
                )
        source = CacheReadSource(cache)
        cached = OnlineEvaluator(platform, plan, answer_source=source).evaluate(objects)
        expected = estimate_naively([plan], source, objects)
        assert cached["target"].tolist() == expected.estimates["target"]
        # A fold over linear coefficient keys alone returns the intercept.
        assert cached["target"][0] == formula.intercept
        assert (cached["target"][1:] != formula.intercept).all()

    def test_unknown_family_rejected(self):
        from repro.core.disq import DisQParams

        with pytest.raises(ConfigurationError):
            DisQParams(formula_family="cubic")
