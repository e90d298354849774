"""Unit tests for core value objects (Query, BudgetDistribution, formulas)."""

import pytest

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.data.query import parse_query
from repro.errors import ConfigurationError

from tests.online_oracle import formula_estimate


class TestQuery:
    def test_single_target(self):
        query = Query.single("bmi")
        assert query.targets == ("bmi",)
        assert query.weight("bmi") == 1.0

    def test_weights(self):
        query = Query(targets=("a", "b"), weights={"a": 2.0})
        assert query.weight("a") == 2.0
        assert query.weight("b") == 1.0

    def test_weight_for_non_target_rejected(self):
        with pytest.raises(ConfigurationError):
            Query(targets=("a",), weights={"b": 1.0})
        query = Query(targets=("a",))
        with pytest.raises(ConfigurationError):
            query.weight("b")

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            Query(targets=("a",), weights={"a": 0.0})

    def test_empty_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            Query(targets=())

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            Query(targets=("a", "a"))

    def test_from_parsed_includes_where_attributes(self):
        parsed = parse_query(
            "select calories, protein from cc where dessert = true"
        )
        query = Query.from_parsed(parsed)
        assert query.targets == ("calories", "protein", "dessert")


class TestBudgetDistribution:
    def test_zero_counts_normalized_away(self):
        budget = BudgetDistribution({"a": 3, "b": 0})
        assert budget.attributes == ("a",)
        assert budget["b"] == 0

    def test_total_questions(self):
        budget = BudgetDistribution({"a": 3, "b": 2})
        assert budget.total_questions == 5

    def test_cost(self):
        budget = BudgetDistribution({"a": 3, "b": 2})
        assert budget.cost({"a": 0.4, "b": 0.1}) == pytest.approx(1.4)

    def test_with_question(self):
        budget = BudgetDistribution({"a": 1})
        grown = budget.with_question("b")
        assert grown["b"] == 1
        assert budget["b"] == 0  # original untouched

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            BudgetDistribution({"a": -1})


class TestEstimationFormula:
    def test_estimate_applies_linear_form(self):
        budget = BudgetDistribution({"x": 2, "y": 1})
        formula = EstimationFormula(
            target="t", coefficients={"x": 2.0, "y": -1.0}, intercept=3.0, budget=budget
        )
        assert formula_estimate(formula, {"x": 1.0, "y": 2.0}) == pytest.approx(3.0)

    def test_missing_attributes_drop_out(self):
        budget = BudgetDistribution({"x": 1, "y": 1})
        formula = EstimationFormula(
            target="t", coefficients={"x": 2.0, "y": 5.0}, intercept=1.0, budget=budget
        )
        assert formula_estimate(formula, {"x": 2.0}) == pytest.approx(5.0)

    def test_str_shows_paper_notation(self):
        budget = BudgetDistribution({"heavy": 10})
        formula = EstimationFormula(
            target="bmi", coefficients={"heavy": 11.9}, intercept=10.6, budget=budget
        )
        rendered = str(formula)
        assert "bmi^(*)" in rendered
        assert "heavy^(10)" in rendered


class TestPreprocessingPlan:
    def _plan(self):
        budget = BudgetDistribution({"a": 2})
        formula = EstimationFormula("t", {"a": 1.0}, 0.0, budget)
        return PreprocessingPlan(
            query=Query.single("t"),
            attributes=("t", "a"),
            budget=budget,
            formulas={"t": formula},
            dismantle_rounds=5,
            preprocessing_cost=123.0,
        )

    def test_formula_lookup(self):
        plan = self._plan()
        assert plan.formula("t").target == "t"
        with pytest.raises(ConfigurationError):
            plan.formula("other")

    def test_describe_mentions_key_facts(self):
        description = self._plan().describe()
        assert "dismantling rounds: 5" in description
        assert "1.23$" in description
