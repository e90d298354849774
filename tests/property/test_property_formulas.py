"""Property-based tests for the linear estimation formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import BudgetDistribution, EstimationFormula
from repro.core.regression import fit_linear_regression

from tests.online_oracle import formula_estimate

names = st.lists(
    st.from_regex(r"[a-z]{1,6}", fullmatch=True), min_size=1, max_size=4, unique=True
)


@st.composite
def linear_problem(draw):
    """A noiseless linear ground truth with random coefficients."""
    attributes = draw(names)
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    coefficients = {a: float(rng.uniform(-3, 3)) for a in attributes}
    intercept = float(rng.uniform(-5, 5))
    rows = []
    for _ in range(len(attributes) + 15):
        means = {a: float(rng.normal()) for a in attributes}
        label = intercept + sum(coefficients[a] * means[a] for a in attributes)
        rows.append((means, label))
    budget = BudgetDistribution({a: 1 for a in attributes})
    return attributes, coefficients, intercept, rows, budget


class TestLinearFormulaProperties:
    @given(linear_problem())
    @settings(max_examples=40, deadline=None)
    def test_exact_recovery_on_noiseless_data(self, problem):
        attributes, coefficients, intercept, rows, budget = problem
        formula = fit_linear_regression("t", rows, budget)
        for attribute in attributes:
            assert formula.coefficients[attribute] == pytest.approx(
                coefficients[attribute], abs=1e-6
            )
        assert formula.intercept == pytest.approx(intercept, abs=1e-6)

    @given(linear_problem(), st.floats(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_estimate_is_linear_in_inputs(self, problem, shift):
        attributes, _, _, rows, budget = problem
        formula = fit_linear_regression("t", rows, budget)
        base = {a: 1.0 for a in attributes}
        shifted = {a: 1.0 + shift for a in attributes}
        slope = sum(formula.coefficients.values())
        change = formula_estimate(formula, shifted) - formula_estimate(formula, base)
        assert change == pytest.approx(slope * shift, rel=1e-6, abs=1e-6)

    @given(linear_problem())
    @settings(max_examples=40, deadline=None)
    def test_dropping_all_attributes_gives_intercept(self, problem):
        _, _, _, rows, budget = problem
        formula = fit_linear_regression("t", rows, budget)
        assert formula_estimate(formula, {}) == formula.intercept


class TestFormulaRobustness:
    @given(
        st.dictionaries(
            st.from_regex(r"[a-z]{1,5}", fullmatch=True),
            st.floats(-1e3, 1e3),
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_estimate_never_crashes_on_partial_means(self, means):
        budget = BudgetDistribution({"x": 1, "y": 2})
        formula = EstimationFormula(
            "t", {"x": 1.5, "y": -0.5}, 2.0, budget
        )
        assert np.isfinite(formula_estimate(formula, means))
