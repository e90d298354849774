"""Unit tests for the greedy budget distribution."""

import numpy as np
import pytest

from repro.core.budget import (
    TargetObjective,
    find_budget_distribution,
    greedy_counts,
)
from repro.errors import ConfigurationError
from tests.allocator_oracle import max_explained_variance


def make_objective(s_o, s_a, s_c, weight=1.0):
    return TargetObjective(
        weight=weight,
        s_o=np.asarray(s_o, dtype=float),
        s_a=np.asarray(s_a, dtype=float),
        s_c=np.asarray(s_c, dtype=float),
    )


class TestGreedyCounts:
    def test_budget_respected(self):
        objective = make_objective([1.0, 0.5], np.eye(2), [1.0, 1.0])
        costs = np.array([0.4, 0.1])
        counts = greedy_counts([objective], costs, 2.0)
        assert counts @ costs <= 2.0 + 1e-9

    def test_prefers_informative_attribute(self):
        objective = make_objective([2.0, 0.1], np.eye(2), [1.0, 1.0])
        counts = greedy_counts([objective], np.array([0.4, 0.4]), 4.0)
        assert counts[0] > counts[1]

    def test_cost_efficiency_matters(self):
        # Equal informativeness but 4x cheaper: the cheap one wins.
        objective = make_objective(
            [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]
        )
        counts = greedy_counts([objective], np.array([0.4, 0.1]), 1.0)
        assert counts[1] > counts[0]

    def test_useless_attribute_gets_nothing(self):
        objective = make_objective([1.5, 0.0], np.eye(2), [1.0, 1.0])
        counts = greedy_counts([objective], np.array([0.4, 0.1]), 4.0)
        assert counts[1] == 0

    def test_tiny_budget_buys_nothing(self):
        objective = make_objective([1.0], np.eye(1), [1.0])
        counts = greedy_counts([objective], np.array([0.4]), 0.3)
        assert counts[0] == 0

    def test_multi_target_weighting(self):
        # Attribute 0 serves target A, attribute 1 serves target B.
        obj_a = make_objective([1.0, 0.0], np.eye(2), [1.0, 1.0], weight=10.0)
        obj_b = make_objective([0.0, 1.0], np.eye(2), [1.0, 1.0], weight=0.1)
        counts = greedy_counts([obj_a, obj_b], np.array([0.4, 0.4]), 2.0)
        assert counts[0] > counts[1]

    def test_no_objectives_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_counts([], np.array([0.4]), 1.0)

    def test_dimension_mismatch_rejected(self):
        objective = make_objective([1.0], np.eye(1), [1.0])
        with pytest.raises(ConfigurationError):
            greedy_counts([objective], np.array([0.4, 0.1]), 1.0)

    def test_non_positive_cost_rejected(self):
        objective = make_objective([1.0], np.eye(1), [1.0])
        with pytest.raises(ConfigurationError):
            greedy_counts([objective], np.array([0.0]), 1.0)


class TestFindBudgetDistribution:
    def test_named_result(self):
        objective = make_objective([1.5, 0.5], np.eye(2), [1.0, 1.0])
        budget = find_budget_distribution(
            [objective], ["big", "small"], np.array([0.4, 0.1]), 2.0
        )
        assert budget["big"] >= 1
        assert set(budget.attributes) <= {"big", "small"}


class TestMaxExplainedVariance:
    def test_monotone_in_budget(self):
        objective = make_objective([1.6, 0.8], np.eye(2), [1.0, 0.5])
        costs = np.array([0.4, 0.1])
        values = [
            max_explained_variance([objective], costs, budget)
            for budget in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_budget_is_zero(self):
        objective = make_objective([1.6], np.eye(1), [1.0])
        assert max_explained_variance([objective], np.array([0.4]), 0.0) == 0.0
