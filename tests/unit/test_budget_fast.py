"""Allocator parity against the naive oracle loop."""

import numpy as np
import pytest

from repro.core.budget import (
    TargetObjective,
    find_budget_distribution,
    greedy_counts,
)
from repro.obs.metrics import MetricsRegistry
from tests.allocator_oracle import (
    greedy_counts_oracle,
    greedy_counts_reference,
    max_explained_variance,
)


def random_objective(n: int, seed: int, weight: float = 1.0):
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=(n + 1, 3))
    values = loadings @ rng.normal(size=(3, 200))
    target = values[0]
    attributes = values[1:]
    return TargetObjective(
        weight,
        attributes @ target / 200,
        attributes @ attributes.T / 200,
        rng.uniform(0.01, 2.0, n),
    )


class TestFastMatchesReference:
    """Seeded property-style sweep: the incremental loop must be
    count-identical to the oracle."""

    @pytest.mark.parametrize("seed", range(30))
    def test_single_objective_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        objectives = [random_objective(n, seed=500 + seed)]
        costs = rng.uniform(0.1, 1.2, n)
        budget = float(rng.uniform(0.2, 3.0 * n))
        reference = greedy_counts_reference(objectives, costs, budget)
        fast = greedy_counts(objectives, costs, budget)
        assert np.array_equal(fast, reference), (seed, fast, reference)

    @pytest.mark.parametrize("seed", range(12))
    def test_multi_objective_heterogeneous_costs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        objectives = [
            random_objective(n, seed=2000 + 3 * seed + k, weight=w)
            for k, w in enumerate(rng.uniform(0.2, 2.0, 3))
        ]
        costs = rng.uniform(0.05, 2.0, n)
        budget = float(rng.uniform(1.0, 4.0 * n))
        reference = greedy_counts_reference(objectives, costs, budget)
        fast = greedy_counts(objectives, costs, budget)
        assert np.array_equal(fast, reference), (seed, fast, reference)

    def test_tiny_and_large_budgets(self):
        objectives = [random_objective(5, seed=7)]
        costs = np.full(5, 0.4)
        for budget in (0.0, 0.3, 0.4, 40.0):
            reference = greedy_counts_reference(objectives, costs, budget)
            fast = greedy_counts(objectives, costs, budget)
            assert np.array_equal(fast, reference), budget

    def test_singular_ridge_instance(self):
        """Collinear attributes + zero cost-variance: the singular/ridge
        regime must still allocate identically."""
        s_o = np.array([0.9, 0.9, 0.2])
        s_a = np.array([[1.0, 1.0, 0.1], [1.0, 1.0, 0.1], [0.1, 0.1, 1.0]])
        s_c = np.array([0.0, 0.0, 0.5])
        objectives = [TargetObjective(1.0, s_o, s_a, s_c)]
        costs = np.array([0.3, 0.3, 0.3])
        reference = greedy_counts_reference(objectives, costs, 2.4)
        fast = greedy_counts(objectives, costs, 2.4)
        assert np.array_equal(fast, reference)

    def test_dispatch_and_wrappers_agree(self):
        objectives = [random_objective(4, seed=11)]
        costs = np.array([0.5, 0.3, 0.7, 0.4])
        attributes = ["a", "b", "c", "d"]
        budget = 3.0
        counts = greedy_counts(objectives, costs, budget)
        reference = greedy_counts_reference(objectives, costs, budget)
        assert np.array_equal(counts, reference)
        distribution = find_budget_distribution(objectives, attributes, costs, budget)
        assert [distribution.counts.get(a, 0) for a in attributes] == list(counts)
        assert max_explained_variance(objectives, costs, budget) == pytest.approx(
            sum(objective.value(reference) for objective in objectives)
        )

    def test_gains_and_metrics_match_the_oracle_drop_in(self):
        """Reliability gains adjust the inputs of both loops alike, and
        the drop-in records the same allocator counters."""
        objectives = [random_objective(5, seed=13), random_objective(5, seed=14)]
        costs = np.array([0.5, 0.3, 0.7, 0.4, 0.6])
        gains = np.array([1.0, 1.0, 1.0, 4.0, 4.0])
        registries = [MetricsRegistry(), MetricsRegistry()]
        counts = greedy_counts(objectives, costs, 4.0, registries[0], gains)
        oracle = greedy_counts_oracle(objectives, costs, 4.0, registries[1], gains)
        assert np.array_equal(counts, oracle)
        assert not np.array_equal(counts, greedy_counts(objectives, costs, 4.0))
        assert registries[0].to_dict() == registries[1].to_dict()
