"""Property-based tests for the objective and budget allocator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import (
    TargetObjective,
    greedy_counts,
    max_explained_variance,
)
from repro.core.objective import explained_variance
from tests.allocator_oracle import greedy_counts_reference


@st.composite
def statistics_trio(draw, max_attributes=4):
    """A consistent random (S_o, S_a, S_c, target_variance) tuple.

    Built from actual random vectors so Cauchy-Schwarz consistency holds
    by construction (the regime the estimators feed the objective).
    """
    n = draw(st.integers(min_value=1, max_value=max_attributes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=(n + 1, 3))
    values = loadings @ rng.normal(size=(3, 200))
    target = values[0]
    attributes = values[1:]
    # Signed covariances from real random vectors: automatically
    # Cauchy-Schwarz consistent and PSD, like the store's estimates.
    s_o = attributes @ target / 200
    s_a = attributes @ attributes.T / 200
    s_c = rng.uniform(0.01, 2.0, n)
    return s_o, s_a, s_c, float(target @ target / 200)


class TestObjectiveProperties:
    @given(statistics_trio(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_explained_variance_nonnegative(self, trio, count):
        s_o, s_a, s_c, _ = trio
        counts = np.full(len(s_o), count)
        assert explained_variance(s_o, s_a, s_c, counts) >= 0.0

    @given(statistics_trio())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_counts(self, trio):
        s_o, s_a, s_c, _ = trio
        small = np.ones(len(s_o), dtype=int)
        large = small * 10
        assert explained_variance(s_o, s_a, s_c, large) >= (
            explained_variance(s_o, s_a, s_c, small) - 1e-9
        )

    @given(statistics_trio())
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_target_variance(self, trio):
        s_o, s_a, s_c, target_variance = trio
        counts = np.full(len(s_o), 50)
        value = explained_variance(s_o, s_a, s_c, counts)
        # True-moment statistics can never explain more than the target
        # variance (up to numerical slack on near-singular S_a).
        assert value <= target_variance * 1.05 + 1e-6


class TestGreedyProperties:
    @given(
        statistics_trio(),
        st.floats(min_value=0.1, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_never_exceeded(self, trio, budget):
        s_o, s_a, s_c, _ = trio
        objective = TargetObjective(1.0, s_o, s_a, s_c)
        costs = np.full(len(s_o), 0.4)
        counts = greedy_counts([objective], costs, budget)
        assert counts @ costs <= budget + 1e-9
        assert (counts >= 0).all()

    @given(statistics_trio())
    @settings(max_examples=40, deadline=None)
    def test_value_monotone_in_budget(self, trio):
        s_o, s_a, s_c, _ = trio
        objective = TargetObjective(1.0, s_o, s_a, s_c)
        costs = np.full(len(s_o), 0.4)
        small = max_explained_variance([objective], costs, 1.0)
        large = max_explained_variance([objective], costs, 5.0)
        assert large >= small - 1e-9

    @given(
        statistics_trio(),
        st.floats(min_value=0.1, max_value=8.0),
        st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference_counts(self, trio, budget, cost_seed):
        """The incremental allocator is count-identical to the naive
        oracle loop on arbitrary statistics, costs and budgets."""
        s_o, s_a, s_c, _ = trio
        objective = TargetObjective(1.0, s_o, s_a, s_c)
        costs = np.random.default_rng(cost_seed).uniform(0.1, 1.0, len(s_o))
        reference = greedy_counts_reference([objective], costs, budget)
        fast = greedy_counts([objective], costs, budget)
        assert (fast == reference).all()

    @given(statistics_trio(), st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_weights_scales_value_not_allocation(self, trio, scale):
        s_o, s_a, s_c, _ = trio
        base = TargetObjective(1.0, s_o, s_a, s_c)
        scaled = TargetObjective(scale, s_o, s_a, s_c)
        costs = np.full(len(s_o), 0.4)
        counts_base = greedy_counts([base], costs, 3.0)
        counts_scaled = greedy_counts([scaled], costs, 3.0)
        assert (counts_base == counts_scaled).all()
