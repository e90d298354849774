"""Property-based tests for the objective and budget allocator."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.budget import TargetObjective, greedy_counts, greedy_counts_pair
from repro.core.objective import IncrementalObjective, explained_variance
from tests.allocator_oracle import greedy_counts_reference, max_explained_variance


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


@st.composite
def joint_objectives(draw):
    """1-2 targets over one shared set of 1-12 attributes.

    The targets share ``S_a`` and ``S_c`` and differ in ``S_o`` and
    weight, as the planner's joint objective does.  An uninformative
    draw zeroes every ``S_o``: the greedy then stops after one grant.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    targets = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    informative = draw(st.booleans())
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=(n + targets, 3))
    values = loadings @ rng.normal(size=(3, 200))
    attributes = values[targets:]
    s_a = attributes @ attributes.T / 200
    s_c = rng.uniform(0.01, 2.0, n)
    return [
        TargetObjective(
            float(rng.uniform(0.2, 2.0)),
            attributes @ values[t] / 200 * float(informative),
            s_a,
            s_c,
        )
        for t in range(targets)
    ]


@contextmanager
def recorded_forks():
    """Grant counts at which the paired pass copied its evaluators."""
    forks = []
    copy = IncrementalObjective.copy

    def spy(evaluator):
        forks.append(int(evaluator.counts.sum()))
        return copy(evaluator)

    with mock.patch.object(IncrementalObjective, "copy", spy):
        yield forks


def fork_case(forks: list[int]) -> str:
    if not forks:
        return "never forks"
    return "forks before the first grant" if forks[0] == 0 else "forks mid-run"


def assert_pair_matches_standalone_runs(objectives, costs, budget, reduced):
    with recorded_forks() as forks:
        full, short = greedy_counts_pair(objectives, costs, budget, reduced)
    assert np.array_equal(full, greedy_counts_reference(objectives, costs, budget))
    assert np.array_equal(short, greedy_counts_reference(objectives, costs, reduced))
    assert np.array_equal(full, greedy_counts(objectives, costs, budget))
    assert np.array_equal(short, greedy_counts(objectives, costs, reduced))
    return fork_case(forks)


class TestGreedyPairProperties:
    """The loss's paired pass equals two standalone runs, count for count."""

    @given(
        joint_objectives(),
        st.sampled_from(["two prices", "one price"]),
        st.floats(min_value=0.0, max_value=8.0),
        st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_pair_equals_two_runs(self, objectives, prices, budget, cost_seed):
        n = len(objectives[0].s_o)
        rng = np.random.default_rng(cost_seed)
        if prices == "two prices":
            costs = rng.choice([0.1, 0.4], size=n)
        else:
            costs = np.full(n, float(rng.choice([0.1, 0.4])))
        reduced = max(budget - 0.4, 0.0)
        event(assert_pair_matches_standalone_runs(objectives, costs, budget, reduced))

    @pytest.mark.parametrize(
        "case, s_o, costs, budget",
        [
            # 0.5c affords both prices, 0.1c only the cheap one.
            ("forks before the first grant", [0.8, 0.5], [0.4, 0.1], 0.5),
            # Equal sets until 3.6c runs dry after nine 0.4c grants.
            ("forks mid-run", [0.8, 0.5], [0.4, 0.4], 4.0),
            # No gain anywhere: both stop after one grant, sets equal.
            ("never forks", [0.0, 0.0], [0.4, 0.4], 4.0),
        ],
    )
    def test_each_fork_case_occurs(self, case, s_o, costs, budget):
        objectives = [
            TargetObjective(1.0, np.array(s_o), np.eye(2), np.array([1.0, 0.5]))
        ]
        costs = np.array(costs)
        reduced = max(budget - 0.4, 0.0)
        assert assert_pair_matches_standalone_runs(
            objectives, costs, budget, reduced
        ) == case
