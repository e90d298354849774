"""Unit tests for the baseline algorithms (plan shape, not quality)."""

import pytest

from repro.core.baselines import (
    NaiveAverage,
    make_full_planner,
    make_naive_estimations_planner,
    make_one_connection_planner,
    make_only_query_attributes_planner,
    make_simple_disq_planner,
    run_totally_separated,
)
from repro.core.disq import DisQParams
from repro.core.model import Query
from repro.errors import ConfigurationError


@pytest.fixture
def fast_params():
    return DisQParams(n1=20, max_rounds=30)


class TestNaiveAverage:
    def test_identity_plan(self, tiny_platform):
        query = Query.single("target")
        plan = NaiveAverage(tiny_platform, query, 4.0).preprocess()
        assert plan.budget["target"] == 10  # 4c / 0.4c numeric
        assert plan.formulas["target"].coefficients == {"target": 1.0}
        assert plan.preprocessing_cost == 0.0
        assert plan.dismantle_rounds == 0

    def test_budget_split_by_weights(self, tiny_platform):
        query = Query(
            targets=("target", "helper"), weights={"target": 3.0, "helper": 1.0}
        )
        plan = NaiveAverage(tiny_platform, query, 4.0).preprocess()
        assert plan.budget["target"] > plan.budget["helper"]
        total_cost = plan.budget.cost({"target": 0.4, "helper": 0.4})
        assert total_cost <= 4.0

    def test_tiny_budget_buys_single_cheapest_question(self, tiny_platform):
        query = Query(targets=("target", "flag_a"))
        plan = NaiveAverage(tiny_platform, query, 0.15).preprocess()
        assert plan.budget.total_questions == 1
        assert plan.budget["flag_a"] == 1  # the binary one is affordable

    def test_non_positive_budget_rejected(self, tiny_platform):
        with pytest.raises(ConfigurationError):
            NaiveAverage(tiny_platform, Query.single("target"), 0.0)


class TestSimpleDisQ:
    def test_no_dismantling_happens(self, tiny_platform, fast_params):
        planner = make_simple_disq_planner(
            tiny_platform, Query.single("target"), 4.0, 800.0, fast_params
        )
        plan = planner.preprocess()
        assert plan.dismantle_rounds == 0
        assert set(plan.attributes) == {"target"}


class TestOnlyQueryAttributes:
    def test_candidates_restricted_to_query(self, tiny_platform, fast_params):
        planner = make_only_query_attributes_planner(
            tiny_platform, Query.single("target"), 4.0, 1500.0, fast_params
        )
        plan = planner.preprocess()
        # All dismantling questions were asked about the target itself.
        asked = {asked_attr for asked_attr, _, _ in plan.discovery_log}
        assert asked <= {"target"}


class TestPairingVariants:
    def test_full_pairs_all_targets(self, tiny_platform, fast_params):
        planner = make_full_planner(
            tiny_platform, Query(targets=("target", "helper")), 4.0, 2500.0, fast_params
        )
        planner.preprocess()
        stats = planner.stats
        for attribute in stats.attributes:
            assert stats.pairings[attribute] == ("target", "helper")

    def test_one_connection_single_pool_for_new(self, tiny_platform, fast_params):
        planner = make_one_connection_planner(
            tiny_platform, Query(targets=("target", "helper")), 4.0, 2500.0, fast_params
        )
        planner.preprocess()
        stats = planner.stats
        new_attributes = [
            a for a in stats.attributes if a not in ("target", "helper")
        ]
        for attribute in new_attributes:
            assert len(stats.pairings[attribute]) == 1

    def test_naive_estimations_uses_mean_fill(self, tiny_platform, fast_params):
        from repro.core.pairing import NaiveMeanEstimator

        planner = make_naive_estimations_planner(
            tiny_platform, Query.single("target"), 4.0, 800.0, fast_params
        )
        assert isinstance(planner._fill, NaiveMeanEstimator)


class TestTotallySeparated:
    def test_one_plan_per_target(self, tiny_platform, fast_params):
        query = Query(targets=("target", "helper"))
        plans = run_totally_separated(tiny_platform, query, 4.0, 1600.0, fast_params)
        assert len(plans) == 2
        assert plans[0].query.targets == ("target",)
        assert plans[1].query.targets == ("helper",)

    def test_budgets_split_equally(self, tiny_platform, fast_params):
        query = Query(targets=("target", "helper"))
        plans = run_totally_separated(tiny_platform, query, 4.0, 1600.0, fast_params)
        for plan in plans:
            cost = plan.budget.cost(
                {a: tiny_platform.value_price(a) for a in plan.budget.attributes}
            )
            assert cost <= 2.0 + 1e-9
            assert plan.preprocessing_cost <= 800.0 + 1e-9
