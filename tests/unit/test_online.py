"""Unit tests for the online evaluator and error metrics."""

import numpy as np
import pytest

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.core.online import (
    OnlineEvaluator,
    PlatformAnswerSource,
    default_weights,
    query_error,
    target_error,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.data.table import DataTable
from repro.errors import ConfigurationError

from tests.online_oracle import estimate_naively


def identity_plan(target: str, n_questions: int = 10) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


class TestOnlineEvaluator:
    def test_estimates_converge_to_truth(self, tiny_platform, tiny_domain):
        evaluator = OnlineEvaluator(tiny_platform, identity_plan("target", 60))
        estimates = evaluator.evaluate(range(10))
        truth = np.array([tiny_domain.true_value(o, "target") for o in range(10)])
        assert np.abs(estimates["target"] - truth).max() < 0.5

    def test_per_object_cost(self, tiny_platform):
        evaluator = OnlineEvaluator(tiny_platform, identity_plan("target", 10))
        assert evaluator.per_object_cost() == pytest.approx(4.0)  # 10 x 0.4c

    def test_multiple_plans_merge_targets(self, tiny_domain, tiny_platform):
        plans = [identity_plan("target", 4), identity_plan("helper", 4)]
        estimates = OnlineEvaluator(tiny_platform, plans).estimate_objects([0, 3, 0])
        assert set(estimates) == {"target", "helper"}
        # The oracle buys from an identically built platform.
        twin = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=3)
        expected = estimate_naively(plans, PlatformAnswerSource(twin), [0, 3, 0])
        for target, values in expected.estimates.items():
            assert estimates[target].tolist() == values
        assert tiny_platform.ledger.snapshot() == twin.ledger.snapshot()

    def test_overlapping_plans_rejected(self, tiny_platform):
        with pytest.raises(ConfigurationError):
            OnlineEvaluator(
                tiny_platform, [identity_plan("target"), identity_plan("target")]
            )

    def test_no_plans_rejected(self, tiny_platform):
        with pytest.raises(ConfigurationError):
            OnlineEvaluator(tiny_platform, [])

    def test_fill_table_adds_estimate_columns(self, tiny_platform):
        table = DataTable(object_ids=[0, 1, 2])
        evaluator = OnlineEvaluator(tiny_platform, identity_plan("target", 5))
        evaluator.fill_table(table)
        assert "target_estimate" in table.attributes
        assert table.has_value(1, "target_estimate")

    def test_budget_exhaustion_degrades_gracefully(self, tiny_domain):
        from repro.crowd.pricing import Budget

        platform = CrowdPlatform(tiny_domain, budget=Budget(2.0), seed=0)
        evaluator = OnlineEvaluator(platform, identity_plan("target", 10))
        estimates = evaluator.evaluate(range(5))  # 5 objects x 4c > 2c
        assert len(estimates["target"]) == 5  # still one estimate per object

    def test_budget_exhaustion_recorded_in_budget_skips(self, tiny_domain):
        # Regression: the evaluator used to swallow the truncation
        # with a bare break, leaving no trace that estimates were
        # partial.  The skip list mirrors fault_skips.
        from repro.crowd.pricing import Budget

        platform = CrowdPlatform(tiny_domain, budget=Budget(2.0), seed=0)
        evaluator = OnlineEvaluator(platform, identity_plan("target", 10))
        assert evaluator.budget_skips == []
        evaluator.evaluate(range(5))
        assert evaluator.budget_skips  # budget died mid-run
        skipped_objects = [obj for obj, _ in evaluator.budget_skips]
        assert all(0 <= obj < 5 for obj in skipped_objects)
        assert all(attr == "target" for _, attr in evaluator.budget_skips)
        # At most one skip per object: the per-plan loop breaks.
        assert len(skipped_objects) == len(set(skipped_objects))

    def test_invariant_setup_hoisted_out_of_object_loop(self):
        # Regression: the evaluator used to rebuild each plan's
        # (attribute, count) pairs and re-resolve every attribute's
        # price inside the per-object loop.  Both are invariant across
        # objects, so the platform must see value_price once per
        # attribute and exactly one ask_value per (object, attribute).
        from repro.obs import NULL_OBS

        class CountingPlatform:
            obs = NULL_OBS

            def __init__(self):
                self.value_price_calls = 0
                self.ask_value_calls = 0

            def value_price(self, attribute):
                self.value_price_calls += 1
                return 0.4

            def ask_value(self, object_id, attribute, n):
                self.ask_value_calls += 1
                return [1.0] * n

        platform = CountingPlatform()
        evaluator = OnlineEvaluator(platform, identity_plan("target", 4))
        evaluator.per_object_cost()
        evaluator.per_object_cost()
        evaluator.evaluate(range(10))
        assert platform.value_price_calls == 1  # cached, not per call
        assert platform.ask_value_calls == 10  # one fetch per object

    def test_budget_skips_feed_metrics_and_tracer(self, tiny_domain):
        from repro.crowd.pricing import Budget
        from repro.obs import Observability

        obs = Observability.collecting()
        platform = CrowdPlatform(
            tiny_domain, budget=Budget(2.0), seed=0, obs=obs
        )
        evaluator = OnlineEvaluator(platform, identity_plan("target", 10))
        evaluator.evaluate(range(5))
        assert obs.metrics.counter("online.objects") == 5
        assert obs.metrics.counter("online.budget_skips") == len(
            evaluator.budget_skips
        )
        assert obs.tracer.event_count("online.budget_skip") == len(
            evaluator.budget_skips
        )


class TestEstimateObjectsBatched:
    """Grouped means over a cache source must equal the naive loop."""

    def fill_cache(self, platform, attributes, objects, count):
        from repro.serve import AnswerCache, CacheReadSource
        from repro.serve.stream import DeterministicValueStream

        stream = DeterministicValueStream(platform)
        cache = AnswerCache()
        for object_id in objects:
            for attribute in attributes:
                cache.add(
                    object_id,
                    attribute,
                    stream.answers(object_id, attribute, 0, count),
                )
        return CacheReadSource(cache)

    def test_pure_source_matches_scalar_loop(self, tiny_platform):
        plans = [identity_plan("target", 5), identity_plan("helper", 3)]
        source = self.fill_cache(
            tiny_platform, ("target", "helper"), range(12), 5
        )
        batched = OnlineEvaluator(
            tiny_platform, plans, answer_source=source
        ).estimate_objects(list(range(12)))
        expected = estimate_naively(plans, source, range(12))
        assert set(batched) == set(expected.estimates) == {"target", "helper"}
        for target, values in expected.estimates.items():
            assert batched[target].tolist() == values

    def test_missing_answers_drop_terms_identically(self, tiny_platform):
        # Only even objects have cached answers: odd rows must fall back
        # to the intercept, bit for bit with the naive loop.
        source = self.fill_cache(
            tiny_platform, ("target",), range(0, 10, 2), 4
        )
        plan = identity_plan("target", 4)
        batched = OnlineEvaluator(
            tiny_platform, plan, answer_source=source
        ).estimate_objects(list(range(10)))
        expected = estimate_naively([plan], source, range(10))
        assert batched["target"].tolist() == expected.estimates["target"]
        assert batched["target"][1] == 0.0  # identity plan's intercept

    def test_object_counter_counts_once_per_object(self, tiny_domain):
        from repro.obs import Observability

        obs = Observability.collecting()
        platform = CrowdPlatform(
            tiny_domain, recorder=AnswerRecorder(), seed=3, obs=obs
        )
        source = self.fill_cache(platform, ("target",), range(6), 2)
        OnlineEvaluator(
            platform, identity_plan("target", 2), answer_source=source
        ).estimate_objects(list(range(6)))
        assert obs.metrics.counter("online.objects") == 6


class TestErrorMetrics:
    def test_target_error_zero_on_truth(self, tiny_domain):
        truth = np.array([tiny_domain.true_value(o, "target") for o in range(5)])
        assert target_error(tiny_domain, truth, range(5), "target") == 0.0

    def test_target_error_mse(self, tiny_domain):
        truth = np.array([tiny_domain.true_value(o, "target") for o in range(5)])
        off = truth + 2.0
        assert target_error(tiny_domain, off, range(5), "target") == pytest.approx(4.0)

    def test_misaligned_estimates_rejected(self, tiny_domain):
        with pytest.raises(ConfigurationError):
            target_error(tiny_domain, np.zeros(3), range(5), "target")

    def test_no_objects_rejected(self, tiny_domain):
        """An error over zero objects is a configuration fault, not NaN."""
        with pytest.raises(ConfigurationError):
            target_error(tiny_domain, np.zeros(0), range(0), "target")
        with pytest.raises(ConfigurationError):
            query_error(tiny_domain, {"target": np.zeros(0)}, [], Query.single("target"))

    def test_query_error_weights_targets(self, tiny_domain):
        query = Query(targets=("target", "helper"), weights={"target": 2.0})
        truth_t = np.array([tiny_domain.true_value(o, "target") for o in range(4)])
        truth_h = np.array([tiny_domain.true_value(o, "helper") for o in range(4)])
        estimates = {"target": truth_t + 1.0, "helper": truth_h + 1.0}
        error = query_error(tiny_domain, estimates, range(4), query)
        assert error == pytest.approx(2.0 * 1.0 + 1.0 * 1.0)

    def test_query_error_missing_target_rejected(self, tiny_domain):
        query = Query(targets=("target",))
        with pytest.raises(ConfigurationError):
            query_error(tiny_domain, {}, range(3), query)

    def test_default_weights_inverse_variance(self, tiny_domain):
        weights = default_weights(tiny_domain, ("target",))
        assert weights["target"] == pytest.approx(
            1.0 / tiny_domain.true_variance("target")
        )
