"""Unit tests for the price schedule, budget and cost ledger."""

import math

import pytest

from repro.crowd.pricing import CATEGORIES, Budget, CostLedger, PriceSchedule
from repro.errors import BudgetExhaustedError, ConfigurationError


class TestPriceSchedule:
    def test_paper_defaults(self):
        prices = PriceSchedule()
        assert prices.binary_value == pytest.approx(0.1)
        assert prices.numeric_value == pytest.approx(0.4)
        assert prices.dismantle == pytest.approx(1.5)
        assert prices.example == pytest.approx(5.0)

    def test_value_price_dispatches_on_kind(self):
        prices = PriceSchedule()
        assert prices.value_price(binary=True) == prices.binary_value
        assert prices.value_price(binary=False) == prices.numeric_value

    def test_scaled_multiplies_every_price(self):
        prices = PriceSchedule().scaled(2.0)
        assert prices.binary_value == pytest.approx(0.2)
        assert prices.numeric_value == pytest.approx(0.8)
        assert prices.dismantle == pytest.approx(3.0)
        assert prices.verification == pytest.approx(0.2)
        assert prices.example == pytest.approx(10.0)

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ConfigurationError):
            PriceSchedule().scaled(0.0)
        with pytest.raises(ConfigurationError):
            PriceSchedule().scaled(-1.0)

    def test_negative_price_rejected(self):
        with pytest.raises(ConfigurationError):
            PriceSchedule(binary_value=-0.1)

    def test_non_finite_price_rejected(self):
        with pytest.raises(ConfigurationError):
            PriceSchedule(example=math.inf)


class TestBudget:
    def test_initial_state(self):
        budget = Budget(100.0)
        assert budget.total == 100.0
        assert budget.spent == 0.0
        assert budget.remaining == 100.0

    def test_charge_decrements_remaining(self):
        budget = Budget(10.0)
        budget.charge(4.0)
        assert budget.spent == pytest.approx(4.0)
        assert budget.remaining == pytest.approx(6.0)

    def test_restore_spent(self):
        budget = Budget(10.0)
        budget.restore_spent(7.5)
        assert budget.spent == pytest.approx(7.5)
        assert budget.remaining == pytest.approx(2.5)

    def test_restore_spent_rejects_bad_values(self):
        budget = Budget(10.0)
        for bad in (-1.0, 11.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                budget.restore_spent(bad)

    def test_charge_beyond_budget_raises(self):
        budget = Budget(1.0)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            budget.charge(2.0)
        assert excinfo.value.requested == 2.0
        assert excinfo.value.remaining == pytest.approx(1.0)

    def test_failed_charge_does_not_spend(self):
        budget = Budget(1.0)
        with pytest.raises(BudgetExhaustedError):
            budget.charge(2.0)
        assert budget.spent == 0.0

    def test_exact_budget_spendable_despite_float_accumulation(self):
        budget = Budget(1.0)
        for _ in range(10):
            budget.charge(0.1)
        assert budget.remaining == pytest.approx(0.0, abs=1e-9)

    def test_can_afford(self):
        budget = Budget(5.0)
        assert budget.can_afford(5.0)
        assert not budget.can_afford(5.1)

    def test_negative_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget(5.0).charge(-1.0)

    def test_negative_total_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget(-1.0)

    def test_infinite_total_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget(math.inf)

    def test_repr_mentions_remaining(self):
        assert "remaining" in repr(Budget(3.0))


class TestCostLedger:
    def test_categories_initialized(self):
        ledger = CostLedger()
        assert set(ledger.spent_by_category) == set(CATEGORIES)
        assert ledger.total_spent == 0.0
        assert ledger.total_questions == 0

    def test_record_accumulates(self):
        ledger = CostLedger()
        ledger.record("value", 0.4, 1)
        ledger.record("value", 0.8, 2)
        assert ledger.spent_by_category["value"] == pytest.approx(1.2)
        assert ledger.questions_by_category["value"] == 3
        assert ledger.total_spent == pytest.approx(1.2)
        assert ledger.total_questions == 3

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError):
            CostLedger().record("bribe", 1.0)

    def test_negative_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            CostLedger().record("value", -0.1)

    def test_snapshot_is_a_copy(self):
        ledger = CostLedger()
        snapshot = ledger.snapshot()
        snapshot["spent_by_category"]["value"] = 99.0
        snapshot["questions_by_category"]["value"] = 7
        assert ledger.spent_by_category["value"] == 0.0
        assert ledger.questions_by_category["value"] == 0

    def test_snapshot_restore_round_trip(self):
        ledger = CostLedger()
        ledger.record("value", 0.8, 2)
        ledger.record("dismantle", 1.5, 1)
        ledger.record_retry("value", 3)
        ledger.record_abandon("example")
        snapshot = ledger.snapshot()
        other = CostLedger()
        other.restore(snapshot)
        assert other.snapshot() == snapshot
        assert other.total_spent == pytest.approx(ledger.total_spent)
        assert other.total_questions == ledger.total_questions
        assert other.total_retries == ledger.total_retries
        assert other.total_abandons == ledger.total_abandons
