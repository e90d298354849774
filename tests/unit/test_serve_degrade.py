"""Unit tests for the degradation annotations and interval widening."""

import math

import pytest

from repro.serve import DegradedResult, TermShortfall, evidence_confidence
from repro.serve.degrade import (
    DEGRADE_REASONS,
    NOMINAL_CONFIDENCE,
    Z_CONFIDENCE,
    order_reasons,
    population_variance,
    widened_interval,
)


class TestReasonOrdering:
    def test_precedence_is_deadline_budget_faults(self):
        assert DEGRADE_REASONS == ("deadline", "budget", "faults")
        assert order_reasons({"faults", "deadline", "budget"}) == (
            "deadline",
            "budget",
            "faults",
        )
        assert order_reasons({"faults", "budget"}) == ("budget", "faults")
        assert order_reasons({"deadline"}) == ("deadline",)
        assert order_reasons(set()) == ()

    def test_unknown_reasons_are_dropped(self):
        assert order_reasons({"budget", "mystery"}) == ("budget",)


class TestVariance:
    def test_population_variance_matches_definition(self):
        values = [1.0, 2.0, 3.0, 4.0]
        mean = 2.5
        expected = sum((v - mean) ** 2 for v in values) / 4
        assert population_variance(values) == pytest.approx(expected)

    def test_single_value_has_zero_variance(self):
        assert population_variance([7.0]) == 0.0


class TestWidenedInterval:
    def test_full_evidence_no_inflation(self):
        answers = [9.0, 11.0, 10.0, 10.0]
        interval = widened_interval(10.0, [(1.0, answers, 4, 25.0)])
        half = Z_CONFIDENCE * math.sqrt(population_variance(answers) / 4)
        assert interval == pytest.approx([10.0 - half, 10.0 + half])

    def test_partial_evidence_inflates_by_shortfall(self):
        answers = [9.0, 11.0]
        base = Z_CONFIDENCE * math.sqrt(population_variance(answers) / 2)
        interval = widened_interval(10.0, [(1.0, answers, 4, 25.0)])
        half = (interval[1] - interval[0]) / 2
        # 2 of 4 answers served: half-width inflates by sqrt(2).
        assert half == pytest.approx(base * math.sqrt(2.0))

    def test_zero_answers_fall_back_to_prior(self):
        prior = 25.0
        interval = widened_interval(10.0, [(2.0, [], 4, prior)])
        # No served answers anywhere: no inflation factor applies, the
        # prior is the whole story.
        half = Z_CONFIDENCE * math.sqrt(4.0 * prior)
        assert interval == pytest.approx([10.0 - half, 10.0 + half])

    def test_coefficient_scales_term_variance(self):
        answers = [9.0, 11.0, 10.0]
        narrow = widened_interval(0.0, [(1.0, answers, 3, 1.0)])
        wide = widened_interval(0.0, [(3.0, answers, 3, 1.0)])
        assert (wide[1] - wide[0]) == pytest.approx(3 * (narrow[1] - narrow[0]))

    def test_zero_demand_terms_contribute_nothing(self):
        assert widened_interval(5.0, [(1.0, [], 0, 100.0)]) == [5.0, 5.0]


class TestEvidenceConfidence:
    def test_full_evidence_is_nominal(self):
        assert evidence_confidence(8, 8) == NOMINAL_CONFIDENCE

    def test_scales_linearly_with_evidence(self):
        assert evidence_confidence(4, 8) == pytest.approx(NOMINAL_CONFIDENCE / 2)
        assert evidence_confidence(0, 8) == 0.0

    def test_zero_demand_defaults_to_nominal(self):
        assert evidence_confidence(0, 0) == NOMINAL_CONFIDENCE


class TestRoundtrips:
    def test_term_shortfall_roundtrip(self):
        shortfall = TermShortfall(3, "target", 6, 2)
        assert TermShortfall.from_dict(shortfall.to_dict()) == shortfall

    def test_degraded_result_roundtrip(self):
        annotation = DegradedResult(
            reason="budget",
            reasons=("budget", "faults"),
            completeness=0.625,
            confidence=0.59375,
            answers_demanded=16,
            answers_served=10,
            objects_requested=4,
            objects_evaluated=4,
            shortfalls=[TermShortfall(0, "target", 4, 1)],
            intervals={"target": [[1.0, 2.0], [0.5, 3.5]]},
        )
        assert DegradedResult.from_dict(annotation.to_dict()) == annotation

    def test_degraded_result_defaults_survive_sparse_payload(self):
        annotation = DegradedResult.from_dict(
            {"reason": "deadline", "completeness": 1.0, "confidence": 0.95}
        )
        assert annotation.reasons == ()
        assert annotation.shortfalls == []
        assert annotation.intervals == {}
