"""Property-based tests for crowd substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dismantling import probability_of_new_answer
from repro.crowd.pricing import Budget, PriceSchedule
from repro.crowd.recording import AnswerRecorder
from repro.crowd.verification import SequentialVerifier


class TestPricingProperties:
    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=20),
    )
    def test_budget_accounting_consistent(self, total, charges):
        budget = Budget(total)
        spent = 0.0
        for charge in charges:
            if budget.can_afford(charge):
                budget.charge(charge)
                spent += charge
        assert budget.spent == __import__("pytest").approx(spent)
        assert budget.remaining == __import__("pytest").approx(total - spent)
        assert budget.remaining >= -1e-9

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_price_scaling_linear(self, factor):
        import pytest

        base = PriceSchedule()
        scaled = base.scaled(factor)
        assert scaled.dismantle == pytest.approx(base.dismantle * factor)
        assert scaled.example == pytest.approx(base.example * factor)


class TestRecorderProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
        st.integers(0, 1000),
    )
    def test_prefix_stability_across_request_patterns(self, request_sizes, seed):
        """However answers are requested (in chunks of any size), the
        concatenated stream for one key is a stable sequence."""
        rng = np.random.default_rng(seed)
        recorder = AnswerRecorder()
        stream = []
        position = 0
        for size in request_sizes:
            chunk = recorder.value_answers(
                0, "a", position, size, lambda: float(rng.normal())
            )
            stream.extend(chunk)
            position += size
        total = sum(request_sizes)
        replay = recorder.value_answers(0, "a", 0, total, lambda: -1.0)
        assert replay == stream

    @given(st.integers(0, 10_000))
    def test_round_trip_serialization(self, seed):
        rng = np.random.default_rng(seed)
        recorder = AnswerRecorder()
        recorder.value_answers(seed % 7, "x", 0, 5, lambda: float(rng.normal()))
        restored = AnswerRecorder.from_dict(recorder.to_dict())
        assert restored.to_dict() == recorder.to_dict()


class TestVerifierProperties:
    @given(st.integers(0, 2**31 - 1), st.floats(min_value=0.55, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_always_terminates_within_cap(self, seed, reliability):
        rng = np.random.default_rng(seed)
        verifier = SequentialVerifier(reliability=reliability, max_votes=20)
        result = verifier.verify(lambda: bool(rng.random() < 0.5))
        assert 1 <= result.votes_used <= 20

    @given(st.integers(0, 500))
    def test_probability_of_new_answer_valid(self, n):
        p = probability_of_new_answer(n)
        assert 0.0 < p <= 0.5
