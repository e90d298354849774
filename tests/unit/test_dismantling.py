"""Unit tests for the next-dismantle scoring (expressions 4-9)."""

import numpy as np
import pytest

from repro.core.budget import TargetObjective
from repro.core.dismantling import (
    CandidateScore,
    DismantleScorer,
    probability_of_new_answer,
)
from repro.errors import ConfigurationError
from tests.unit.test_statistics import build_store


class TestProbabilityOfNewAnswer:
    def test_paper_formula(self):
        # (n+1)/(n^2+3n+2) for the first few n.
        assert probability_of_new_answer(0) == pytest.approx(1 / 2)
        assert probability_of_new_answer(1) == pytest.approx(2 / 6)
        assert probability_of_new_answer(2) == pytest.approx(3 / 12)

    def test_simplifies_to_one_over_n_plus_two(self):
        for n in range(20):
            assert probability_of_new_answer(n) == pytest.approx(1 / (n + 2))

    def test_strictly_decreasing(self):
        values = [probability_of_new_answer(n) for n in range(30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            probability_of_new_answer(-1)


class TestGain:
    def test_gain_formula(self):
        store = build_store(rho=0.8, noise=0.5)
        scorer = DismantleScorer(rho_constant=0.5)
        gain = scorer.gain(store, "t", "a")
        s_o = store.s_o_shrunk("t", "a")
        expected = 0.25 * s_o**2 / store.answer_variance("a")
        assert gain == pytest.approx(expected)

    def test_gain_zero_without_information(self):
        store = build_store()
        store.register_attribute("ghost", set())
        scorer = DismantleScorer()
        assert scorer.gain(store, "t", "ghost") == 0.0

    def test_fill_used_for_missing_s_o(self):
        store = build_store()
        store.register_attribute("ghost", set())
        scorer = DismantleScorer(rho_constant=0.5)
        gain = scorer.gain(store, "t", "ghost", s_o_fill=lambda s, t, a: 1.0)
        assert gain > 0.0

    def test_rho_constant_scales_gain(self):
        store = build_store()
        low = DismantleScorer(rho_constant=0.3).gain(store, "t", "a")
        high = DismantleScorer(rho_constant=0.7).gain(store, "t", "a")
        assert high == pytest.approx(low * (0.7 / 0.3) ** 2)

    def test_invalid_rho_constant_rejected(self):
        with pytest.raises(ConfigurationError):
            DismantleScorer(rho_constant=0.0)
        with pytest.raises(ConfigurationError):
            DismantleScorer(rho_constant=1.5)


class TestLoss:
    def _objective(self):
        return TargetObjective(
            weight=1.0,
            s_o=np.array([1.6]),
            s_a=np.array([[1.0]]),
            s_c=np.array([1.0]),
        )

    def test_loss_nonnegative(self):
        loss = DismantleScorer.loss([self._objective()], np.array([0.4]), 4.0, 0.4)
        assert loss >= 0.0

    def test_loss_shrinks_with_budget(self):
        # With a huge budget, one question less barely matters.
        small = DismantleScorer.loss([self._objective()], np.array([0.4]), 1.0, 0.4)
        large = DismantleScorer.loss([self._objective()], np.array([0.4]), 40.0, 0.4)
        assert large < small

    def test_empty_objectives_zero_loss(self):
        assert DismantleScorer.loss([], np.array([]), 4.0, 0.4) == 0.0


class TestScoring:
    def test_score_candidates_and_choose(self):
        """A candidate scores as the planner scores it: expression 4's
        Pr(new), the weighted gain and the shared loss term."""
        store = build_store(rho=0.8)
        s_o, s_a, s_c = store.assemble(["a"], "t")
        objectives = [TargetObjective(1.0, s_o, s_a, s_c)]
        scorer = DismantleScorer()
        loss = scorer.loss(objectives, np.array([0.4]), 4.0, 0.4)
        score = CandidateScore(
            "a",
            probability_new=probability_of_new_answer(2),
            gain=scorer.gain(store, "t", "a"),
            loss=loss,
        )
        assert score.probability_new == pytest.approx(1 / 4)
        assert score.score == pytest.approx(0.25 * (score.gain - loss))
        best = scorer.choose([score])
        assert best is score

    def test_choose_empty_returns_none(self):
        assert DismantleScorer.choose([]) is None

    def test_choose_prefers_higher_score(self):
        a = CandidateScore("a", probability_new=0.5, gain=1.0, loss=0.0)
        b = CandidateScore("b", probability_new=0.5, gain=3.0, loss=0.0)
        assert DismantleScorer.choose([a, b]).attribute == "b"

    def test_asked_often_scores_lower(self):
        fresh = CandidateScore("a", probability_new=0.5, gain=1.0, loss=0.0)
        stale = CandidateScore("a", probability_new=0.05, gain=1.0, loss=0.0)
        assert fresh.score > stale.score
