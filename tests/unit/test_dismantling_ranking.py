"""Unit tests for the negative-score ranking and the exhaustion floor."""

from repro.core.dismantling import ranking_key

from tests.unit.test_dismantling import planner_choice


class TestNegativeScoreRanking:
    def test_positive_scores_ranked_by_score(self):
        candidates = {"a": (0.5, 2.0, 1.0), "b": (0.4, 5.0, 1.0)}
        assert planner_choice(candidates) == "b"

    def test_positive_beats_any_negative(self):
        candidates = {"a": (0.01, 1.1, 1.0), "b": (0.5, 0.5, 1.0)}
        assert planner_choice(candidates) == "a"

    def test_all_negative_prefers_fresh_informative_candidate(self):
        # The raw argmax of Pr*(G-L) would pick the exhausted 'stale'
        # (smallest Pr minimizes the negative product); the ranking must
        # pick the fresh, more informative candidate instead.
        candidates = {"stale": (0.001, 0.5, 1.0), "fresh": (0.5, 0.4, 1.0)}

        def raw_score(name: str) -> float:
            probability, gain, loss = candidates[name]
            return probability * (gain - loss)

        assert max(candidates, key=raw_score) == "stale"  # the raw-argmax trap
        assert planner_choice(candidates) == "fresh"

    def test_ranking_tuple_structure(self):
        assert ranking_key(0.5, 3.0, 1.0)[0] == 1
        negative = ranking_key(0.5, 0.5, 1.0)
        assert negative[0] == 0
        assert negative[1] == 0.5 * 0.5  # Pr * G


class TestExhaustionFloor:
    def test_exhausted_attributes_leave_candidate_set(self, tiny_domain):
        from repro.core.disq import DisQParams, DisQPlanner
        from repro.core.model import Query
        from repro.crowd.platform import CrowdPlatform
        from repro.crowd.recording import AnswerRecorder

        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        params = DisQParams(n1=20, min_probability_new=0.05)  # floor at ~18 asks
        planner = DisQPlanner(platform, Query.single("target"), 2.0, 2000.0, params)
        planner.preprocess()
        max_asked = max(planner._question_counts.values())
        assert max_asked <= 19  # 1/(n+2) >= 0.05 -> n <= 18

    def test_floor_zero_disables_exhaustion(self):
        from repro.core.disq import DisQParams

        params = DisQParams(min_probability_new=0.0)
        assert params.min_probability_new == 0.0
