"""Unit tests for reliability-weighted aggregation (repro.agg)."""

import numpy as np
import pytest

from repro.agg import (
    ReliabilityAggregator,
    ReliabilityModel,
    UNATTRIBUTED,
    effective_sample_size,
    make_aggregator,
    weighted_mean,
)
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.durability.chaos import SimulatedCrash
from repro.errors import ConfigurationError
from repro.serve import QueryRequest, ServeEngine

from tests.conftest import KillAtNth

pytestmark = pytest.mark.agg


class TestWeightedMean:
    def test_equal_weights_bitwise_uniform(self):
        values = [0.1, 0.2, 0.3, 0.7, 1.9]
        assert weighted_mean(values, [2.0] * 5) == float(np.mean(values))

    def test_unequal_weights_permutation_invariant(self):
        values = [0.1, 0.7, -3.2, 11.0]
        weights = [1.0, 0.25, 4.0, 0.5]
        reference = weighted_mean(values, weights)
        order = [3, 1, 0, 2]
        assert (
            weighted_mean([values[i] for i in order], [weights[i] for i in order])
            == reference
        )

    def test_down_weighting_moves_toward_trusted(self):
        assert weighted_mean([0.0, 10.0], [9.0, 1.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_mean([], [])


class TestEffectiveSampleSize:
    def test_equal_weights_is_n(self):
        assert effective_sample_size([3.0] * 7) == pytest.approx(7.0)

    def test_concentrated_weights_shrink(self):
        assert effective_sample_size([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_weights(self):
        assert effective_sample_size([0.0, 0.0]) == 0.0


class TestMakeAggregator:
    def test_all_names_construct(self):
        # The paper's uniform mean is the aggregator-free path.
        assert make_aggregator("uniform") is None
        assert isinstance(make_aggregator("reliability"), ReliabilityAggregator)

    def test_unknown_name_rejected(self):
        for name in ("median", "trimmed", "huber"):
            with pytest.raises(ConfigurationError):
                make_aggregator(name)

    def test_shared_model_threads_through(self):
        model = ReliabilityModel()
        aggregator = make_aggregator("reliability", model=model)
        assert aggregator.model is model


class TestReliabilityModel:
    def test_unobserved_workers_aggregate_bitwise_uniform(self):
        values = [0.3, 0.1, 0.9, 0.7]
        aggregator = ReliabilityAggregator(ReliabilityModel())
        assert aggregator.aggregate(values, [5, 6, 7, 8]) == float(np.mean(values))

    def test_requires_worker_ids(self):
        with pytest.raises(ConfigurationError):
            ReliabilityAggregator(ReliabilityModel()).aggregate([1.0, 2.0])

    def test_observe_split_invariant(self):
        values = [1.0, 3.0, 2.0, 8.0, 2.5, 1.5]
        workers = [0, 1, 2, 0, 1, 2]
        whole = ReliabilityModel()
        whole.observe(values, workers, start=0)
        for split in range(1, len(values)):
            parts = ReliabilityModel()
            parts.observe(values[:split], workers[:split], start=0)
            parts.observe(values, workers[split:], start=split)
            assert parts.state_dict() == whole.state_dict()

    def test_noisy_worker_learns_low_precision(self):
        rng = np.random.default_rng(0)
        model = ReliabilityModel()
        for key in range(30):
            honest = rng.normal(0.0, 0.1, size=5)
            values = list(honest) + [float(rng.normal(0.0, 10.0))]
            # Rotate the honest workers so each takes a turn at tape
            # index 0 (which contributes no residual of its own).
            workers = [(key + i) % 5 for i in range(5)] + [9]
            model.observe(values, workers, start=0)
        precisions = model.precisions()
        assert precisions[9] < 0.5
        assert all(precisions[w] > precisions[9] for w in range(5))

    def test_unattributed_is_neutral(self):
        model = ReliabilityModel()
        model.observe([1.0, 2.0, 30.0], [0, 1, UNATTRIBUTED], start=0)
        assert UNATTRIBUTED not in model.precisions()
        assert model.weight(UNATTRIBUTED) == 1.0

    def test_fit_flags_spammer(self):
        rng = np.random.default_rng(3)
        groups = []
        for _ in range(25):
            honest = rng.normal(5.0, 0.2, size=4)
            values = list(honest) + [float(rng.uniform(-50, 50))]
            groups.append((values, [0, 1, 2, 3, 7]))
        model = ReliabilityModel()
        model.fit(groups)
        precisions = model.precisions()
        assert precisions[7] < min(precisions[w] for w in range(4))

    def test_gain_clamped_and_monotone(self):
        model = ReliabilityModel()
        assert model.gain() == 1.0  # nothing observed: neutral
        rng = np.random.default_rng(1)
        for _ in range(40):
            values = list(rng.normal(0, 0.1, size=3)) + [
                float(rng.normal(0, 8.0))
            ]
            model.observe(values, [0, 1, 2, 5], start=0)
        mixed = model.gain([0, 1, 2, 5])
        assert 1.0 < mixed <= model.GAIN_CAP
        # A homogeneous slice of the crowd has (near-)equal precisions.
        assert model.gain([0, 0, 0]) == 1.0

    def test_state_roundtrip(self):
        model = ReliabilityModel()
        model.observe([1.0, 5.0, 2.0], [3, 1, 3], start=0)
        clone = ReliabilityModel()
        clone.restore_state(model.state_dict())
        assert clone.state_dict() == model.state_dict()
        assert clone.precisions() == model.precisions()

    def test_version_moves_with_the_weights(self):
        """Every mutation that can move a weight bumps ``version``; an
        observe that records no residual leaves it, and the weights."""
        model = ReliabilityModel()
        assert model.version == 0
        model.observe([4.0], [1], start=0)  # index 0: no prefix
        model.observe([1.0, 2.0, 30.0], [0, UNATTRIBUTED, UNATTRIBUTED], start=0)
        model.observe([1.0, 2.0], [0, 1], start=0, from_index=2)
        assert model.version == 0
        model.observe([1.0, 2.0, 30.0], [0, 1, 2], start=0)
        assert model.version == 1
        weights = model.weights([0, 1, 2])
        model.observe([3.0], [4], start=0)
        assert model.version == 1
        assert model.weights([0, 1, 2]) == weights
        model.fit([([1.0, 5.0, 2.0], [3, 1, 3])])
        assert model.version > 1
        fitted = model.version
        model.restore_state({"n": [], "ss": []})
        assert model.version == fitted + 1

    def test_effective_count_at_most_n(self):
        model = ReliabilityModel()
        rng = np.random.default_rng(2)
        for key in range(30):
            values = list(rng.normal(0, 0.1, size=3)) + [
                float(rng.normal(0, 5.0))
            ]
            workers = [(key + i) % 3 for i in range(3)] + [6]
            model.observe(values, workers, start=0)
        aggregator = ReliabilityAggregator(model)
        values = [0.1, 0.2, 0.3, 9.9]
        workers = [0, 1, 2, 6]
        assert aggregator.effective_count(values, workers) < 4.0
        assert aggregator.effective_count(values, [0, 1, 2, 0]) == pytest.approx(
            4.0, rel=0.05
        )


def identity_plan(target: str, n_questions: int = 4) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


def reliability_engine(domain, **kwargs) -> tuple[ServeEngine, CrowdPlatform]:
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    aggregator = make_aggregator("reliability", model=ReliabilityModel())
    return ServeEngine(platform, aggregator=aggregator, **kwargs), platform


@pytest.mark.serve
class TestServeReliabilityDurability:
    """Reliability state must survive a crash bit-for-bit (DESIGN.md §16)."""

    def test_checkpoint_carries_model_state(self, tiny_domain, tmp_path):
        # The committed log carries the model's state as the attributed
        # spans a resume folds back in, in the live commit's order.
        engine, _ = reliability_engine(tiny_domain, checkpoint_dir=tmp_path)
        with engine:
            engine.submit(
                QueryRequest("q1", ("target",), (0, 1, 2)), identity_plan("target")
            )
            engine.run()
        resumed, _ = reliability_engine(
            tiny_domain, checkpoint_dir=tmp_path, resume=True
        )
        resumed.close()
        assert resumed.aggregator.model.state_dict() == (
            engine.aggregator.model.state_dict()
        )

    def test_crash_resume_model_bitwise_identical(self, tiny_domain, tmp_path):
        plan = identity_plan("target")
        requests = [
            QueryRequest("q1", ("target",), (0, 1, 2)),
            QueryRequest("q2", ("target",), (3, 4, 5)),
        ]
        straight, straight_platform = reliability_engine(
            tiny_domain, wave_size=1, checkpoint_dir=tmp_path / "straight"
        )
        for request in requests:
            straight.submit(request, plan)
        reference = straight.run()
        straight.close()

        # Serve and commit the first wave, then "crash" before q2.
        crashed, _ = reliability_engine(
            tiny_domain,
            wave_size=1,
            checkpoint_dir=tmp_path / "crash",
            chaos=KillAtNth("serve.wave", 1),
        )
        with crashed, pytest.raises(SimulatedCrash):
            for request in requests:
                crashed.submit(request, plan)
            crashed.run()

        resumed, resumed_platform = reliability_engine(
            tiny_domain, wave_size=1, checkpoint_dir=tmp_path / "crash", resume=True
        )
        assert resumed.resumed
        # The folded model is exactly the committed one.
        assert (
            resumed.aggregator.model.state_dict()
            == crashed.aggregator.model.state_dict()
        )
        for request in requests:
            resumed.submit(request, plan)
        report = resumed.run()
        resumed.close()
        assert report.result("q1").from_checkpoint
        # Bit-identical to the uninterrupted run: estimates, spend, and
        # the learned reliability state.
        assert (
            report.result("q2").estimates == reference.result("q2").estimates
        )
        assert (
            resumed.aggregator.model.state_dict()
            == straight.aggregator.model.state_dict()
        )
        assert (
            resumed_platform.ledger.total_spent
            == straight_platform.ledger.total_spent
        )

    def test_journal_tail_restores_worker_attribution(self, tiny_domain, tmp_path):
        # Crash after logging a wave's purchases but before its commit:
        # re-running the wave must take the worker ids from the log's
        # tail and absorb the span exactly as the crashed run did.
        plan = identity_plan("target")
        request = QueryRequest("q1", ("target",), (0, 1))
        crashed, _ = reliability_engine(
            tiny_domain, checkpoint_dir=tmp_path, chaos=KillAtNth("serve.evaluate", 1)
        )
        with crashed, pytest.raises(SimulatedCrash):
            crashed.submit(request, plan)
            crashed.run()

        resumed, _ = reliability_engine(
            tiny_domain, checkpoint_dir=tmp_path, resume=True
        )
        with resumed:
            assert resumed.pending_answers == 8
            resumed.submit(request, plan)
            resumed.run()
        workers = resumed.cache.workers(0, "target", 4)
        assert UNATTRIBUTED not in workers.tolist()
        assert (
            resumed.aggregator.model.state_dict()
            == crashed.aggregator.model.state_dict()
        )
