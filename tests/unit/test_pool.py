"""Unit tests for the worker pool."""

import numpy as np
import pytest

from repro.crowd.pool import WorkerPool
from repro.crowd.worker import CollusionRingWorker, HonestWorker, SpamWorker
from repro.errors import ConfigurationError


class TestPoolComposition:
    def test_default_pool_is_all_honest(self):
        pool = WorkerPool(size=50, seed=0)
        assert len(pool) == 50
        assert all(type(w) is HonestWorker for w in pool.workers)

    def test_spam_fraction_respected(self):
        pool = WorkerPool(size=100, seed=0, spam_fraction=0.2)
        spam = [w for w in pool.workers if isinstance(w, SpamWorker)]
        assert len(spam) == 20

    def test_mixed_composition(self):
        pool = WorkerPool(
            size=100, seed=0, spam_fraction=0.1, colluding_fraction=0.2
        )
        spam = sum(isinstance(w, SpamWorker) for w in pool.workers)
        ring = sum(isinstance(w, CollusionRingWorker) for w in pool.workers)
        assert (spam, ring) == (10, 20)

    def test_worker_ids_are_stable_and_unique(self):
        pool = WorkerPool(size=30, seed=0)
        assert [w.worker_id for w in pool.workers] == list(range(30))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(size=10, spam_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkerPool(size=10, spam_fraction=0.6, colluding_fraction=0.6)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(size=0)

    def test_skill_spread_produces_heterogeneous_workers(self):
        pool = WorkerPool(size=50, seed=0, skill_spread=0.5)
        skills = {w.skill for w in pool.workers}
        assert len(skills) > 10


class TestAdversarialPersonas:
    def test_persona_fractions_respected(self):
        # Contiguous id bands: spam first, then the ring, then honest.
        pool = WorkerPool(
            size=100, seed=0, spam_fraction=0.2, colluding_fraction=0.1
        )
        assert [type(w) for w in pool.workers] == (
            [SpamWorker] * 20 + [CollusionRingWorker] * 10 + [HonestWorker] * 70
        )

    def test_ring_shares_one_error_per_question(self, tiny_domain):
        pool = WorkerPool(size=10, seed=1, colluding_fraction=0.3)
        first, second, *_ = [
            w for w in pool.workers if isinstance(w, CollusionRingWorker)
        ]
        # Same (attribute, object) -> the same shared error for every
        # member; different objects -> different errors (zero-mean over
        # the database, so no fitted intercept can absorb the attack).
        assert first._ring_bias(tiny_domain, "target", 5) == second._ring_bias(
            tiny_domain, "target", 5
        )
        errors = {first._ring_bias(tiny_domain, "target", o) for o in range(6)}
        assert len(errors) == 6

    def test_ring_bias_enters_both_answer_paths(self, tiny_domain):
        ring = CollusionRingWorker(0, seed=11, ring_seed=99, bias_scale=2.0)
        twin = HonestWorker(0, seed=11)
        stateless = ring.answer_value_stateless(
            tiny_domain, 3, "target", np.random.default_rng(5)
        ) - twin.answer_value_stateless(
            tiny_domain, 3, "target", np.random.default_rng(5)
        )
        stateful = ring.answer_value(tiny_domain, 3, "target") - twin.answer_value(
            tiny_domain, 3, "target"
        )
        shared = ring._ring_bias(tiny_domain, "target", 3)
        assert stateless == pytest.approx(shared)
        assert stateful == pytest.approx(shared)


class TestPoolSampling:
    def test_draw_returns_pool_members(self):
        pool = WorkerPool(size=10, seed=0)
        for _ in range(50):
            assert pool.draw() in pool.workers

    def test_draw_covers_population(self):
        pool = WorkerPool(size=10, seed=0)
        seen = {pool.draw().worker_id for _ in range(300)}
        assert seen == set(range(10))

    def test_draw_distinct_returns_unique_workers(self):
        pool = WorkerPool(size=20, seed=0)
        drawn = pool.draw_distinct(15)
        assert len({w.worker_id for w in drawn}) == 15

    def test_draw_distinct_beyond_population_falls_back(self):
        pool = WorkerPool(size=5, seed=0)
        drawn = pool.draw_distinct(12)
        assert len(drawn) == 12

    def test_same_seed_reproducible(self):
        ids_a = [WorkerPool(size=10, seed=4).draw().worker_id for _ in range(1)]
        ids_b = [WorkerPool(size=10, seed=4).draw().worker_id for _ in range(1)]
        assert ids_a == ids_b
