"""Unit tests: the batched serve stream is byte-identical to the scalar one.

:class:`~repro.serve.stream.BatchedValueStream` must be a drop-in for
:class:`~repro.serve.stream.DeterministicValueStream`: same values, same
bits, for any request mix — the engine's workers-1-vs-N determinism gate
rests on it.  These are the deterministic fixed-seed checks; the
randomized sweeps live in ``tests/property/test_property_serve_batched.py``.
"""

import numpy as np
import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.crowd.worker import HonestWorker
from repro.serve import BatchedValueStream, DeterministicValueStream
from repro.serve.faults import FaultProfile, ResilientValueStream, RetryPolicy

REQUESTS = (
    (5, "target", 0, 6),
    (5, "target", 6, 3),  # contiguous continuation of the same key
    (9, "helper", 2, 4),
    (1, "flag_a", 0, 5),  # binary: exercises clipping
    (1, "flagged", 5, 2),  # synonym of flag_a
    (0, "flag_b", 0, 1),
    (7, "helper", 0, 0),  # empty span
)


def make_platform(tiny_domain, pool=None, seed=3):
    return CrowdPlatform(
        tiny_domain, pool=pool, recorder=AnswerRecorder(), seed=seed
    )


def assert_streams_agree(platform, requests=REQUESTS, seed=None):
    batched = BatchedValueStream(platform, seed)
    scalar = DeterministicValueStream(platform, seed)
    results = batched.answers_many(list(requests))
    assert len(results) == len(requests)
    for (object_id, attribute, start, count), got in zip(requests, results):
        expected = scalar.answers(object_id, attribute, start, count)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestBatchedValueStream:
    def test_matches_scalar_honest_pool(self, tiny_platform):
        assert_streams_agree(tiny_platform)

    def test_matches_scalar_mixed_pool(self, tiny_domain):
        # Collusion-ring lanes have no vectorized kernel: the batched
        # stream recomputes them through the scalar stream.
        pool = WorkerPool(
            size=40, seed=11, spam_fraction=0.25, colluding_fraction=0.35
        )
        assert_streams_agree(make_platform(tiny_domain, pool))

    def test_matches_scalar_single_worker_pool(self, tiny_domain):
        # n == 1 consumes no worker draw at all; the batched tape must
        # skip that draw too or every later variate shifts.
        pool = WorkerPool(size=1, seed=5, colluding_fraction=1.0)
        assert_streams_agree(make_platform(tiny_domain, pool))

    def test_out_of_range_seed_falls_back_scalar(self, tiny_domain):
        # A seed beyond uint32 cannot enter the vectorized entropy
        # matrix; the whole batch must quietly take the scalar path.
        assert_streams_agree(make_platform(tiny_domain), seed=2**40)

    def test_worker_subclass_falls_back_scalar(self, tiny_domain):
        class ShiftedWorker(HonestWorker):
            def answer_value_stateless(self, domain, object_id, attribute, rng):
                return super().answer_value_stateless(
                    domain, object_id, attribute, rng
                ) + 100.0

        pool = WorkerPool(size=8, seed=2)
        pool._workers[3] = ShiftedWorker(
            worker_id=pool.workers[3].worker_id, seed=123
        )
        platform = make_platform(tiny_domain, pool)
        assert_streams_agree(platform)
        # A long span draws the subclass on many lanes: each must match
        # the scalar stream, and the override genuinely fired.
        long_span = [(5, "target", 0, 200)]
        assert_streams_agree(platform, long_span)
        answers = BatchedValueStream(platform).answers_many(long_span)[0]
        assert (answers > 50.0).any()

    def test_empty_request_list(self, tiny_platform):
        assert BatchedValueStream(tiny_platform).answers_many([]) == []


class TestPurchaseBatch:
    CONFIGS = (
        # (fault rate, latency_mean, spam, colluding, blocked, retries)
        (0.1, 0.05, 0.2, 0.3, frozenset(), 3),
        (0.3, 0.0, 0.0, 0.0, frozenset(), 0),
        (0.02, 0.1, 0.5, 0.5, frozenset({1, 5, 9}), 2),
        (0.0, 0.05, 0.0, 1.0, frozenset(), 3),
    )

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_scalar_purchase(self, tiny_domain, config):
        rate, latency, spam, colluding, blocked, retries = config
        pool = WorkerPool(
            size=30, seed=7, spam_fraction=spam, colluding_fraction=colluding
        )
        platform = make_platform(tiny_domain, pool)
        profile = FaultProfile.uniform(rate, latency_mean=latency)
        policy = RetryPolicy(max_retries=retries, base_delay=0.01)
        requests = [r for r in REQUESTS if r[3]]

        def build():
            return ResilientValueStream(
                BatchedValueStream(platform), profile, policy, seed=1234
            )

        batch = build().purchase_batch(requests, blocked)
        scalar_stream = build()
        for request, got in zip(requests, batch):
            expected = scalar_stream.purchase(*request, blocked)
            assert got.answers == expected.answers
            assert [np.signbit(a) for a in got.answers] == [
                np.signbit(a) for a in expected.answers
            ]
            assert got.lost == expected.lost
            assert got.attempts == expected.attempts
            assert got.retries == expected.retries
            assert got.timeouts == expected.timeouts
            assert got.abandons == expected.abandons
            assert got.garbage == expected.garbage
            assert got.sim_seconds == expected.sim_seconds

    def test_scalar_stream_fallback(self, tiny_platform):
        # A plain DeterministicValueStream has no batched tape; the
        # batch API must still work, via per-key scalar purchases.
        profile = FaultProfile.uniform(0.2, latency_mean=0.02)
        policy = RetryPolicy(max_retries=2, base_delay=0.01)
        requests = [(5, "target", 0, 4), (1, "flag_a", 0, 3)]

        def build(stream_cls):
            return ResilientValueStream(
                stream_cls(tiny_platform), profile, policy, seed=99
            )

        via_scalar = build(DeterministicValueStream).purchase_batch(
            requests, frozenset()
        )
        batched_stream = build(BatchedValueStream)
        for request, got in zip(requests, via_scalar):
            expected = batched_stream.purchase(*request, frozenset())
            assert got.answers == expected.answers
            assert got.sim_seconds == expected.sim_seconds

    def test_zero_count_keys(self, tiny_platform):
        resilient = ResilientValueStream(
            BatchedValueStream(tiny_platform),
            FaultProfile.uniform(0.1),
            RetryPolicy(max_retries=1),
            seed=5,
        )
        batch = resilient.purchase_batch(
            [(1, "target", 0, 0), (2, "helper", 3, 0)], frozenset()
        )
        assert [p.answers for p in batch] == [[], []]
        assert all(p.lost == 0 and not p.attempts for p in batch)
