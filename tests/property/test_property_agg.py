"""Property-based tests for the aggregation determinism contract.

The two load-bearing properties (DESIGN.md §16):

* a reliability aggregator whose learned precisions are all equal is
  *bitwise* identical to the historical uniform mean — this is what
  keeps an honest crowd's estimates byte-stable when the strategy flips;
* weighted aggregation with *unequal* weights is invariant under any
  permutation of the (value, worker) pairs — this is what keeps a
  weighted mean independent of the order answers were bought in,
  because ``fsum`` is exactly rounded over the product multiset.

Plus the streaming model's split invariance: absorbing a tape in any
chunking yields the same state as absorbing it whole, which is the
crash-resume byte-identity argument for the serving engine.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.agg import (
    UNATTRIBUTED,
    ReliabilityAggregator,
    ReliabilityModel,
    effective_sample_size,
    weighted_mean,
)
from repro.errors import ConfigurationError

pytestmark = pytest.mark.agg

finite_values = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)

positive_weights = st.lists(
    st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestEqualPrecisionsBitwiseUniform:
    @given(finite_values, st.floats(0.1, 10.0))
    def test_equal_weights_fall_through_to_np_mean(self, values, weight):
        assert weighted_mean(values, [weight] * len(values)) == float(
            np.mean(np.asarray(values, dtype=np.float64))
        )

    @given(finite_values)
    def test_unobserved_model_is_bitwise_uniform(self, values):
        # Every worker unknown -> every weight exactly 1.0 -> the
        # equal-weights branch returns the historical arrival-order mean.
        aggregator = ReliabilityAggregator(ReliabilityModel())
        worker_ids = list(range(len(values)))
        assert aggregator.aggregate(values, worker_ids) == float(
            np.mean(np.asarray(values, dtype=np.float64))
        )

    @given(finite_values, st.floats(0.5, 4.0))
    def test_identically_observed_workers_bitwise_uniform(self, values, noise):
        # Workers with *identical* residual moments learn identical
        # precisions; identical precisions must aggregate bitwise like
        # uniform no matter what the shared precision value is.
        model = ReliabilityModel()
        for wid in range(len(values)):
            model._n[wid] = 10.0
            model._ss[wid] = 10.0 * noise
        aggregator = ReliabilityAggregator(model)
        assert aggregator.aggregate(values, list(range(len(values)))) == float(
            np.mean(np.asarray(values, dtype=np.float64))
        )


class TestPermutationInvariance:
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=2,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_weighted_mean_any_order(self, pairs, rand):
        values = [value for value, _ in pairs]
        weights = [weight for _, weight in pairs]
        # All-equal weights take the historical arrival-order np.mean
        # fast path, which is deliberately *not* permutation-invariant
        # (see weighted_mean's docstring); the fsum contract this test
        # pins only covers unequal weights.
        assume(any(w != weights[0] for w in weights))
        reference = weighted_mean(values, weights)
        shuffled = list(pairs)
        rand.shuffle(shuffled)
        permuted = weighted_mean(
            [value for value, _ in shuffled], [weight for _, weight in shuffled]
        )
        assert permuted == reference  # bitwise, not approx

    @given(positive_weights, st.randoms(use_true_random=False))
    def test_effective_sample_size_any_order(self, weights, rand):
        reference = effective_sample_size(weights)
        shuffled = list(weights)
        rand.shuffle(shuffled)
        assert effective_sample_size(shuffled) == reference

    @given(positive_weights)
    def test_ess_bounds(self, weights):
        ess = effective_sample_size(weights)
        assert 0.0 < ess <= len(weights) + 1e-9


class TestStreamingSplitInvariance:
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=2,
            max_size=16,
        ),
        st.data(),
    )
    @settings(max_examples=60)
    def test_any_chunking_matches_one_shot(self, tape, data):
        values = [value for value, _ in tape]
        workers = [worker for _, worker in tape]
        whole = ReliabilityModel()
        whole.observe(values, workers, start=0)
        split = data.draw(
            st.integers(min_value=1, max_value=len(values) - 1), label="split"
        )
        chunked = ReliabilityModel()
        chunked.observe(values[:split], workers[:split], start=0)
        chunked.observe(values, workers[split:], start=split)
        assert chunked.state_dict() == whole.state_dict()  # bitwise

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=10,
        )
    )
    def test_from_index_skips_absorbed_prefix(self, values):
        workers = [index % 3 for index in range(len(values))]
        once = ReliabilityModel()
        once.observe(values, workers, start=0)
        # Re-observing the same span with from_index is a no-op, the
        # idempotence the journal-tail merge relies on.
        recorded = once.observe(values, workers, start=0, from_index=len(values))
        assert recorded == 0
        again = ReliabilityModel()
        again.observe(values, workers, start=0)
        assert once.state_dict() == again.state_dict()


class TestPrecisionSanity:
    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_precisions_clamped_and_finite(self, values):
        model = ReliabilityModel()
        workers = [index % 4 for index in range(len(values))]
        model.observe(values, workers, start=0)
        for precision in model.precisions().values():
            assert model.FLOOR <= precision <= model.CEIL
            assert math.isfinite(precision)

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_gain_in_declared_range(self, values):
        model = ReliabilityModel()
        workers = [index % 4 for index in range(len(values))]
        model.observe(values, workers, start=0)
        assert 1.0 <= model.gain() <= model.GAIN_CAP
        assert 1.0 <= model.gain(workers) <= model.GAIN_CAP


def _oracle(model: ReliabilityModel) -> ReliabilityModel:
    """A fresh model restored from ``model``'s state: nothing memoized."""
    fresh = ReliabilityModel()
    fresh.restore_state(model.state_dict())
    return fresh


def _bits(values) -> list[str]:
    return [float(value).hex() for value in values]


worker_ids = st.integers(min_value=-1, max_value=6)  # -1 is UNATTRIBUTED
tape_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _observe_op(draw):
    values = draw(st.lists(tape_values, min_size=1, max_size=10))
    start = draw(st.integers(min_value=0, max_value=len(values) - 1))
    workers = draw(
        st.lists(worker_ids, min_size=len(values) - start, max_size=len(values) - start)
    )
    from_index = draw(st.none() | st.integers(min_value=0, max_value=len(values)))
    return ("observe", values, workers, start, from_index)


@st.composite
def _tape(draw):
    values = draw(st.lists(tape_values, min_size=1, max_size=8))
    workers = draw(st.lists(worker_ids, min_size=len(values), max_size=len(values)))
    return values, workers


_fit_op = st.tuples(
    st.just("fit"), st.lists(_tape(), max_size=3), st.booleans()
)
_restore_op = st.tuples(
    st.just("restore"),
    st.dictionaries(
        st.integers(min_value=0, max_value=6),
        st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 500.0)),
        max_size=6,
    ),
)
_read_op = st.one_of(
    st.tuples(st.just("weights"), st.lists(worker_ids, max_size=8)),
    st.tuples(st.just("weight"), worker_ids),
    st.tuples(st.just("precisions")),
    st.tuples(st.just("gain"), st.none() | st.lists(worker_ids, max_size=8)),
    st.tuples(st.just("effective_count"), st.lists(worker_ids, max_size=8)),
)


def _read(model: ReliabilityModel, op) -> list[str]:
    kind = op[0]
    if kind == "weights":
        return _bits(model.weights(op[1]))
    if kind == "weight":
        return _bits([model.weight(op[1])])
    if kind == "precisions":
        rho = model.precisions()
        return [f"{wid}:{rho[wid].hex()}" for wid in sorted(rho)]
    if kind == "gain":
        return _bits([model.gain(op[1])])
    aggregator = ReliabilityAggregator(model)
    return _bits([aggregator.effective_count([0.0] * len(op[1]), op[1])])


class TestPrecisionMemoMatchesOracle:
    """The precision memo never serves a stale or differently-rounded value.

    The oracle for every read is a fresh model restored from the live
    model's ``state_dict()``: it has never memoized anything, so it
    computes each read from the raw per-worker sums.
    """

    @given(
        st.lists(
            st.one_of(_observe_op(), _fit_op, _restore_op, _read_op), max_size=25
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_interleaved_mutations_and_reads(self, ops):
        model = ReliabilityModel()
        for op in ops:
            kind = op[0]
            if kind == "observe":
                _, values, workers, start, from_index = op
                model.observe(values, workers, start=start, from_index=from_index)
            elif kind == "fit":
                model.fit(op[1], reset=op[2])
            elif kind == "restore":
                model.restore_state(
                    {
                        "n": [[wid, n] for wid, (n, _) in op[1].items()],
                        "ss": [[wid, ss] for wid, (_, ss) in op[1].items()],
                    }
                )
            else:
                assert _read(model, op) == _read(_oracle(model), op)
                if kind == "precisions":
                    # The returned dict is the caller's: scribbling on
                    # it must not reach the model's later reads.
                    copy = model.precisions()
                    for wid in list(copy):
                        copy[wid] = 123.0
                    copy[99] = 0.5
                    probe = ("weights", sorted(copy))
                    assert _read(model, probe) == _read(_oracle(model), probe)

    def test_concurrent_first_reads_after_observe(self):
        # Readers racing on a just-cleared memo may each rebuild it,
        # but every reader must still see exactly the oracle's weights.
        import random
        import sys
        import threading
        import time

        rng = random.Random(11)
        model = ReliabilityModel()
        ids = list(range(-1, 240))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ends = time.monotonic() + 2.0
            rounds = 0
            while rounds < 3 or (rounds < 60 and time.monotonic() < ends):
                values = [rng.gauss(0.0, 1.0 + (i % 5)) for i in range(240)]
                workers = [rng.randrange(240) for _ in range(240)]
                model.observe(values, workers, start=0)
                expected = _bits(_oracle(model).weights(ids))
                barrier = threading.Barrier(8)
                seen: list = [None] * 8

                def read(slot: int) -> None:
                    barrier.wait(timeout=30)
                    seen[slot] = _bits(model.weights(ids))

                threads = [
                    threading.Thread(target=read, args=(slot,)) for slot in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert seen == [expected] * 8
                rounds += 1
        finally:
            sys.setswitchinterval(previous)


#: Observed workers 0..5; ids 6..9 are never observed (weight 1.0).
OBSERVED_WORKERS = 6


@st.composite
def _observed_model(draw) -> ReliabilityModel:
    """A model that has observed random tapes, one per worker.

    Each worker answers with its own noise scale, from exact (no
    residual at all) to wild, over tapes long enough that the learned
    precisions reach both clamps, ``FLOOR`` and ``CEIL``.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    model = ReliabilityModel()
    for worker in range(OBSERVED_WORKERS):
        scale = draw(st.sampled_from((0.0, 1e-3, 1.0, 1e3)), label="scale")
        # A wild worker seen a few times beside workers seen a hundred
        # times is what drives a precision down to FLOOR.
        length = draw(st.sampled_from((2, 3, 8, 60, 120)), label="length")
        values = (5.0 + scale * rng.standard_normal(length)).tolist()
        model.observe(values, [worker] * length, start=0)
    return model


#: Answers with both signed zeros among them.
answers = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _attributed_tape(draw) -> tuple[list[float], list[int]]:
    """1–8 answers, from one worker (equal weights) or from any ids."""
    values = draw(st.lists(answers, min_size=1, max_size=8))
    ids = st.integers(min_value=UNATTRIBUTED, max_value=9)
    if draw(st.booleans(), label="one worker"):
        return values, [draw(ids)] * len(values)
    return values, draw(st.lists(ids, min_size=len(values), max_size=len(values)))


class TestBatchedAggregate:
    @given(_observed_model(), st.lists(_attributed_tape(), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_aggregate_many_equals_per_tape_aggregate(self, model, tapes):
        aggregator = ReliabilityAggregator(model)
        batched = aggregator.aggregate_many(
            [(np.array(values), np.array(ids)) for values, ids in tapes]
        )
        assert batched.dtype == np.float64
        expected = [aggregator.aggregate(values, ids) for values, ids in tapes]
        # float.hex keeps the sign of zero.
        assert _bits(batched) == _bits(expected)

    def test_empty_tape_rejected(self):
        aggregator = ReliabilityAggregator(ReliabilityModel())
        with pytest.raises(ConfigurationError):
            aggregator.aggregate_many([(np.array([1.0]), [0]), (np.array([]), [])])
