"""Unit tests for the statistics store (S_o, S_a, S_c estimation)."""

import numpy as np
import pytest

from repro.core.statistics import (
    ExamplePool,
    StatisticsStore,
    variance_estimate,
)
from repro.errors import ConfigurationError


class TestVarianceEstimate:
    def test_single_answer_is_zero(self):
        assert variance_estimate([5.0]) == 0.0
        assert variance_estimate([]) == 0.0

    def test_pair_formula(self):
        # Unbiased variance of two answers: (a-b)^2 / 2.
        assert variance_estimate([1.0, 3.0]) == pytest.approx(2.0)

    def test_matches_numpy_ddof1(self):
        answers = [1.0, 2.0, 4.0, 8.0]
        assert variance_estimate(answers) == pytest.approx(
            float(np.var(answers, ddof=1))
        )


class TestExamplePool:
    def test_add_and_measure(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        pool.add_example(2, 20.0)
        pool.record_answers("a", [[1.0, 3.0], [2.0, 4.0]])
        assert pool.n_measured("a") == 2
        indices, means = pool.aligned_answer_means("a")
        assert list(indices) == [0, 1]
        assert list(means) == [2.0, 3.0]
        assert list(pool.within_variances("a")) == [2.0, 2.0]

    def test_record_beyond_examples_rejected(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        with pytest.raises(ConfigurationError):
            pool.record_answers("a", [[1.0], [2.0]])

    def test_append_to_batch(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        pool.record_answers("a", [[1.0]])
        pool.append_to_batch("a", 0, [3.0])
        assert pool.batch("a", 0) == [1.0, 3.0]

    def test_append_to_missing_batch_rejected(self):
        pool = ExamplePool("t")
        pool.add_example(1, 10.0)
        with pytest.raises(ConfigurationError):
            pool.append_to_batch("a", 0, [1.0])

    def test_version_bumps_on_mutation(self):
        pool = ExamplePool("t")
        v0 = pool.version
        pool.add_example(1, 1.0)
        v1 = pool.version
        pool.record_answers("a", [[1.0]])
        v2 = pool.version
        assert v0 < v1 < v2


def build_store(
    n: int = 400,
    k: int = 2,
    noise: float = 1.0,
    seed: int = 0,
    rho: float = 0.8,
) -> StatisticsStore:
    """A store over synthetic data with exactly known moments.

    Target ~ N(0, 4); attribute 'a' has true values correlated ``rho``
    with the target and unit variance; worker noise variance ``noise``.
    """
    rng = np.random.default_rng(seed)
    target = rng.normal(0, 2.0, n)
    a_true = rho * target / 2.0 + np.sqrt(1 - rho**2) * rng.normal(0, 1.0, n)
    store = StatisticsStore(("t",), k=k)
    pool = store.pool("t")
    for i in range(n):
        pool.add_example(i, float(target[i]))
    batches = [
        [float(a_true[i] + rng.normal(0, np.sqrt(noise))) for _ in range(k)]
        for i in range(n)
    ]
    store.register_attribute("a", {"t"})
    pool.record_answers("a", batches)
    return store


class TestStatisticsEstimation:
    def test_s_c_estimates_worker_noise(self):
        store = build_store(noise=1.5)
        assert store.s_c("a") == pytest.approx(1.5, rel=0.2)

    def test_denoised_variance_estimates_true_variance(self):
        store = build_store(noise=2.0)
        # True de-noised variance is Var(a_true) = 1.0.
        assert store.s_a_entry("a", "a") == pytest.approx(1.0, rel=0.35)

    def test_s_o_estimates_covariance(self):
        store = build_store(rho=0.8)
        # |Cov(a_true, target)| = rho * sigma_a * sigma_t = 0.8 * 1 * 2.
        assert store.s_o_measured("t", "a") == pytest.approx(1.6, rel=0.25)

    def test_target_variance(self):
        store = build_store()
        assert store.target_variance("t") == pytest.approx(4.0, rel=0.25)

    def test_answer_variance_combines_signal_and_noise(self):
        store = build_store(noise=1.0)
        assert store.answer_variance("a") == pytest.approx(2.0, rel=0.3)

    def test_rho_normalized(self):
        store = build_store(rho=0.8, noise=0.01)
        assert store.rho("t", "a") == pytest.approx(0.8, abs=0.1)

    def test_unmeasured_pair_is_none(self):
        store = build_store()
        store.register_attribute("ghost", set())
        assert store.s_o_measured("t", "ghost") is None
        assert store.s_a_entry("a", "ghost") is None

    def test_register_unknown_target_rejected(self):
        store = StatisticsStore(("t",), k=2)
        with pytest.raises(ConfigurationError):
            store.register_attribute("a", {"not_a_target"})

    def test_reregistration_merges_pairings(self):
        store = StatisticsStore(("t", "u"), k=2)
        store.register_attribute("u_first", {"u"})
        store.register_attribute("u_first", {"t"})
        store.register_attribute("a", {"t"})
        store.register_attribute("a", {"u"})
        # Pairings keep query-target order, whatever the registration order.
        assert store.pairings["a"] == ("t", "u")
        assert store.pairings["u_first"] == ("t", "u")
        assert store.attributes == ["u_first", "a"]

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            StatisticsStore(("t",), k=0)


class TestShrinkageAndAssembly:
    def test_shrunk_s_o_below_measured(self):
        store = build_store()
        raw = store.s_o_measured("t", "a")
        shrunk = store.s_o_shrunk("t", "a")
        assert 0.0 <= abs(shrunk) < abs(raw)

    def test_weak_covariance_shrunk_to_zero(self):
        store = build_store(rho=0.0, n=80, seed=3)
        assert store.s_o_shrunk("t", "a") == pytest.approx(0.0, abs=0.1)

    def test_assemble_shapes(self):
        store = build_store()
        s_o, s_a, s_c = store.assemble(["a"], "t")
        assert s_o.shape == (1,) and s_a.shape == (1, 1) and s_c.shape == (1,)

    def test_assemble_over_no_attributes_is_empty(self):
        s_o, s_a, s_c = build_store(n=10).assemble([], "t")
        assert s_o.shape == (0,) and s_a.shape == (0, 0) and s_c.shape == (0,)

    def test_assemble_respects_cauchy_schwarz(self):
        store = build_store(n=60, seed=5)
        s_o, s_a, _ = store.assemble(["a"], "t")
        bound = store.RHO_CAP * np.sqrt(s_a[0, 0] * store.target_variance("t"))
        assert abs(s_o[0]) <= bound + 1e-12

    def test_assemble_fills_missing_with_callback(self):
        store = build_store()
        store.register_attribute("ghost", set())
        s_o, _, _ = store.assemble(
            ["a", "ghost"], "t", s_o_fill=lambda st, t, a: 0.123
        )
        assert s_o[1] == pytest.approx(0.123)

    def test_assemble_missing_without_fill_is_zero(self):
        store = build_store()
        store.register_attribute("ghost", set())
        s_o, s_a, _ = store.assemble(["a", "ghost"], "t")
        assert s_o[1] == 0.0
        assert s_a[0, 1] == 0.0

    def test_cache_invalidation_on_new_data(self):
        store = build_store(n=50)
        before = store.s_c("a")
        pool = store.pool("t")
        pool.add_example(999, 0.0)
        pool.record_answers("a", [[100.0, -100.0]])
        after = store.s_c("a")
        assert after > before  # the huge-disagreement example must show up


class TestEmptyBatchAlignment:
    """Regression: an empty answer batch (fully spam-rejected) used to
    shift the pairing of every later example in the S_o/S_a covariance
    computations, because the answer means skipped empty batches while
    the target/means arrays were sliced by plain prefix."""

    @staticmethod
    def pool_with_hole():
        pool = ExamplePool("t")
        for i, value in enumerate([10.0, 20.0, 30.0, 40.0]):
            pool.add_example(i, value)
        # Example 1's batch came back empty (e.g. all spam-rejected).
        pool.record_answers("a", [[1.0, 3.0], [], [3.0, 5.0], [4.0, 6.0]])
        return pool

    def test_aligned_answer_means_reports_indices(self):
        pool = self.pool_with_hole()
        indices, means = pool.aligned_answer_means("a")
        assert list(indices) == [0, 2, 3]
        assert list(means) == [2.0, 4.0, 5.0]

    def test_limit_slices_like_the_filtered_prefix(self):
        pool = self.pool_with_hole()
        for limit in range(6):
            prefix = [pool.batch("a", i) for i in range(min(limit, 4))]
            rows = [i for i, batch in enumerate(prefix) if batch]
            indices, means = pool.aligned_answer_means("a", limit=limit)
            assert list(indices) == rows
            assert list(means) == [sum(prefix[i]) / len(prefix[i]) for i in rows]

    def test_n_answered_counts_nonempty_only(self):
        pool = self.pool_with_hole()
        assert pool.n_answered("a") == 3
        assert pool.n_measured("a") == 4  # batches recorded, incl. empty

    def test_within_variances_skips_empty(self):
        pool = self.pool_with_hole()
        assert list(pool.within_variances("a")) == [2.0, 2.0, 2.0]

    def test_s_o_pairs_means_with_matching_targets(self):
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i, value in enumerate([10.0, 20.0, 30.0, 40.0]):
            pool.add_example(i, value)
        store.register_attribute("a", {"t"})
        pool.record_answers("a", [[1.0, 3.0], [], [3.0, 5.0], [4.0, 6.0]])
        # Correct pairing: means [2, 4, 5] vs targets [10, 30, 40] —
        # NOT the misaligned prefix [10, 20, 30].
        expected = float(
            np.cov([2.0, 4.0, 5.0], [10.0, 30.0, 40.0], ddof=1)[0, 1]
        )
        assert store.s_o_measured("t", "a") == pytest.approx(expected)

    def test_s_a_intersects_example_indices(self):
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i in range(4):
            pool.add_example(i, float(i))
        store.register_attribute("a", {"t"})
        store.register_attribute("b", {"t"})
        # 'a' is missing example 1, 'b' is missing example 3: only the
        # common examples {0, 2} may covary.
        pool.record_answers("a", [[1.0], [], [3.0], [5.0]])
        pool.record_answers("b", [[2.0], [4.0], [6.0], []])
        expected = float(np.cov([1.0, 3.0], [2.0, 6.0], ddof=1)[0, 1])
        assert store.s_a_entry("a", "b") == pytest.approx(expected)

    def test_no_common_examples_is_none(self):
        store = StatisticsStore(("t",), k=2)
        pool = store.pool("t")
        for i in range(4):
            pool.add_example(i, float(i))
        store.register_attribute("a", {"t"})
        store.register_attribute("b", {"t"})
        pool.record_answers("a", [[1.0], [], [3.0], []])
        pool.record_answers("b", [[], [2.0], [], [4.0]])
        assert store.s_a_entry("a", "b") is None

    def test_no_empty_batches_matches_plain_path(self):
        # Sanity: with no holes the aligned computation is the old one.
        store = build_store(n=60, seed=11)
        pool = store.pool("t")
        _, means = pool.aligned_answer_means("a")
        expected = float(np.cov(means, pool.target_array(), ddof=1)[0, 1])
        assert store.s_o_measured("t", "a") == pytest.approx(expected)


class TestMultiPoolStatistics:
    def test_s_c_pooled_across_pools(self):
        store = StatisticsStore(("t", "u"), k=2)
        for target, values in (("t", [1.0, 2.0]), ("u", [3.0, 4.0])):
            pool = store.pool(target)
            for i, v in enumerate(values):
                pool.add_example(i, v)
        store.register_attribute("a", {"t", "u"})
        store.pool("t").record_answers("a", [[0.0, 2.0], [0.0, 2.0]])
        store.pool("u").record_answers("a", [[0.0, 4.0], [0.0, 4.0]])
        # VarEst: (2)^2/2=2 on pool t, (4)^2/2=8 on pool u -> mean 5.
        assert store.s_c("a") == pytest.approx(5.0)

    def test_s_a_requires_common_pool(self):
        store = StatisticsStore(("t", "u"), k=2)
        for target in ("t", "u"):
            pool = store.pool(target)
            for i in range(10):
                pool.add_example(i, float(i))
        store.register_attribute("a", {"t"})
        store.register_attribute("b", {"u"})
        store.pool("t").record_answers("a", [[float(i)] * 2 for i in range(10)])
        store.pool("u").record_answers("b", [[float(i)] * 2 for i in range(10)])
        assert store.s_a_entry("a", "b") is None

    @staticmethod
    def two_pool_store(paired: set[str]) -> StatisticsStore:
        """``a`` answered on both pools: VarEst 0.5 on t1, 8 on t2."""
        store = StatisticsStore(("t1", "t2"), k=2)
        for target in ("t1", "t2"):
            for i in range(2):
                store.pool(target).add_example(i, float(i))
        store.register_attribute("a", paired)
        store.pool("t1").record_answers("a", [[0.0, 1.0], [0.0, 1.0]])
        store.pool("t2").record_answers("a", [[0.0, 4.0], [0.0, 4.0]])
        return store

    def test_widened_pairing_recomputes_s_c(self):
        store = self.two_pool_store({"t1"})
        assert store.s_c("a") == pytest.approx(0.5)
        store.register_attribute("a", {"t2"})
        assert store.s_c("a") == pytest.approx(4.25)

    def test_reregistered_attribute_recomputes_s_c(self):
        store = self.two_pool_store({"t1", "t2"})
        assert store.s_c("a") == pytest.approx(4.25)
        store.drop_attribute("a")
        store.register_attribute("a", {"t1"})
        assert store.s_c("a") == pytest.approx(0.5)
