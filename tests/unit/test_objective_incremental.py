"""The incremental objective evaluator against the reference formula."""

import numpy as np
import pytest

from repro.core import objective as objective_module
from repro.core.objective import IncrementalObjective, explained_variance


def random_trio(n: int, seed: int):
    """Cauchy-Schwarz-consistent random statistics (estimator regime)."""
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=(n + 1, 3))
    values = loadings @ rng.normal(size=(3, 200))
    target = values[0]
    attributes = values[1:]
    s_o = attributes @ target / 200
    s_a = attributes @ attributes.T / 200
    s_c = rng.uniform(0.01, 2.0, n)
    return s_o, s_a, s_c


def reference_value(s_o, s_a, s_c, counts, weight=1.0):
    return weight * explained_variance(s_o, s_a, s_c, counts)


class TestIncrementalMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_commit_sequences(self, seed):
        n = 5
        s_o, s_a, s_c = random_trio(n, seed)
        rng = np.random.default_rng(100 + seed)
        evaluator = IncrementalObjective(s_o, s_a, s_c, weight=1.7)
        for _ in range(30):
            index = int(rng.integers(n))
            trial = evaluator.counts.copy()
            trial[index] += 1
            expected = reference_value(s_o, s_a, s_c, trial, weight=1.7)
            assert evaluator.value_with(index) == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            )
            batch = evaluator.values_with_all()
            assert batch[index] == pytest.approx(expected, rel=1e-9, abs=1e-12)
            evaluator.commit(index)
            assert evaluator.value == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            )

    def test_values_with_all_covers_every_candidate(self):
        n = 6
        s_o, s_a, s_c = random_trio(n, seed=42)
        evaluator = IncrementalObjective(s_o, s_a, s_c)
        for index in (0, 3, 3, 5):
            evaluator.commit(index)
        batch = evaluator.values_with_all()
        assert batch.shape == (n,)
        for i in range(n):
            trial = evaluator.counts.copy()
            trial[i] += 1
            assert batch[i] == pytest.approx(
                reference_value(s_o, s_a, s_c, trial), rel=1e-9, abs=1e-12
            )

    def test_drift_clamped_past_refresh(self):
        """Long commit runs (past _REFRESH_EVERY rebuilds) stay exact."""
        n = 4
        s_o, s_a, s_c = random_trio(n, seed=3)
        rng = np.random.default_rng(9)
        evaluator = IncrementalObjective(s_o, s_a, s_c)
        steps = objective_module._REFRESH_EVERY * 2 + 5
        for _ in range(steps):
            evaluator.commit(int(rng.integers(n)))
        assert evaluator.value == pytest.approx(
            reference_value(s_o, s_a, s_c, evaluator.counts),
            rel=1e-9,
            abs=1e-12,
        )


def evaluator_state(evaluator: IncrementalObjective) -> dict:
    """Every field of an evaluator; arrays as (dtype, shape, bytes)."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray)
        else value
        for name, value in vars(evaluator).items()
    }


class TestCopy:
    """A copy continues exactly as the original would have."""

    @pytest.mark.parametrize("fork_at", [0, 10, 63])
    def test_copy_equals_from_scratch_past_rebuild(self, fork_at):
        """Copied mid-run and committed further, an evaluator equals
        one that made the same commits from scratch, byte for byte,
        through the _REFRESH_EVERY rebuild."""
        n = 6
        s_o, s_a, s_c = random_trio(n, seed=5)
        rebuild = objective_module._REFRESH_EVERY
        commits = np.random.default_rng(21).integers(n, size=rebuild + 20)
        original = IncrementalObjective(s_o, s_a, s_c, weight=1.3)
        scratch = IncrementalObjective(s_o, s_a, s_c, weight=1.3)
        for index in commits[:fork_at]:
            original.commit(int(index))
            scratch.commit(int(index))
        frozen = evaluator_state(original)
        clone = original.copy()
        assert evaluator_state(clone) == frozen
        rebuilds = 0
        for index in commits[fork_at:]:
            clone.commit(int(index))
            scratch.commit(int(index))
            rebuilds += scratch._commits_since_rebuild == 0
            assert evaluator_state(clone) == evaluator_state(scratch)
            assert clone._inv.tobytes() == scratch._inv.tobytes()
            assert clone._z.tobytes() == scratch._z.tobytes()
            assert clone._raw.hex() == scratch._raw.hex()
            assert np.array_equal(clone.values_with_all(), scratch.values_with_all())
        assert rebuilds == 1
        # The copy's commits leave the original where it was.
        assert evaluator_state(original) == frozen

    def test_copy_in_exact_mode(self):
        """A singular support (the reference-formula mode) copies too."""
        s_o = np.array([0.9, 0.9, 0.2])
        s_a = np.array([[1.0, 1.0, 0.1], [1.0, 1.0, 0.1], [0.1, 0.1, 1.0]])
        s_c = np.array([0.0, 0.0, 0.5])
        original = IncrementalObjective(s_o, s_a, s_c)
        scratch = IncrementalObjective(s_o, s_a, s_c)
        for index in (0, 1):
            original.commit(index)
            scratch.commit(index)
        assert original._exact
        clone = original.copy()
        for index in (2, 0, 2, 1):
            clone.commit(index)
            scratch.commit(index)
            assert evaluator_state(clone) == evaluator_state(scratch)
        assert clone.value == scratch.value


class TestDegenerateInputs:
    def test_empty_support_is_zero(self):
        s_o, s_a, s_c = random_trio(3, seed=0)
        evaluator = IncrementalObjective(s_o, s_a, s_c)
        assert evaluator.value == 0.0

    def test_singular_support_matches_ridge_reference(self):
        """Perfectly collinear attributes with zero question noise make
        the support matrix singular — both paths must agree via the
        shared ridge fallback."""
        s_o = np.array([0.9, 0.9])
        s_a = np.ones((2, 2))
        s_c = np.zeros(2)
        evaluator = IncrementalObjective(s_o, s_a, s_c)
        evaluator.commit(0)
        trial = np.array([1, 1])
        expected = reference_value(s_o, s_a, s_c, trial)
        assert evaluator.value_with(1) == pytest.approx(expected, rel=1e-9)
        assert evaluator.values_with_all()[1] == pytest.approx(
            expected, rel=1e-9
        )
        evaluator.commit(1)
        assert evaluator.value == pytest.approx(expected, rel=1e-9)
        # Further grants keep matching the reference while singular.
        evaluator.commit(0)
        assert evaluator.value == pytest.approx(
            reference_value(s_o, s_a, s_c, np.array([2, 1])), rel=1e-9
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IncrementalObjective(np.ones(3), np.eye(2), np.ones(3))
