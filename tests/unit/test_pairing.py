"""Unit tests for the target/attribute pairing rule."""

import numpy as np
import pytest

from repro.core.pairing import NaiveMeanEstimator, PairingRule
from repro.core.statistics import StatisticsStore
from repro.errors import ConfigurationError


def store_with_parent(rho_t=0.8, rho_u=0.1, n=400, seed=0) -> StatisticsStore:
    """Parent attribute strongly related to target t, weakly to u."""
    rng = np.random.default_rng(seed)
    t = rng.normal(0, 1, n)
    u = rng.normal(0, 1, n)  # independent of t
    parent = rho_t * t + rho_u * u + np.sqrt(1 - rho_t**2 - rho_u**2) * rng.normal(
        0, 1, n
    )
    store = StatisticsStore(("t", "u"), k=2)
    for name, values in (("t", t), ("u", u)):
        pool = store.pool(name)
        for i in range(n):
            pool.add_example(i, float(values[i]))
    batches_t = [[float(parent[i])] * 2 for i in range(n)]
    store.register_attribute("parent", {"t", "u"})
    store.pool("t").record_answers("parent", batches_t)
    store.pool("u").record_answers("parent", [list(b) for b in batches_t])
    return store


class TestPairingModes:
    def test_full_pairs_everything(self):
        store = store_with_parent()
        rule = PairingRule(mode="full")
        assert rule.targets_for(store, "parent", "new") == {"t", "u"}

    def test_one_pairs_best_only(self):
        store = store_with_parent()
        rule = PairingRule(mode="one")
        assert rule.targets_for(store, "parent", "new") == {"t"}

    def test_disq_pairs_strong_targets(self):
        store = store_with_parent(rho_t=0.8, rho_u=0.1)
        rule = PairingRule(mode="disq")
        paired = rule.targets_for(store, "parent", "new")
        assert "t" in paired
        assert "u" not in paired  # 0.1 < 0.25 * 0.8

    def test_disq_pairs_both_when_comparable(self):
        store = store_with_parent(rho_t=0.6, rho_u=0.55)
        rule = PairingRule(mode="disq")
        assert rule.targets_for(store, "parent", "new") == {"t", "u"}

    def test_single_target_always_paired(self):
        store = StatisticsStore(("t",), k=2)
        rule = PairingRule(mode="disq")
        assert rule.targets_for(store, "whatever", "new") == {"t"}

    def test_unmeasured_parent_still_pairs_best(self):
        store = store_with_parent()
        store.register_attribute("mystery", set())
        rule = PairingRule(mode="disq")
        paired = rule.targets_for(store, "mystery", "new")
        assert len(paired) >= 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PairingRule(mode="sometimes")

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            PairingRule(factor=0.0)


class TestEstimators:
    def test_naive_mean_is_average_of_measured(self):
        store = store_with_parent()
        estimator = NaiveMeanEstimator()
        measured = [
            store.s_o_measured(target, "parent") for target in ("t", "u")
        ]
        expected = float(np.mean([m for m in measured if m is not None]))
        assert estimator(store, "t", "anything") == pytest.approx(expected)

    def test_naive_mean_zero_without_measurements(self):
        store = StatisticsStore(("t",), k=2)
        assert NaiveMeanEstimator()(store, "t", "a") == 0.0
