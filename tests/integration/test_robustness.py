"""Integration tests for the Section 5.4 robustness harness."""

import math

import pytest

from repro.crowd.normalization import NormalizationMode
from repro.experiments import ExperimentConfig
from repro.experiments.robustness import (
    with_degraded_taxonomy,
    with_normalization_mode,
    with_price_scale,
    with_rho_constant,
)
from repro.experiments.runner import make_query, run_algorithm


@pytest.fixture
def config():
    return ExperimentConfig(n1=20, repetitions=2, eval_objects=30)


@pytest.fixture
def query(tiny_domain):
    return make_query(tiny_domain, ("target",))


class TestDegradedTaxonomy:
    def test_runs_and_returns_finite_errors(self, tiny_domain, query, config):
        errors = with_degraded_taxonomy(
            ["DisQ", "NaiveAverage"], tiny_domain, query, 2.0, 900.0, config,
            extra_irrelevant=0.3,
        )
        assert set(errors) == {"DisQ", "NaiveAverage"}
        assert all(math.isfinite(e) for e in errors.values())

    def test_degradation_leaves_original_domain_untouched(
        self, tiny_domain, query, config
    ):
        before = tiny_domain.dismantle_distribution("target")
        with_degraded_taxonomy(
            ["NaiveAverage"], tiny_domain, query, 2.0, 900.0, config
        )
        assert tiny_domain.dismantle_distribution("target") == before


class TestNormalizationModes:
    @pytest.mark.parametrize(
        "mode", [NormalizationMode.IMPERFECT, NormalizationMode.NONE]
    )
    def test_runs_under_each_mode(self, tiny_domain, query, config, mode):
        errors = with_normalization_mode(
            ["DisQ"], tiny_domain, query, 2.0, 900.0, config, mode=mode
        )
        assert math.isfinite(errors["DisQ"])


class TestRhoConstant:
    def test_repetitions_seed_from_base_seed(self, tiny_domain, query, config):
        """Repetition r runs with seed base_seed + r, as in every sweep."""
        shifted = config.scaled(repetitions=1, base_seed=5)
        errors = with_rho_constant(
            tiny_domain, query, 2.0, 900.0, shifted, rho_values=(0.5,)
        )
        at_seed_5 = run_algorithm(
            "DisQ", tiny_domain, query, 2.0, 900.0,
            shifted.scaled(params_overrides={"rho_constant": 0.5}), seed=5,
        )
        assert errors[0.5] == at_seed_5.error

    def test_sweep_returns_one_error_per_value(self, tiny_domain, query, config):
        results = with_rho_constant(
            tiny_domain, query, 2.0, 900.0, config, rho_values=(0.3, 0.7)
        )
        assert set(results) == {0.3, 0.7}
        assert all(math.isfinite(e) for e in results.values())


class TestPriceScale:
    def test_budgets_scale_with_prices(self, tiny_domain, query, config):
        # Doubling both prices and budgets buys the same questions, so
        # the error should be in the same ballpark as the base run.
        scaled = with_price_scale(
            ["NaiveAverage"], tiny_domain, query, 2.0, 900.0, config, scale=2.0
        )
        assert math.isfinite(scaled["NaiveAverage"])
