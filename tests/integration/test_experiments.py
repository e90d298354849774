"""Integration tests for the experiment harness."""

import math

import pytest

from repro.crowd.recording import AnswerRecorder
from repro.domains import make_houses_domain
from repro.experiments import (
    ALGORITHMS,
    ExperimentConfig,
    coverage_experiment,
    render_series,
    render_table,
    required_budget,
    run_algorithm,
    run_averaged,
    sweep_b_obj,
    sweep_b_prc,
)
from repro.experiments.config import algorithm, paper_scale
from repro.experiments.runner import make_query
from repro.errors import ConfigurationError


@pytest.fixture
def config():
    return ExperimentConfig(n1=20, repetitions=2, eval_objects=30)


@pytest.fixture
def query(tiny_domain):
    return make_query(tiny_domain, ("target",))


class TestRegistry:
    def test_all_paper_algorithms_present(self):
        assert set(ALGORITHMS) == {
            "DisQ",
            "SimpleDisQ",
            "NaiveAverage",
            "OnlyQueryAttributes",
            "Full",
            "OneConnection",
            "NaiveEstimations",
            "TotallySeparated",
            "DisQSplit",
        }

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            algorithm("AlphaGo")

    def test_paper_scale_matches_section_5_1(self):
        config = paper_scale()
        assert config.n1 == 200
        assert config.repetitions == 30
        assert config.n_objects == 500


class TestRunner:
    def test_run_algorithm_returns_result(self, tiny_domain, query, config):
        result = run_algorithm(
            "DisQ", tiny_domain, query, 2.0, 800.0, config, seed=0
        )
        assert result.error >= 0
        assert result.plans
        assert result.online_cost_per_object <= 2.0 + 1e-9

    def test_every_algorithm_runs(self, tiny_domain, config):
        query = make_query(tiny_domain, ("target", "helper"))
        for name in ALGORITHMS:
            result = run_algorithm(
                name, tiny_domain, query, 2.0, 1800.0, config, seed=0
            )
            assert math.isfinite(result.error)

    def test_run_averaged_uses_repetitions(self, tiny_domain, query, config):
        error = run_averaged("NaiveAverage", tiny_domain, query, 2.0, 800.0, config)
        assert math.isfinite(error)

    def test_run_averaged_infeasible_budget_is_inf(self, tiny_domain, query, config):
        error = run_averaged("DisQ", tiny_domain, query, 2.0, 5.0, config)
        assert error == float("inf")

    def test_shared_recorders_make_algorithms_comparable(
        self, tiny_domain, query, config
    ):
        """A run over a shared recorder replays the answers an earlier
        run bought, even under another crowd seed."""
        recorder = AnswerRecorder()
        first = run_algorithm(
            "SimpleDisQ", tiny_domain, query, 2.0, 800.0, config, seed=0,
            recorder=recorder,
        )
        second = run_algorithm(
            "SimpleDisQ", tiny_domain, query, 2.0, 800.0, config, seed=1,
            recorder=recorder,
        )
        alone = run_algorithm(
            "SimpleDisQ", tiny_domain, query, 2.0, 800.0, config, seed=1
        )
        assert second.error == first.error
        assert alone.error != first.error


class TestSweeps:
    def test_sweep_b_prc_shape(self, tiny_domain, query, config):
        series = sweep_b_prc(
            ["NaiveAverage", "SimpleDisQ"], tiny_domain, query, 2.0, [400, 800], config
        )
        assert set(series) == {"NaiveAverage", "SimpleDisQ"}
        assert [x for x, _ in series["SimpleDisQ"]] == [400, 800]

    def test_sweep_b_obj_shape(self, tiny_domain, query, config):
        series = sweep_b_obj(
            ["NaiveAverage"], tiny_domain, query, [0.4, 2.0], 800.0, config
        )
        assert len(series["NaiveAverage"]) == 2

    def test_required_budget_inversion(self):
        series = [(1.0, 0.5), (2.0, 0.3), (4.0, 0.1)]
        assert required_budget(series, 0.3) == 2.0
        assert required_budget(series, 0.05) == math.inf
        assert required_budget(series, 1.0) == 1.0


class TestCoverage:
    def test_coverage_on_tiny_domain(self, tiny_domain, config):
        result = coverage_experiment(tiny_domain, "target", 2.0, 900.0, config)
        assert 0.0 <= result.coverage_naive <= 1.0
        assert 0.0 <= result.coverage_disq <= 1.0
        assert result.gold == tiny_domain.gold_standard("target")

    def test_repetitions_seed_from_base_seed(self):
        """Repetition r runs with seed base_seed + r, as in every sweep.

        Houses is used because seeds 0 and 5 discover different sets
        there, so a run that ignored ``base_seed`` would not match.
        """
        domain = make_houses_domain(n_objects=60, seed=1)
        query = make_query(domain, ("price",))
        config = ExperimentConfig(
            n_objects=60, n1=12, repetitions=1, eval_objects=20, base_seed=5
        )
        result = coverage_experiment(domain, "price", 4.0, 1500.0, config)
        for name, discovered in (
            ("DisQ", result.discovered_disq),
            ("OnlyQueryAttributes", result.discovered_naive),
        ):
            run = run_algorithm(name, domain, query, 4.0, 1500.0, config, seed=5)
            assert discovered == frozenset(run.plans[0].attributes) - {"price"}


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["name", "err"], [["DisQ", 0.1234], ["Naive", 0.5]])
        lines = text.splitlines()
        assert "name" in lines[0] and "err" in lines[0]
        assert "0.1234" in text

    def test_render_series(self):
        series = {"DisQ": [(1.0, 0.2), (2.0, 0.1)], "Naive": [(1.0, 0.4), (2.0, 0.4)]}
        text = render_series(series, "B_obj", title="demo")
        assert text.startswith("demo")
        assert "0.4000" in text

    def test_render_table_handles_inf_and_nan(self):
        text = render_table(["x"], [[float("inf")], [float("nan")]])
        assert "inf" in text and "-" in text
