"""Instrumented runs: manifests agree with the ledger and the
resilience report by construction, and parallel runs merge worker
metrics back into the same totals as serial runs."""

import pytest

from repro.core.disq import DisQParams, DisQPlanner
from repro.core.model import Query
from repro.core.online import OnlineEvaluator, default_weights
from repro.crowd.faults import FaultProfile
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.errors import CrowdFaultError
from repro.experiments import ExperimentConfig, ParallelConfig, sweep_b_prc
from repro.obs import Observability
from repro.obs.manifest import (
    build_manifest,
    manifest_errors,
    resilience_from_metrics,
    spend_from_metrics,
)

SMALL = ExperimentConfig(n_objects=200, n1=12, repetitions=2, eval_objects=20)


def tiny_query(domain) -> Query:
    return Query(
        targets=("target",), weights=default_weights(domain, ("target",))
    )


class TestManifestEqualsLedger:
    def test_spend_section_matches_ledgers_exactly(self, tiny_domain):
        """The manifest's spend is derived from the same counters the
        ledger writes, across the planner platform and its online fork."""
        obs = Observability.collecting()
        platform = CrowdPlatform(
            tiny_domain, recorder=AnswerRecorder(), seed=3, obs=obs
        )
        planner = DisQPlanner(
            platform, tiny_query(tiny_domain), 4.0, 600.0, DisQParams(n1=15)
        )
        plan = planner.preprocess()
        online = platform.fork()
        OnlineEvaluator(online, plan).evaluate(range(10))

        # The planner works on its own budgeted fork; all three ledgers
        # feed the one shared registry.
        combined_cents: dict[str, float] = {}
        combined_questions: dict[str, int] = {}
        for ledger in (platform.ledger, planner.platform.ledger, online.ledger):
            for category, cents in ledger.spent_by_category.items():
                combined_cents[category] = (
                    combined_cents.get(category, 0.0) + cents
                )
            for category, count in ledger.questions_by_category.items():
                combined_questions[category] = (
                    combined_questions.get(category, 0) + count
                )

        spend = spend_from_metrics(obs.metrics)
        assert spend["total_cents"] == pytest.approx(
            sum(combined_cents.values())
        )
        for category, cents in combined_cents.items():
            if cents > 0:
                assert spend["by_category"][category] == pytest.approx(cents)
        for category, count in combined_questions.items():
            if count > 0:
                assert spend["questions_by_category"][category] == count

        manifest = build_manifest("e2e", obs, plan=plan, created_at=0.0)
        assert manifest_errors(manifest) == []
        assert manifest["spend"] == spend


class TestManifestEqualsResilienceReport:
    def test_resilience_section_matches_report(self, tiny_domain):
        """With faults active, the manifest's resilience counts equal
        the platform's own report — they are fed by the very same
        recording calls."""
        obs = Observability.collecting()
        platform = CrowdPlatform(
            tiny_domain,
            recorder=AnswerRecorder(),
            seed=3,
            obs=obs,
            faults=FaultProfile.uniform(0.3, latency_mean=2.0),
        )
        for object_id in range(15):
            try:
                platform.ask_value(object_id, "target", 5)
            except CrowdFaultError:
                continue

        report = platform.resilience_report()
        resilience = resilience_from_metrics(obs.metrics)
        for category, count in report.retries_by_category.items():
            assert resilience["retries_by_category"].get(category, 0) == count
        for category, count in report.abandons_by_category.items():
            assert resilience["abandons_by_category"].get(category, 0) == count
        assert resilience["timeouts"] == report.timeouts
        assert resilience["abandons"] == report.abandons
        assert resilience["garbage_answers"] == report.garbage_answers
        assert resilience["quarantine_trips"] >= len(
            platform.breaker.ever_quarantined()
        )
        # The run actually exercised the machinery.
        assert report.total_retries > 0

        manifest = build_manifest("faulty", obs, created_at=0.0)
        assert manifest_errors(manifest) == []
        assert manifest["resilience"] == resilience


class TestParallelMetricsMerge:
    def test_parallel_counters_match_serial(self, tiny_domain):
        """Worker processes ship their registries back; merged in
        repetition order, as in-process repetitions are, every counter
        equals an in-process run's, and the error series stay
        bit-identical."""
        query = tiny_query(tiny_domain)
        sweep = (150.0, 300.0)
        serial_obs = Observability.collecting()
        serial = sweep_b_prc(
            ["DisQ"], tiny_domain, query, 2.0, sweep, SMALL, obs=serial_obs
        )
        parallel_obs = Observability.collecting()
        parallel = sweep_b_prc(
            ["DisQ"],
            tiny_domain,
            query,
            2.0,
            sweep,
            SMALL,
            parallel=ParallelConfig(max_workers=2),
            obs=parallel_obs,
        )
        assert parallel == serial

        serial_counters = serial_obs.metrics.counters()
        parallel_counters = parallel_obs.metrics.counters()
        assert set(parallel_counters) == set(serial_counters)
        for key, value in serial_counters.items():
            assert parallel_counters[key] == value, key
            assert type(parallel_counters[key]) is type(value), key
        assert serial_counters["runs.completed"] > 0

        manifest = build_manifest("parallel", parallel_obs, created_at=0.0)
        assert manifest_errors(manifest) == []
