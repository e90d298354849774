"""Differential property: the serve engine against the naive oracle.

Random workloads — wave size, overlapping object ranges over three
plans, per-query deadlines under a clock that ticks on every read, a
budget or none, faults or none, the default or a lossy retry policy,
uniform or reliability aggregation — are served once by a durable
:class:`~repro.serve.engine.ServeEngine` and once by
:class:`tests.serve_oracle.NaiveServer`.  Half the workloads are hot
traffic: up to sixteen queries over a few objects in waves of one to
three, mostly without deadlines, so objects come back complete, the
engine's estimate memo serves rows and purchases move the reliability
model between reads.
Evaluated objects, estimates, statuses and degradation reasons must
agree exactly (so both read the deadline clock the same number of
times, in the same order), and so must each query's fresh and saved
answers and cents, the ledger's savings and the ``online.objects`` and
``agg.missing_terms`` counters; spend must equal the answers in the
serve log's purchase records times their price, and the oracle's
spend; no answer index may be logged twice; and the manifest counters
must equal the ledger.  Crashes are left to the crash-anywhere property
in ``test_property_serve_journal.py``, which compares every crashed run
with the same kind of straight-through run.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agg import make_aggregator
from repro.crowd.faults import FaultProfile, RetryPolicy
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.quality import WorkerCircuitBreaker
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.recording import AnswerRecorder
from repro.durability.journal import read_journal
from repro.obs import Observability
from repro.serve import SERVE_JOURNAL, QueryRequest, ServeEngine

from tests.property.test_property_serve_journal import dismantled_plan, identity_plan
from tests.serve_oracle import NaiveServer

pytestmark = [pytest.mark.serve, pytest.mark.faults]


def partial_plan() -> PreprocessingPlan:
    """A formula term outside the budget: every row misses one term."""
    budget = BudgetDistribution({"helper": 2})
    formula = EstimationFormula("target", {"helper": 0.7, "flag_a": 1.9}, -1.0, budget)
    return PreprocessingPlan(
        query=Query.single("target"),
        attributes=("helper",),
        budget=budget,
        formulas={"target": formula},
    )


PLANS = {
    "identity": identity_plan("target", 4),
    "dismantled": dismantled_plan(),
    "partial": partial_plan(),
}
FAULT_SEED = 11


def breaker() -> WorkerCircuitBreaker:
    # Trips on a worker's first fault, so small workloads quarantine
    # workers that later waves would otherwise draw.
    return WorkerCircuitBreaker(fault_threshold=0.3, min_observations=1, window=10)


@st.composite
def workloads(draw):
    # Hot traffic: many small waves over a few objects, mostly without
    # deadlines, so objects complete early and come back.
    hot = draw(st.booleans(), label="hot traffic")
    if hot:
        queries = draw(st.integers(min_value=6, max_value=16), label="queries")
        starts, lengths = st.integers(0, 3), st.integers(1, 2)
        deadlines = st.sampled_from((None, None, None, 12.0))
    else:
        queries = draw(st.integers(min_value=1, max_value=8), label="queries")
        starts, lengths = st.integers(0, 10), st.integers(1, 6)
        deadlines = st.sampled_from((None, None, 0.0, 2.0, 5.0, 12.0))
    submissions = []
    for index in range(queries):
        start, length = draw(starts), draw(lengths)
        request = QueryRequest(
            f"q{index}",
            ("target",),
            tuple(range(start, start + length)),
            deadline_s=draw(deadlines),
        )
        plan = PLANS[draw(st.sampled_from(sorted(PLANS)))]
        submissions.append((request, plan))
    return {
        "submissions": submissions,
        "wave_size": draw(
            st.sampled_from((1, 2, 3) if hot else (None, 1, 2, 3)), label="wave_size"
        ),
        "budget": draw(st.one_of(st.none(), st.integers(2, 40)), label="budget"),
        "fault_rate": draw(st.sampled_from((None, 0.2, 0.5)), label="fault rate"),
        "lossy": draw(st.booleans(), label="lossy retry"),
        "reliability": draw(st.booleans(), label="reliability"),
    }


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(workload=workloads())
def test_engine_matches_the_naive_oracle(tiny_domain, tmp_path_factory, workload):
    def platform(obs=None):
        budget = workload["budget"]
        return CrowdPlatform(
            tiny_domain,
            recorder=AnswerRecorder(),
            seed=3,
            budget=None if budget is None else Budget(float(budget)),
            obs=obs,
        )

    options: dict = {}
    if workload["fault_rate"] is not None:
        options = {
            "faults": FaultProfile.uniform(workload["fault_rate"], latency_mean=0.01),
            "retry": RetryPolicy(max_retries=1, question_timeout=0.5)
            if workload["lossy"]
            else RetryPolicy(),
            "fault_seed": FAULT_SEED,
        }

    def aggregator():
        return make_aggregator("reliability") if workload["reliability"] else None

    def ticking_clock():
        ticks = itertools.count()
        return lambda: float(next(ticks))

    submissions = workload["submissions"]
    oracle_platform = platform()
    oracle = NaiveServer(
        oracle_platform,
        breaker=breaker(),
        aggregator=aggregator(),
        clock=ticking_clock(),
        **options,
    )
    expected = oracle.serve(submissions, workload["wave_size"])

    directory = tmp_path_factory.mktemp("oracle")
    served = platform(Observability.collecting())
    with ServeEngine(
        served,
        wave_size=workload["wave_size"],
        checkpoint_dir=directory,
        breaker=breaker(),
        aggregator=aggregator(),
        clock=ticking_clock(),
        **options,
    ) as engine:
        for request, plan in submissions:
            engine.submit(request, plan)
        report = engine.run()

    for request, _ in submissions:
        got, want = report.result(request.query_id), expected[request.query_id]
        assert got.object_ids == want.object_ids
        assert got.estimates == want.estimates
        assert (got.status, got.degraded_reason) == (want.status, want.degraded_reason)
        assert (got.fresh_answers, got.saved_answers) == (
            want.fresh_answers,
            want.saved_answers,
        )
        assert (got.spent_cents, got.saved_cents) == (want.spent_cents, want.saved_cents)

    ledger = served.ledger
    assert ledger.saved_by_category["value"] == oracle.saved_cents
    assert ledger.saved_answers_by_category["value"] == oracle.saved_answers
    purchases = [
        record for record in read_journal(directory / SERVE_JOURNAL)
        if record["kind"] == "purchase"
    ]
    logged = 0.0
    for record in purchases:
        logged += len(record["answers"]) * served.value_price(record["attribute"])
    assert ledger.spent_by_category["value"] == logged
    assert logged == oracle_platform.ledger.spent_by_category["value"]
    indices = [
        (record["object"], record["attribute"], record["start"] + offset)
        for record in purchases
        for offset in range(len(record["answers"]))
    ]
    assert len(indices) == len(set(indices)) == ledger.questions_by_category["value"]
    metrics = served.obs.metrics
    assert metrics.counter("crowd.spend.value") == ledger.spent_by_category["value"]
    assert metrics.counter("crowd.questions.value") == ledger.questions_by_category["value"]
    assert metrics.counter("serve.cache.hits") == oracle.saved_answers
    assert metrics.counter("online.objects") == oracle.objects
    assert metrics.counter("agg.missing_terms") == oracle.missing_terms
