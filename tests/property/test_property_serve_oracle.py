"""Differential property: the serve engine against the naive oracle.

Random workloads — wave size, overlapping object ranges over two plans,
cache-only admissions, per-query deadlines under a clock that ticks on
every read, a budget or none, faults or none, the default or a lossy
retry policy, uniform or reliability aggregation — are served once by a
durable :class:`~repro.serve.engine.ServeEngine` and once by
:class:`tests.serve_oracle.NaiveServer`.  Evaluated objects, estimates,
statuses and degradation reasons must agree exactly (so both read the
deadline clock the same number of times, in the same order); spend
must equal the answers in the serve log's purchase records times their
price, and the oracle's spend; no answer index may be logged twice; and
the manifest counters must equal the ledger.  Crashes are left to the
crash-anywhere property in ``test_property_serve_journal.py``, which
compares every crashed run with the same kind of straight-through run.
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
from repro.crowd.recording import AnswerRecorder
from repro.durability.journal import read_journal
from repro.obs import Observability
from repro.serve import SERVE_JOURNAL, QueryRequest, ServeEngine

from tests.property.test_property_serve_journal import dismantled_plan, identity_plan
from tests.serve_oracle import NaiveServer

pytestmark = [pytest.mark.serve, pytest.mark.faults]

PLANS = {"identity": identity_plan("target", 4), "dismantled": dismantled_plan()}
FAULT_SEED = 11


def breaker() -> WorkerCircuitBreaker:
    # Trips on a worker's first fault, so small workloads quarantine
    # workers that later waves would otherwise draw.
    return WorkerCircuitBreaker(fault_threshold=0.3, min_observations=1, window=10)


@st.composite
def workloads(draw):
    queries = draw(st.integers(min_value=1, max_value=8), label="queries")
    submissions = []
    for index in range(queries):
        start = draw(st.integers(min_value=0, max_value=10))
        length = draw(st.integers(min_value=1, max_value=6))
        deadline = draw(st.sampled_from((None, None, 0.0, 2.0, 5.0, 12.0)))
        request = QueryRequest(
            f"q{index}",
            ("target",),
            tuple(range(start, start + length)),
            deadline_s=deadline,
        )
        plan = PLANS[draw(st.sampled_from(sorted(PLANS)))]
        submissions.append((request, plan, draw(st.booleans())))
    return {
        "submissions": submissions,
        "wave_size": draw(st.sampled_from((None, 1, 2, 3)), label="wave_size"),
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
    expected = NaiveServer(
        oracle_platform,
        breaker=breaker(),
        aggregator=aggregator(),
        clock=ticking_clock(),
        **options,
    ).serve(submissions, workload["wave_size"])

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
        for request, plan, cache_only in submissions:
            engine.submit(request, plan, cache_only=cache_only)
        report = engine.run()

    for request, _, _ in submissions:
        got, want = report.result(request.query_id), expected[request.query_id]
        assert got.object_ids == want.object_ids
        assert got.estimates == want.estimates
        assert (got.status, got.degraded_reason) == (want.status, want.degraded_reason)

    ledger = served.ledger
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
