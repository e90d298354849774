"""Differential property: the online evaluator against the naive loop.

Random evaluations — one or two plans with disjoint targets, each with a
linear formula over a random budget; object lists with repeated objects;
uniform, trimmed or reliability aggregation — run once through
:meth:`~repro.core.online.OnlineEvaluator.estimate_objects` and once
through :func:`tests.online_oracle.estimate_naively`, over one of four
sources:

* a :class:`~repro.serve.cache.CacheReadSource` whose keys hold full,
  short or no answer tapes (both sides read the same cache);
* a cache that holds every demanded answer;
* a budgeted :class:`~repro.crowd.platform.CrowdPlatform` whose budget
  runs out mid-object;
* a platform whose crowd faults lose answers after retries.

Each platform side gets its own, identically built platform.  Estimates
must agree bit for bit, and so must the skip lists, the ledger
snapshots, the recorder's tape lengths and the ``online.objects`` and
``agg.missing_terms`` totals.  A fetch order other than object, plan,
attribute buys different answers from a purchasing source and fails
here.

The oracle counts missing terms the way the evaluator does, so a
miscount in both would pass that comparison; over the cache that holds
every demanded answer the counts are also checked against the request:
no term is missing and every listed object is counted.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agg import make_aggregator
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.core.online import OnlineEvaluator, PlatformAnswerSource
from repro.crowd.faults import FaultProfile, RetryPolicy
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.recording import AnswerRecorder
from repro.obs import Observability
from repro.serve import AnswerCache, CacheReadSource
from repro.serve.stream import DeterministicValueStream

from tests.online_oracle import estimate_naively

pytestmark = [pytest.mark.agg, pytest.mark.faults]

ATTRIBUTES = ("target", "helper", "flag_a", "flag_b")
OBJECTS = range(8)
SEED = 3

weights = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def plans(draw) -> list[PreprocessingPlan]:
    """One or two single-target plans over random budgets."""
    targets = ("target", "helper")[: draw(st.integers(1, 2), label="plans")]
    drawn = []
    for target in targets:
        support = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True, max_size=3))
        budget = BudgetDistribution({a: draw(st.integers(1, 4)) for a in support})
        formula = EstimationFormula(
            target, {a: draw(weights) for a in support}, draw(weights), budget
        )
        drawn.append(
            PreprocessingPlan(
                query=Query.single(target),
                attributes=tuple(support),
                budget=budget,
                formulas={target: formula},
            )
        )
    return drawn


@st.composite
def evaluations(draw):
    return {
        "plans": draw(plans()),
        "objects": draw(st.lists(st.sampled_from(OBJECTS), max_size=10)),
        "source": draw(st.sampled_from(("cache", "full", "budget", "faults"))),
        # Answers cached per (object, attribute): 0 leaves the key out.
        "cached": draw(
            st.lists(
                st.integers(0, 5),
                min_size=len(OBJECTS) * len(ATTRIBUTES),
                max_size=len(OBJECTS) * len(ATTRIBUTES),
            )
        ),
        "budget": draw(st.integers(1, 40)) / 4.0,
        "fault_rate": draw(st.sampled_from((0.2, 0.4))),
        "aggregator": draw(st.sampled_from(("uniform", "trimmed", "reliability"))),
    }


def build_platform(domain, evaluation, obs=None) -> CrowdPlatform:
    options: dict = {}
    if evaluation["source"] == "budget":
        options["budget"] = Budget(evaluation["budget"])
    elif evaluation["source"] == "faults":
        options["faults"] = FaultProfile.uniform(
            evaluation["fault_rate"], latency_mean=0.01
        )
        options["retry"] = RetryPolicy(max_retries=1, question_timeout=0.5)
    return CrowdPlatform(
        domain, recorder=AnswerRecorder(), seed=SEED, obs=obs, **options
    )


def build_aggregator(name: str, stream: DeterministicValueStream):
    aggregator = make_aggregator(name)
    if name == "reliability":
        # Some residuals, so worker weights differ from 1.
        for object_id in range(20):
            answers = stream.answers(object_id, "helper", 0, 6)
            workers = stream.worker_ids(object_id, "helper", 0, 6)
            aggregator.model.observe(answers, workers, start=0)
    return aggregator


def cache_source(stream: DeterministicValueStream, counts: list[int]) -> CacheReadSource:
    cache = AnswerCache()
    keys = [(o, a) for o in OBJECTS for a in ATTRIBUTES]
    for (object_id, attribute), count in zip(keys, counts):
        if count:
            cache.add(
                object_id,
                attribute,
                stream.answers(object_id, attribute, 0, count),
                stream.worker_ids(object_id, attribute, 0, count),
            )
    return CacheReadSource(cache)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(evaluation=evaluations())
def test_evaluator_matches_the_naive_loop(tiny_domain, evaluation):
    served = build_platform(tiny_domain, evaluation, Observability.collecting())
    twin = build_platform(tiny_domain, evaluation)
    stream = DeterministicValueStream(CrowdPlatform(tiny_domain, seed=SEED))
    aggregator = build_aggregator(evaluation["aggregator"], stream)
    if evaluation["source"] == "cache":
        source = oracle_source = cache_source(stream, evaluation["cached"])
    elif evaluation["source"] == "full":
        demanded = [
            max(plan.budget[attribute] for plan in evaluation["plans"])
            for _ in OBJECTS
            for attribute in ATTRIBUTES
        ]
        source = oracle_source = cache_source(stream, demanded)
    else:
        source, oracle_source = None, PlatformAnswerSource(twin)
    evaluator = OnlineEvaluator(
        served, evaluation["plans"], answer_source=source, aggregator=aggregator
    )

    got = evaluator.estimate_objects(evaluation["objects"])
    expected = estimate_naively(
        evaluation["plans"], oracle_source, evaluation["objects"], aggregator
    )

    assert set(got) == set(expected.estimates)
    for target, values in expected.estimates.items():
        assert got[target].tobytes() == np.array(values, dtype=np.float64).tobytes()
    assert evaluator.budget_skips == expected.budget_skips
    assert evaluator.fault_skips == expected.fault_skips
    assert served.ledger.snapshot() == twin.ledger.snapshot()
    assert served.recorder.tape_lengths() == twin.recorder.tape_lengths()
    metrics = served.obs.metrics
    assert metrics.counter("online.objects") == expected.objects
    assert metrics.counter("agg.missing_terms") == expected.missing_terms
    if evaluation["source"] == "full":
        # Counted against the request: the oracle mirrors the count.
        assert metrics.counter("agg.missing_terms") == 0
        assert metrics.counter("online.objects") == len(evaluation["objects"])

