"""Differential property: the online evaluator against the naive loop.

Random evaluations — one or two plans with disjoint targets, each with a
linear or a quadratic formula over a random budget; object lists with
repeated objects; uniform, trimmed or reliability aggregation — run once
through :meth:`~repro.core.online.OnlineEvaluator.estimate_objects` and
once through :func:`tests.online_oracle.estimate_naively`, over one of
three sources:

* a :class:`~repro.serve.cache.CacheReadSource` whose keys hold full,
  short or no answer tapes (both sides read the same cache);
* a budgeted :class:`~repro.crowd.platform.CrowdPlatform` whose budget
  runs out mid-object;
* a platform whose crowd faults lose answers after retries.

Each platform side gets its own, identically built platform.  Estimates
must agree bit for bit, and so must the skip lists, the ledger
snapshots, the recorder's tape lengths and the ``online.objects`` and
``agg.missing_terms`` totals.  A fetch order other than object, plan,
attribute buys different answers from a purchasing source, and a formula
apply that reads only linear coefficient keys returns a quadratic
formula's intercept; either fails here.
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
from repro.core.nonlinear import QuadraticFormula, quadratic_feature_names
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
    """One or two single-target plans, each linear or quadratic."""
    targets = ("target", "helper")[: draw(st.integers(1, 2), label="plans")]
    drawn = []
    for target in targets:
        support = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True, max_size=3))
        budget = BudgetDistribution({a: draw(st.integers(1, 4)) for a in support})
        intercept = draw(weights)
        if draw(st.booleans(), label="quadratic"):
            monomials = quadratic_feature_names(tuple(support))
            formula = QuadraticFormula(
                target,
                {monomial: draw(weights) for monomial in monomials},
                intercept,
                budget,
                scaling={
                    monomial: (draw(weights), draw(st.floats(0.5, 3.0)))
                    for monomial in monomials
                },
            )
        else:
            formula = EstimationFormula(
                target, {a: draw(weights) for a in support}, intercept, budget
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
        "source": draw(st.sampled_from(("cache", "budget", "faults"))),
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
