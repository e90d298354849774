"""Differential property: the online evaluator against the naive loop.

Random evaluations — one or two plans with disjoint targets, each with a
linear formula over a random budget; object lists with repeated objects;
uniform or reliability aggregation — run once through
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

The caches are filled key by key in a drawn order, so column rows and
widths grow at different points; objects sit on both sides of the
row-doubling boundaries, each attribute has its own widest tape, a plan
may demand more answers than any key holds, and keys may hold answers
bought without worker ids (read as ``UNATTRIBUTED``) before or after
attributed ones.  The evaluator reads a cache through a spy that fails
the run on any per-term ``fetch``: it must read whole columns.

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
#: Both sides of the row-doubling boundaries of a column filled from 0.
OBJECTS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 31)
KEYS = [(o, a) for o in OBJECTS for a in ATTRIBUTES]
SEED = 3
#: A demand larger than any cached tape.
WIDEST = 9

weights = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def plans(draw) -> list[PreprocessingPlan]:
    """One or two single-target plans over random budgets."""
    targets = ("target", "helper")[: draw(st.integers(1, 2), label="plans")]
    drawn = []
    for target in targets:
        support = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True, max_size=3))
        counts = st.one_of(st.integers(1, 4), st.just(WIDEST + 1))
        budget = BudgetDistribution({a: draw(counts) for a in support})
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
def cached_counts(draw) -> list[int]:
    """Answers cached per key (0 leaves it out), each attribute its own widest."""
    widest = {a: draw(st.integers(1, WIDEST), label=f"widest {a}") for a in ATTRIBUTES}
    return [draw(st.integers(0, widest[attribute])) for _, attribute in KEYS]


@st.composite
def evaluations(draw):
    return {
        "plans": draw(plans()),
        "objects": draw(st.lists(st.sampled_from(OBJECTS), max_size=10)),
        "source": draw(st.sampled_from(("cache", "full", "budget", "faults"))),
        "cached": draw(cached_counts()),
        # The order keys enter the cache in, and per key where its
        # answers stop or start carrying worker ids (None: all do).
        "order": draw(st.permutations(range(len(KEYS)))),
        "unattributed": draw(
            st.lists(
                st.one_of(st.none(), st.integers(-WIDEST, WIDEST)),
                min_size=len(KEYS),
                max_size=len(KEYS),
            )
        ),
        "budget": draw(st.integers(1, 40)) / 4.0,
        "fault_rate": draw(st.sampled_from((0.2, 0.4))),
        "aggregator": draw(st.sampled_from(("uniform", "reliability"))),
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


class TermSpy(CacheReadSource):
    """A cache source that fails the evaluation on any per-term fetch."""

    def fetch(self, object_id, attribute, n):
        raise AssertionError(f"per-term fetch of {(object_id, attribute)}")

    def fetch_attributed(self, object_id, attribute, n):
        raise AssertionError(f"per-term fetch of {(object_id, attribute)}")


def fill_cache(stream: DeterministicValueStream, evaluation, counts) -> AnswerCache:
    """Each key's first ``count`` answers, the keys in the drawn order.

    A key's ``unattributed`` split ``k`` adds its answers in two parts:
    ``k > 0`` buys the first ``k`` without worker ids, ``k < 0`` buys
    all but the last ``-k`` with them and those last without.
    """
    cache = AnswerCache()
    for index in evaluation["order"]:
        (object_id, attribute), count = KEYS[index], counts[index]
        if not count:
            continue
        answers = stream.answers(object_id, attribute, 0, count)
        workers = stream.worker_ids(object_id, attribute, 0, count)
        split = evaluation["unattributed"][index]
        if split is None:
            cache.add(object_id, attribute, answers, workers)
            continue
        cut = min(split, count) if split > 0 else max(count + split, 0)
        first = None if split > 0 else workers[:cut]
        second = workers[cut:] if split > 0 else None
        cache.add(object_id, attribute, answers[:cut], first)
        cache.add(object_id, attribute, answers[cut:], second)
    return cache


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
    if evaluation["source"] in ("cache", "full"):
        counts = evaluation["cached"]
        if evaluation["source"] == "full":
            counts = [
                max(plan.budget[attribute] for plan in evaluation["plans"])
                for _, attribute in KEYS
            ]
        cache = fill_cache(stream, evaluation, counts)
        source, oracle_source = TermSpy(cache), CacheReadSource(cache)
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

