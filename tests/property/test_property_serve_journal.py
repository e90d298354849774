"""Property tests: a durable serve resumes exactly, wherever it died.

The serve log is the one durable file of a serving run: a header, then
per wave its purchase records, its result records and a commit record.
A resumed run folds the committed waves back in and re-runs the crashed
wave with the purchases it had already logged, so each answer is bought
once and booked as the uncrashed run booked it.

Both properties compare with the same uncrashed run: a faulted,
reliability-weighted durable serve under a lossy retry policy and a
breaker that quarantines workers, whose budget runs out in its last
waves.

* Torn tails: cut that run's log at any byte offset — between records,
  mid-record, mid-checksum — resume, re-submit the same queries and
  finish.  The outcome, log bytes included, is the uncrashed run's.
* Crash anywhere: kill the run at any ``serve.*`` boundary of any wave,
  or inside a wave's commit fsync, then resume and finish.  The outcome
  is the uncrashed run's in everything but the per-process tallies and
  ``from_checkpoint``.
"""

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
from repro.crowd.faults import FaultProfile, RetryPolicy
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.quality import WorkerCircuitBreaker
from repro.crowd.recording import AnswerRecorder
from repro.durability.chaos import SERVE_PHASES, SimulatedCrash
from repro.durability.journal import Journal
from repro.serve import SERVE_JOURNAL, QueryRequest, ServeEngine

from tests.conftest import KillAtNth

pytestmark = pytest.mark.faults


def identity_plan(target: str, n_questions: int) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


def dismantled_plan() -> PreprocessingPlan:
    """``target`` estimated from two helpers (a multi-term formula)."""
    budget = BudgetDistribution({"helper": 3, "flag_a": 2})
    formula = EstimationFormula("target", {"helper": 1.1, "flag_a": 2.5}, 3.0, budget)
    return PreprocessingPlan(
        query=Query.single("target"),
        attributes=("helper", "flag_a"),
        budget=budget,
        formulas={"target": formula},
    )


#: Seven overlapping queries over two plans; the budget runs out in
#: the last waves, so some keys go unfunded.
DURABLE_QUERIES = [
    (
        QueryRequest(f"q{index}", ("target",), tuple(range(2 * index, 2 * index + 4))),
        identity_plan("target", 4) if index % 2 == 0 else dismantled_plan(),
    )
    for index in range(7)
]
DURABLE_BUDGET_CENTS = 28.0

#: One retry and a short timeout: some answers are lost for good.
LOSSY_RETRY = RetryPolicy(max_retries=1, question_timeout=0.5)

#: Every place a durable serve can die: each ``serve.*`` wave boundary,
#: and inside a wave's commit fsync (the commit record written, not yet
#: synced).
CRASH_POINTS = SERVE_PHASES + ("commit.fsync",)

#: Report tallies of one engine process: a resumed engine counts only
#: the waves it ran itself.
RUN_LOCAL = ("wall_seconds", "batches", "coalesced_questions", "peak_queue_depth")


def quarantining_breaker() -> WorkerCircuitBreaker:
    return WorkerCircuitBreaker(fault_threshold=0.3, min_observations=3, window=10)


def durable_engine(domain, directory, wave_size, **kwargs):
    platform = CrowdPlatform(
        domain,
        recorder=AnswerRecorder(),
        seed=3,
        budget=Budget(DURABLE_BUDGET_CENTS),
    )
    engine = ServeEngine(
        platform,
        wave_size=wave_size,
        checkpoint_dir=directory,
        clock=lambda: 0.0,
        faults=FaultProfile.uniform(0.2, latency_mean=0.01),
        retry=LOSSY_RETRY,
        breaker=quarantining_breaker(),
        aggregator=make_aggregator("reliability"),
        **kwargs,
    )
    return engine, platform


def serve_durable(engine: ServeEngine):
    for request, plan in DURABLE_QUERIES:
        engine.submit(request, plan)
    return engine.run()


def outcome(engine, platform, report, directory) -> dict:
    """Everything a finished durable run leaves, minus per-process tallies."""
    payload = report.to_dict()
    for name in RUN_LOCAL:
        payload.pop(name)
    for result in payload["results"]:
        result.pop("from_checkpoint")
    return {
        "report": payload,
        "ledger": platform.ledger.snapshot(),
        "model": engine.aggregator.model.state_dict(),
        "breaker": engine.breaker.state_dict(),
        "clock": engine.fault_clock.now,
        "lost": dict(engine._lost),
        "log": (directory / SERVE_JOURNAL).read_bytes(),
    }


@pytest.fixture(scope="module")
def straight_through(tmp_path_factory):
    """The uncrashed durable run for a wave size, computed on first use."""
    runs: dict[int, dict] = {}

    def run(domain, wave_size: int) -> dict:
        if wave_size not in runs:
            directory = tmp_path_factory.mktemp(f"straight-{wave_size}")
            engine, platform = durable_engine(domain, directory, wave_size)
            with engine:
                report = serve_durable(engine)
            runs[wave_size] = outcome(engine, platform, report, directory)
            # The settings bite: answers are lost for good, workers are
            # quarantined, and the budget runs out.
            assert sum(engine._lost.values()) == 6
            assert len(engine.breaker.ever_quarantined()) == 3
            assert any(r.degraded_reason == "budget" for r in report.results)
        return runs[wave_size]

    return run


def crash_in_sync(nth: int):
    """A ``Journal.sync`` stand-in that dies on its ``nth`` call."""
    real_sync = Journal.sync
    calls = []

    def sync(journal):
        calls.append(None)
        if len(calls) == nth:
            raise SimulatedCrash(f"inside commit fsync #{nth}", 0)
        real_sync(journal)

    return sync


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_resume_recharges_exactly_the_surviving_records(
    straight_through, tiny_domain, tmp_path_factory, data
):
    reference = straight_through(tiny_domain, 2)
    log = reference["log"]
    offset = data.draw(st.integers(min_value=0, max_value=len(log)), label="offset")
    directory = tmp_path_factory.mktemp("torn")
    (directory / SERVE_JOURNAL).write_bytes(log[:offset])

    # Whatever the cut, resume never raises and never buys twice: the
    # re-served waves reuse every surviving purchase and end exactly
    # where the uncrashed run ended.
    resumed, platform = durable_engine(tiny_domain, directory, 2, resume=True)
    with resumed:
        report = serve_durable(resumed)
    assert outcome(resumed, platform, report, directory) == reference


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_crash_anywhere_then_resume_matches_straight_through(
    straight_through, tiny_domain, tmp_path_factory, data
):
    wave_size = data.draw(st.sampled_from((1, 2, 3)), label="wave_size")
    waves = -(-len(DURABLE_QUERIES) // wave_size)
    wave = data.draw(st.integers(min_value=1, max_value=waves), label="wave")
    point = data.draw(st.sampled_from(CRASH_POINTS), label="crash point")
    reference = straight_through(tiny_domain, wave_size)

    directory = tmp_path_factory.mktemp("crash")
    with pytest.MonkeyPatch.context() as patch:
        chaos = None
        if point == "commit.fsync":
            patch.setattr(Journal, "sync", crash_in_sync(wave))
        else:
            chaos = KillAtNth(point, wave)
        crashed, _ = durable_engine(tiny_domain, directory, wave_size, chaos=chaos)
        with crashed, pytest.raises(SimulatedCrash):
            serve_durable(crashed)
    resumed, platform = durable_engine(tiny_domain, directory, wave_size, resume=True)
    with resumed:
        report = serve_durable(resumed)
    # Answers, estimates, degradation, spend, savings, learned trust,
    # quarantines, lost-answer cursors and the log's bytes never depend
    # on where the crash fell.
    assert outcome(resumed, platform, report, directory) == reference
