"""Property tests: serve crash recovery from the answer journal.

A crash can cut the serving journal at *any* byte offset — between
records, mid-record, even mid-checksum.  Whatever the offset, resuming
must (a) never raise, (b) fold exactly the surviving *complete* value
records back into the :class:`~repro.serve.cache.AnswerCache`,
(c) re-charge exactly those answers so the ledger matches what the
crashed run had actually paid, and (d) restore the lost-answer cursor
from the surviving lost-record deltas.  The first property quantifies
over crash offsets against one real fault-injected serving run's
journal.

The second is differential: a faulted, reliability-weighted durable
run killed at any ``serve.*`` boundary of any wave, or inside a wave
checkpoint's save, then resumed and finished, must end where the
uncrashed run ends — same answers bought once each, same spend, same
learned worker trust, same lost-answer cursors.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.agg import make_aggregator
from repro.crowd.faults import FaultProfile, RetryPolicy
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.recording import AnswerRecorder
from repro.durability.chaos import SERVE_PHASES, SimulatedCrash
from repro.durability.checkpoint import CheckpointStore
from repro.durability.journal import read_journal
from repro.serve import SERVE_JOURNAL, QueryRequest, ServeEngine

from tests.conftest import KillAtNth

pytestmark = pytest.mark.faults

#: Harsh, retry-free faults so the seed journal holds both answer and
#: lost-cursor records (losses are the interesting recovery case).
FAULTS = FaultProfile.uniform(0.6, latency_mean=0.1)
RETRY = RetryPolicy(max_retries=0, question_timeout=0.5)


def identity_plan(target: str, n_questions: int) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


def fresh_engine(tiny_domain, directory, **kwargs):
    platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=3)
    engine = ServeEngine(
        platform,
        checkpoint_dir=directory,
        faults=FAULTS,
        retry=RETRY,
        **kwargs,
    )
    return engine, platform


@pytest.fixture(scope="module")
def journal_bytes(tmp_path_factory) -> bytes:
    """One fault-injected serving run's journal, as raw bytes."""
    from repro.domains.gaussian import GaussianDomain

    from tests.conftest import make_tiny_spec

    directory = tmp_path_factory.mktemp("seed-journal")
    domain = GaussianDomain(make_tiny_spec(), n_objects=200, seed=7, name="tiny")
    engine, _ = fresh_engine(domain, directory)
    engine.submit(
        QueryRequest("q1", ("target",), tuple(range(6))),
        identity_plan("target", 6),
    )
    engine.run()
    engine.close()
    data = (directory / SERVE_JOURNAL).read_bytes()
    assert data.count(b"\n") >= 5, "the seed run should journal several records"
    assert b'"kind":"lost"' in data, "the harsh profile should lose answers"
    return data


def expected_state(payload: bytes):
    """Complete-record expectations for one truncated journal image.

    Every complete line survives.  The final newline-less fragment
    survives only when it is itself a complete record missing just its
    newline — i.e. it still parses as JSON (a record cut anywhere
    earlier loses its closing brace); a genuinely torn fragment is
    discarded.
    """
    values: dict[tuple[int, str], int] = {}
    lost: dict[tuple[int, str], int] = {}
    records = 0
    for line in payload.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            break  # the torn final fragment
        records += 1
        key = (record["object"], record["attribute"])
        if record["kind"] == "value":
            values[key] = values.get(key, 0) + 1
        elif record["kind"] == "lost":
            lost[key] = lost.get(key, 0) + record["count"]
    return values, lost, records


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_resume_recharges_exactly_the_surviving_records(
    journal_bytes, tiny_domain, tmp_path_factory, data
):
    offset = data.draw(
        st.integers(min_value=0, max_value=len(journal_bytes)), label="offset"
    )
    directory = tmp_path_factory.mktemp("torn")
    (directory / SERVE_JOURNAL).write_bytes(journal_bytes[:offset])

    expected_values, expected_lost, expected_records = expected_state(
        journal_bytes[:offset]
    )

    # (a) resume never raises, whatever the crash offset.
    engine, platform = fresh_engine(tiny_domain, directory, resume=True)
    engine.close()

    # (b) the cache holds exactly the surviving complete value records.
    assert engine.restored_answers == sum(expected_values.values())
    assert engine.cache.total_answers == sum(expected_values.values())
    for (object_id, attribute), count in expected_values.items():
        assert engine.cache.count(object_id, attribute) == count

    # (c) the ledger re-charged exactly those answers at list price.
    price = platform.value_price("target")
    assert platform.ledger.spent_by_category.get("value", 0.0) == pytest.approx(
        sum(expected_values.values()) * price
    )
    assert platform.ledger.questions_by_category.get("value", 0) == sum(
        expected_values.values()
    )

    # (d) the lost-answer cursor sums the surviving deltas.
    assert engine._lost == expected_lost

    # The torn tail was repaired in place: re-reading the journal now
    # yields exactly the surviving records, never a corruption error.
    assert len(read_journal(directory / SERVE_JOURNAL)) == expected_records


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
#: the last waves, so some keys go unfunded.  The faults run under the
#: default retry policy and breaker, so answers land and no worker is
#: quarantined.  Losses and quarantines are left out on purpose: after a
#: crash past a wave's commit, resume does not replay that wave's fault
#: side effects, and a resumed run with either diverges from the
#: uncrashed one (DESIGN.md §13).
DURABLE_QUERIES = [
    (
        QueryRequest(f"q{index}", ("target",), tuple(range(2 * index, 2 * index + 4))),
        identity_plan("target", 4) if index % 2 == 0 else dismantled_plan(),
    )
    for index in range(7)
]
DURABLE_BUDGET_CENTS = 28.0

#: Every place a durable serve can die: each ``serve.*`` wave boundary,
#: and inside a wave checkpoint's save (both logs synced, no rename).
CRASH_POINTS = SERVE_PHASES + ("checkpoint.save",)

#: Crash points that leave nothing of the dying wave in the journal
#: past the last checkpoint's watermark: the resumed run serves the
#: whole wave again, exactly as the uncrashed run served it.
CLEAN_CUTS = ("serve.need", "serve.generate", "serve.wave")

#: Report tallies of one engine process: a resumed engine counts only
#: the waves it ran itself.
RUN_LOCAL = ("wall_seconds", "batches", "coalesced_questions", "peak_queue_depth")

#: Savings attribution.  After a crash past a wave's commit, the resumed
#: run finds that wave's journaled answers cached and books them as
#: hits (DESIGN.md §12): who paid may move, what was paid may not.
ATTRIBUTION = ("fresh_answers", "saved_answers", "spent_cents", "saved_cents")

#: Ledger entries the journal does not carry: savings (as above) and
#: the unpaid retry/abandon events of answers journaled past the
#: watermark, which resume does not replay (DESIGN.md §13).
UNJOURNALED = (
    "saved_by_category",
    "saved_answers_by_category",
    "retries_by_category",
    "abandons_by_category",
)


def crash_in_save(nth: int):
    """A ``CheckpointStore.save`` stand-in that dies on its ``nth`` call."""
    real_save = CheckpointStore.save
    calls = []

    def save(store, payload):
        calls.append(None)
        if len(calls) == nth:
            raise SimulatedCrash(f"inside checkpoint save #{nth}", 0)
        real_save(store, payload)

    return save


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
        aggregator=make_aggregator("reliability"),
        **kwargs,
    )
    return engine, platform


def serve_durable(engine: ServeEngine):
    for request, plan in DURABLE_QUERIES:
        engine.submit(request, plan)
    return engine.run()


def outcome(engine, platform, report, directory) -> dict:
    """Everything a finished durable run leaves, for comparison."""
    return {
        "report": report.to_dict(),
        "ledger": platform.ledger.snapshot(),
        "model": engine.aggregator.model.state_dict(),
        "lost": dict(engine._lost),
        "journal": [
            (r["object"], r["attribute"], r["index"], r["answer"], r["worker"])
            for r in read_journal(directory / SERVE_JOURNAL)
            if r["kind"] == "value"
        ],
    }


def comparable(run: dict, clean_cut: bool) -> tuple[dict, dict]:
    """The report and ledger minus what a crash may legitimately move."""
    report = dict(run["report"])
    ledger = dict(run["ledger"])
    dropped = RUN_LOCAL if clean_cut else RUN_LOCAL + ATTRIBUTION
    for name in dropped:
        report.pop(name, None)
    results = []
    for result in report.pop("results"):
        result = dict(result)
        result.pop("from_checkpoint")
        if not clean_cut:
            for name in ATTRIBUTION:
                result.pop(name)
        results.append(result)
    report["results"] = results
    if not clean_cut:
        for name in UNJOURNALED:
            ledger.pop(name)
    return report, ledger


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
            assert any(r.degraded_reason == "budget" for r in report.results)
            # The property's scope (see DURABLE_QUERIES).
            assert not engine._lost and not engine.breaker.ever_quarantined()
        return runs[wave_size]

    return run


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
        if point == "checkpoint.save":
            patch.setattr(CheckpointStore, "save", crash_in_save(wave))
        else:
            chaos = KillAtNth(point, wave)
        crashed, _ = durable_engine(tiny_domain, directory, wave_size, chaos=chaos)
        with crashed, pytest.raises(SimulatedCrash):
            serve_durable(crashed)
    resumed, platform = durable_engine(tiny_domain, directory, wave_size, resume=True)
    with resumed:
        report = serve_durable(resumed)
    run = outcome(resumed, platform, report, directory)

    # Each answer is bought once: across the crashed and resumed runs
    # the journal holds exactly the uncrashed purchases, none twice.
    coordinates = [value[:3] for value in run["journal"]]
    assert len(coordinates) == len(set(coordinates))
    assert sorted(run["journal"]) == sorted(reference["journal"])
    # Answers, estimates, degradation, spend and learned trust never
    # depend on where the crash fell.
    clean_cut = point in CLEAN_CUTS
    assert comparable(run, clean_cut) == comparable(reference, clean_cut)
    assert run["model"] == reference["model"]
    assert run["lost"] == reference["lost"]
