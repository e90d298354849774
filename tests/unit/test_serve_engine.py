"""Unit tests for the serving engine and report objects."""

import json

import numpy as np
import pytest

from repro.agg import make_aggregator
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.faults import FaultProfile
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pricing import Budget
from repro.crowd.recording import AnswerRecorder
from repro.durability.chaos import CrashInjector, SimulatedCrash
from repro.durability.journal import Journal, read_journal
from repro.errors import CheckpointError, ConfigurationError
from repro.serve import (
    SERVE_JOURNAL,
    DegradedResult,
    Predicate,
    QueryRequest,
    QueryResult,
    ServeEngine,
    ServeReport,
    TermShortfall,
    load_query_file,
)

from tests.conftest import KillAtNth, rewrite_serve_header


def identity_plan(target: str, n_questions: int = 4) -> PreprocessingPlan:
    budget = BudgetDistribution({target: n_questions})
    formula = EstimationFormula(target, {target: 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single(target),
        attributes=(target,),
        budget=budget,
        formulas={target: formula},
    )


def make_engine(domain, **kwargs) -> tuple[ServeEngine, CrowdPlatform]:
    platform = CrowdPlatform(
        domain, recorder=AnswerRecorder(), seed=3, budget=kwargs.pop("budget", None)
    )
    return ServeEngine(platform, **kwargs), platform


class TestServeRequests:
    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            QueryRequest("", ("a",), (1,))
        with pytest.raises(ConfigurationError):
            QueryRequest("q", (), (1,))
        with pytest.raises(ConfigurationError):
            QueryRequest("q", ("a",), ())
        with pytest.raises(ConfigurationError):
            QueryRequest("q", ("a",), (1,), deadline_s=-1.0)
        with pytest.raises(ConfigurationError):
            QueryRequest(
                "q", ("a",), (1,), predicate=Predicate("other", ">=", 0.0)
            )

    def test_predicate_ops(self):
        assert Predicate("a", ">=", 1.0).matches(1.0)
        assert not Predicate("a", ">", 1.0).matches(1.0)
        assert Predicate("a", "<", 2.0).matches(1.0)
        with pytest.raises(ConfigurationError):
            Predicate("a", "!=", 1.0)

    def test_result_roundtrip(self):
        result = QueryResult(
            query_id="q",
            status="degraded",
            degraded_reason="deadline",
            degraded=DegradedResult(
                reason="deadline",
                reasons=("deadline", "budget"),
                completeness=0.5,
                confidence=0.7,
                answers_demanded=8,
                answers_served=4,
                objects_requested=4,
                objects_evaluated=2,
                shortfalls=[TermShortfall(1, "a", 4, 2)],
                intervals={"a": [[0.1, 0.9], [0.2, 1.3]]},
            ),
            object_ids=[1, 2],
            estimates={"a": [0.5, 0.75]},
            selected=[2],
            fresh_answers=3,
            saved_answers=1,
            spent_cents=1.2,
            saved_cents=0.4,
        )
        assert QueryResult.from_dict(result.to_dict()) == result

    def test_shed_result_roundtrip(self):
        result = QueryResult(query_id="q", status="shed", shed_reason="deadline")
        assert QueryResult.from_dict(result.to_dict()) == result
        with pytest.raises(ConfigurationError):
            QueryResult(query_id="q", status="shed", shed_reason="bogus")

    def test_non_finite_deadline_rejected(self):
        for bad in (float("nan"), float("inf"), -2.0):
            with pytest.raises(ConfigurationError):
                QueryRequest("q", ("a",), (1,), deadline_s=bad)

    def test_query_file_parsing(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(
            '{"queries": [{"id": "qa", "targets": ["a"],'
            ' "objects": {"range": [0, 3]},'
            ' "predicate": {"target": "a", "op": ">=", "threshold": 1}},'
            ' {"targets": ["b"], "objects": [7, 9]}]}'
        )
        first, second = load_query_file(path)
        assert first.query_id == "qa"
        assert first.object_ids == (0, 1, 2)
        assert first.predicate.threshold == 1.0
        assert second.query_id == "q1"  # positional default
        assert second.object_ids == (7, 9)
        assert second.predicate is None

    def test_query_file_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_query_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ConfigurationError):
            load_query_file(bad)


class TestServeEngine:
    def test_overlap_buys_each_answer_once(self, tiny_domain):
        engine, platform = make_engine(tiny_domain)
        plan = identity_plan("target", 4)
        engine.submit(QueryRequest("q1", ("target",), (0, 1, 2)), plan)
        engine.submit(QueryRequest("q2", ("target",), (1, 2, 3)), plan)
        report = engine.run()
        # Union is 4 objects x 4 answers; the 2 shared objects are hits
        # for the second query.
        assert platform.ledger.questions_by_category["value"] == 16
        assert report.result("q2").saved_answers == 8
        assert report.result("q2").fresh_answers == 4
        assert report.result("q1").saved_answers == 0
        assert report.coalesced_questions == 8

    def test_wave_coalescing_takes_max_demand(self, tiny_domain):
        engine, platform = make_engine(tiny_domain)
        engine.submit(
            QueryRequest("small", ("target",), (0,)), identity_plan("target", 2)
        )
        engine.submit(
            QueryRequest("large", ("target",), (0,)), identity_plan("target", 6)
        )
        engine.run()
        # One purchase of max(2, 6) answers, not 2 + 6.
        assert platform.ledger.questions_by_category["value"] == 6

    def test_sheds_beyond_max_queue(self, tiny_domain):
        engine, _ = make_engine(tiny_domain, max_queue=1)
        plan = identity_plan("target")
        assert engine.submit(QueryRequest("q1", ("target",), (0,)), plan)
        assert not engine.submit(QueryRequest("q2", ("target",), (1,)), plan)
        report = engine.run()
        assert report.shed == 1
        assert report.result("q2").status == "shed"
        assert report.result("q2").object_ids == []
        # The shed query spent nothing.
        assert report.result("q2").spent_cents == 0.0

    def test_duplicate_query_id_rejected(self, tiny_domain):
        engine, _ = make_engine(tiny_domain)
        plan = identity_plan("target")
        engine.submit(QueryRequest("q1", ("target",), (0,)), plan)
        with pytest.raises(ConfigurationError):
            engine.submit(QueryRequest("q1", ("target",), (1,)), plan)

    def test_missing_plan_target_rejected(self, tiny_domain):
        engine, _ = make_engine(tiny_domain)
        with pytest.raises(ConfigurationError):
            engine.submit(
                QueryRequest("q1", ("target", "helper"), (0,)),
                identity_plan("target"),
            )

    def test_predicate_selects_objects(self, tiny_domain):
        engine, _ = make_engine(tiny_domain)
        engine.submit(
            QueryRequest(
                "q1",
                ("target",),
                tuple(range(12)),
                predicate=Predicate("target", ">=", 10.0),
            ),
            identity_plan("target", 30),
        )
        report = engine.run()
        result = report.result("q1")
        estimates = dict(zip(result.object_ids, result.estimates["target"]))
        assert result.selected == [
            oid for oid in result.object_ids if estimates[oid] >= 10.0
        ]

    def test_deadline_returns_flagged_prefix(self, tiny_domain):
        ticks = iter(range(1000))

        def clock():
            return float(next(ticks))

        engine, _ = make_engine(tiny_domain, clock=clock)
        engine.submit(
            QueryRequest("q1", ("target",), tuple(range(10)), deadline_s=2.0),
            identity_plan("target"),
        )
        report = engine.run()
        result = report.result("q1")
        assert result.status == "degraded"
        assert result.degraded_reason == "deadline"
        assert result.degraded is not None
        assert "deadline" in result.degraded.reasons
        assert 0 < len(result.object_ids) < 10
        assert len(result.estimates["target"]) == len(result.object_ids)
        # Timing-only degradation: every evaluated object had its full
        # answer budget, so completeness is the object fraction alone.
        assert result.degraded.completeness == pytest.approx(
            len(result.object_ids) / 10
        )
        assert result.degraded.objects_evaluated == len(result.object_ids)

    def test_one_evaluation_per_plan_group(self, tiny_domain, monkeypatch):
        """A wave evaluates each group of queries sharing plan objects
        with one call over their concatenated objects, repeats kept."""
        from repro.core.online import OnlineEvaluator

        calls: list[list[int]] = []
        original = OnlineEvaluator.estimate_objects

        def counting(self, object_ids):
            calls.append(list(object_ids))
            return original(self, object_ids)

        monkeypatch.setattr(OnlineEvaluator, "estimate_objects", counting)
        shared, other = identity_plan("target"), identity_plan("target")
        waves = {
            "one plan": [shared, shared, shared],
            "two plans": [shared, other, shared],
        }
        expected_calls = {
            "one plan": [[0, 1, 2, 1, 2, 3, 2, 3, 4]],
            "two plans": [[0, 1, 2, 2, 3, 4], [1, 2, 3]],
        }
        for name, plans in waves.items():
            calls.clear()
            engine, _ = make_engine(tiny_domain)
            for index, plan in enumerate(plans):
                objects = tuple(range(index, index + 3))
                engine.submit(QueryRequest(f"q{index}", ("target",), objects), plan)
            report = engine.run()
            assert calls == expected_calls[name], name
            for index in range(len(plans)):
                result = report.result(f"q{index}")
                assert result.object_ids == list(range(index, index + 3))
                assert len(result.estimates["target"]) == 3
        # An object repeated within one call gets one estimate.
        q0, q2 = report.result("q0"), report.result("q2")
        assert q2.estimates["target"][0] == q0.estimates["target"][2]

    def test_overlapping_plan_targets_refused(self, tiny_domain):
        """One evaluation cannot take two plans for one target, so
        submission refuses them before the query takes its id, and its
        wave never buys anything."""
        engine, platform = make_engine(tiny_domain)
        request = QueryRequest("q1", ("target",), (0, 1))
        plans = [identity_plan("target"), identity_plan("target")]
        with pytest.raises(ConfigurationError, match="overlapping targets"):
            engine.submit(request, plans)
        assert engine.queue_depth == 0
        assert engine.run().results == []
        assert platform.ledger.total_spent == 0.0
        assert engine.submit(request, identity_plan("target"))

    def test_budget_exhaustion_degrades(self, tiny_domain):
        # 4 numeric answers cost 1.6c; allow only the first object's worth.
        engine, platform = make_engine(tiny_domain, budget=Budget(1.7))
        engine.submit(
            QueryRequest("q1", ("target",), (0, 1)), identity_plan("target", 4)
        )
        report = engine.run()
        result = report.result("q1")
        assert result.status == "degraded"
        assert result.degraded_reason == "budget"
        # Both objects evaluated; the unfunded one degraded, not dropped.
        assert len(result.object_ids) == 2
        assert platform.ledger.questions_by_category["value"] == 4
        annotation = result.degraded
        assert annotation is not None
        assert annotation.reasons == ("budget",)
        assert annotation.answers_demanded == 8
        assert annotation.answers_served == 4
        assert annotation.shortfalls == [TermShortfall(1, "target", 4, 0)]
        assert 0.0 < annotation.completeness < 1.0
        assert annotation.confidence == pytest.approx(0.95 * 4 / 8)
        # The unfunded object's interval is widened by the range prior;
        # the funded one still gets a finite, nonempty interval.
        lo, hi = annotation.intervals["target"][1]
        assert hi > lo

    def test_checkpoint_resume_without_repurchase(self, tiny_domain, tmp_path):
        plan = identity_plan("target", 4)
        requests = [
            QueryRequest("q1", ("target",), tuple(range(6))),
            QueryRequest("q2", ("target",), tuple(range(3, 9))),
        ]

        reference_engine, reference_platform = make_engine(tiny_domain)
        for request in requests:
            reference_engine.submit(request, plan)
        reference = reference_engine.run()

        # Serve and commit only the first wave, then "crash".
        crashed, crashed_platform = make_engine(
            tiny_domain,
            wave_size=1,
            checkpoint_dir=tmp_path,
            chaos=KillAtNth("serve.wave", 1),
        )
        with crashed, pytest.raises(SimulatedCrash):
            for request in requests:
                crashed.submit(request, plan)
            crashed.run()

        resumed_engine, resumed_platform = make_engine(
            tiny_domain, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed_engine.resumed
        for request in requests:
            resumed_engine.submit(request, plan)
        resumed = resumed_engine.run()
        resumed_engine.close()

        assert resumed.result("q1").from_checkpoint
        for query_id in ("q1", "q2"):
            assert np.array_equal(
                np.array(resumed.result(query_id).estimates["target"]),
                np.array(reference.result(query_id).estimates["target"]),
            )
        assert resumed_platform.ledger.total_spent == pytest.approx(
            reference_platform.ledger.total_spent
        )

    def test_journal_tail_recharges_unchecked_answers(self, tiny_domain, tmp_path):
        # Crash after a wave's purchases are logged and charged, before
        # its commit: the log's tail is the uncommitted wave.  Resume
        # charges nothing up front; re-running the wave re-charges the
        # tail's answers without buying them again.
        plan = identity_plan("target", 4)
        request = QueryRequest("q1", ("target",), (0, 1))
        straight, straight_platform = make_engine(
            tiny_domain, checkpoint_dir=tmp_path / "straight"
        )
        with straight:
            straight.submit(request, plan)
            reference = straight.run()

        directory = tmp_path / "crash"
        crashed, crashed_platform = make_engine(
            tiny_domain,
            checkpoint_dir=directory,
            chaos=KillAtNth("serve.evaluate", 1),
        )
        with crashed, pytest.raises(SimulatedCrash):
            crashed.submit(request, plan)
            crashed.run()
        spent = crashed_platform.ledger.total_spent
        assert spent > 0

        resumed, resumed_platform = make_engine(
            tiny_domain, checkpoint_dir=directory, resume=True
        )
        assert resumed.resumed and resumed.pending_answers == 8
        assert resumed_platform.ledger.total_spent == 0.0
        assert resumed.cache.total_answers == 0
        with resumed:
            resumed.submit(request, plan)
            report = resumed.run()
        assert resumed_platform.ledger.total_spent == spent
        assert report.result("q1").fresh_answers == 8
        assert report_bytes(report) == report_bytes(reference)
        assert (directory / SERVE_JOURNAL).read_bytes() == (
            tmp_path / "straight" / SERVE_JOURNAL
        ).read_bytes()

    def test_resume_requires_checkpoint_dir(self, tiny_domain):
        with pytest.raises(ConfigurationError):
            make_engine(tiny_domain, resume=True)

    def test_resume_over_per_shard_journal_refused(self, tiny_domain, tmp_path):
        # Builds that sharded the engine journaled to one file per
        # shard; this build must refuse them before restoring anything
        # rather than resume half the purchases.
        plan = identity_plan("target", 4)
        crashed, _ = make_engine(tiny_domain, checkpoint_dir=tmp_path)
        with crashed:
            crashed.submit(QueryRequest("q1", ("target",), (0, 1)), plan)
            crashed.run()
        (tmp_path / "serve.shard00.journal.jsonl").write_bytes(
            (tmp_path / SERVE_JOURNAL).read_bytes()
        )
        assert_resume_refused(tiny_domain, tmp_path, "serve.shard00.journal")
        # Also with no serve log beside it.
        (tmp_path / SERVE_JOURNAL).unlink()
        assert_resume_refused(tiny_domain, tmp_path, "serve.shard00.journal")

    def test_report_lookup_and_counts(self):
        report = ServeReport(
            results=[
                QueryResult(query_id="a"),
                QueryResult(query_id="b", status="shed"),
            ]
        )
        assert report.completed == 1
        assert report.shed == 1
        assert report.result("a").query_id == "a"
        with pytest.raises(ConfigurationError):
            report.result("missing")


#: Five overlapping queries, served one per wave.
LOGGED_REQUESTS = [
    QueryRequest(f"q{index}", ("target",), tuple(range(2 * index, 2 * index + 4)))
    for index in range(5)
]


def durable_options(**kwargs) -> dict:
    """Reliability aggregation and faults, one query a wave by default."""
    options = {
        "wave_size": 1,
        "faults": FaultProfile.uniform(0.2, latency_mean=0.01),
        "aggregator": make_aggregator("reliability"),
    }
    options.update(kwargs)
    return options


def durable_engine(domain, directory, **kwargs) -> tuple[ServeEngine, CrowdPlatform]:
    """A :func:`durable_options` engine with a checkpoint dir."""
    return make_engine(domain, checkpoint_dir=directory, **durable_options(**kwargs))


def serve_all(engine: ServeEngine, requests=LOGGED_REQUESTS) -> ServeReport:
    plan = identity_plan("target", 4)
    for request in requests:
        engine.submit(request, plan)
    return engine.run()


def assert_resume_refused(domain, directory, match: str, budget=None) -> None:
    """Resuming ``directory`` raises CheckpointError before restoring anything."""
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3, budget=budget)
    # Built in two steps so the half-made engine stays inspectable.
    engine = ServeEngine.__new__(ServeEngine)
    with pytest.raises(CheckpointError, match=match):
        engine.__init__(
            platform, checkpoint_dir=directory, resume=True, **durable_options()
        )
    assert platform.ledger.total_spent == 0.0
    assert platform.ledger.questions_by_category.get("value", 0) == 0
    assert engine.cache.total_answers == 0
    assert not engine.resumed


def records_of(directory, kind: str) -> list[dict]:
    return [
        record
        for record in read_journal(directory / SERVE_JOURNAL)
        if record["kind"] == kind
    ]


def logged_ids(directory) -> list[str]:
    return [record["result"]["query_id"] for record in records_of(directory, "result")]


def report_bytes(report: ServeReport) -> str:
    payload = report.to_dict()
    payload.pop("wall_seconds")
    return json.dumps(payload, sort_keys=True)


def crash_before_commit(nth: int):
    """A ``Journal.append`` stand-in that dies before the ``nth`` commit record."""
    real_append = Journal.append
    commits = []

    def append(journal, record):
        if record["kind"] == "commit":
            commits.append(None)
            if len(commits) == nth:
                raise SimulatedCrash(f"before commit record #{nth}", 0)
        real_append(journal, record)

    return append


class TestResultsLog:
    """Finished results live in the serve log as ``result`` records.

    A wave's checkpoint is its ``commit`` record: its place in the log
    is the commit watermark, and it carries the ledger snapshot only.
    """

    def test_crash_resume_finish_logs_each_query_once(self, tiny_domain, tmp_path):
        straight, _ = durable_engine(tiny_domain, tmp_path / "straight")
        reference = serve_all(straight)
        straight.close()

        crashed, _ = durable_engine(
            tiny_domain, tmp_path / "crash", chaos=CrashInjector(at_interactions=30)
        )
        with pytest.raises(SimulatedCrash):
            serve_all(crashed)
        crashed.close()
        before = logged_ids(tmp_path / "crash")
        assert 0 < len(before) < len(LOGGED_REQUESTS)

        resumed, _ = durable_engine(tiny_domain, tmp_path / "crash", resume=True)
        report = serve_all(resumed)
        resumed.close()
        ids = logged_ids(tmp_path / "crash")
        assert sorted(ids) == sorted(request.query_id for request in LOGGED_REQUESTS)
        assert ids[: len(before)] == before
        for request in LOGGED_REQUESTS:
            query_id = request.query_id
            assert report.result(query_id).from_checkpoint == (query_id in before)
            assert (
                report.result(query_id).estimates
                == reference.result(query_id).estimates
            )

    def test_crash_before_commit_truncates_result_tail(
        self, tiny_domain, tmp_path, monkeypatch
    ):
        # Wave 3's purchases and result are logged, but its commit
        # record never lands.
        straight, _ = durable_engine(tiny_domain, tmp_path / "straight")
        with straight:
            serve_all(straight)
        torn = tmp_path / "torn"
        with monkeypatch.context() as patch:
            patch.setattr(Journal, "append", crash_before_commit(3))
            crashed, _ = durable_engine(tiny_domain, torn)
            with crashed, pytest.raises(SimulatedCrash):
                serve_all(crashed)
        assert logged_ids(torn) == ["q0", "q1", "q2"]
        assert len(records_of(torn, "commit")) == 2

        # The same wave dies earlier: after its evaluation, before
        # anything of its commit was written.
        early = tmp_path / "early"
        crashed, _ = durable_engine(
            tiny_domain, early, chaos=KillAtNth("serve.evaluate", 3)
        )
        with crashed, pytest.raises(SimulatedCrash):
            serve_all(crashed)
        assert logged_ids(early) == ["q0", "q1"]

        reports = []
        for directory in (torn, early):
            resumed, _ = durable_engine(tiny_domain, directory, resume=True)
            # The uncommitted result is gone before anything is served;
            # the crashed wave's purchases stay for its re-run.
            assert logged_ids(directory) == ["q0", "q1"]
            assert resumed.pending_answers > 0
            with resumed:
                reports.append(report_bytes(serve_all(resumed)))
            assert logged_ids(directory) == ["q0", "q1", "q2", "q3", "q4"]
            assert (directory / SERVE_JOURNAL).read_bytes() == (
                tmp_path / "straight" / SERVE_JOURNAL
            ).read_bytes()
        assert reports[0] == reports[1]

    def test_checkpoint_carries_watermark_not_results(self, tiny_domain, tmp_path):
        engine, platform = durable_engine(tiny_domain, tmp_path)
        with engine:
            serve_all(engine)
        assert logged_ids(tmp_path) == [r.query_id for r in LOGGED_REQUESTS]
        commits = records_of(tmp_path, "commit")
        assert len(commits) == len(LOGGED_REQUESTS)
        for commit in commits:
            assert sorted(commit) == ["crc", "kind", "ledger", "seq"]
            assert not any(f'"{r.query_id}"' in json.dumps(commit) for r in LOGGED_REQUESTS)
        assert commits[-1]["ledger"] == platform.ledger.snapshot()

    def test_pre_log_checkpoint_refused(self, tiny_domain, tmp_path):
        engine, _ = durable_engine(tiny_domain, tmp_path)
        report = serve_all(engine)
        engine.close()
        # A checkpoint the way builds before the results log wrote it:
        # finished results embedded as a list.
        (tmp_path / "serve.checkpoint.json").write_text(
            json.dumps({"results": [result.to_dict() for result in report.results]})
        )
        assert_resume_refused(tiny_domain, tmp_path, "serve.checkpoint.json")

    def test_checkpoint_holds_journal_watermark_not_answers(
        self, tiny_domain, tmp_path
    ):
        engine, _ = durable_engine(tiny_domain, tmp_path)
        with engine:
            serve_all(engine)
        # The log is the answers' one durable copy: purchase records
        # hold them, each once; no other record holds answers, a cache,
        # fault state or model state.
        purchases = records_of(tmp_path, "purchase")
        assert sum(len(record["answers"]) for record in purchases) == (
            engine.cache.total_answers
        )
        for kind in ("header", "result", "commit"):
            for record in records_of(tmp_path, kind):
                assert not {"answers", "cache", "faults", "agg"} & set(record)

    def test_log_synced_once_per_commit(self, tiny_domain, tmp_path, monkeypatch):
        calls = []
        real_sync, real_append = Journal.sync, Journal.append

        def sync(journal):
            calls.append("sync")
            real_sync(journal)

        def append(journal, record):
            calls.append(record["kind"])
            real_append(journal, record)

        monkeypatch.setattr(Journal, "sync", sync)
        monkeypatch.setattr(Journal, "append", append)
        engine, _ = durable_engine(tiny_domain, tmp_path)
        with engine:
            serve_all(engine)
        # One fsync per wave, right after its commit record.
        assert calls.count("sync") == calls.count("commit") == len(LOGGED_REQUESTS)
        for index, call in enumerate(calls):
            if call == "sync":
                assert calls[index - 1] == "commit"

    def test_cache_snapshot_checkpoint_refused(self, tiny_domain, tmp_path):
        engine, _ = durable_engine(tiny_domain, tmp_path)
        with engine:
            serve_all(engine)
        # Builds that snapshotted the cache into the checkpoint kept it,
        # and a results log, beside the answer journal.
        (tmp_path / "serve.checkpoint.json").write_text(
            json.dumps({"cache": {"entries": [], "hits": 0, "misses": 0}})
        )
        (tmp_path / "serve.results.jsonl").write_text("")
        assert_resume_refused(
            tiny_domain, tmp_path, "serve.checkpoint.json, serve.results.jsonl"
        )

    def test_foreign_header_refused(self, tiny_domain, tmp_path):
        engine, _ = durable_engine(tiny_domain, tmp_path)
        with engine:
            serve_all(engine)
        rewrite_serve_header(tmp_path, version=1)
        assert_resume_refused(tiny_domain, tmp_path, "header")
        # A log with no header at all, as the previous build's answer
        # journal began.
        path = tmp_path / SERVE_JOURNAL
        with Journal(path) as journal:
            journal.truncate(0)
            journal.append({"kind": "value", "object": 0, "attribute": "target"})
        assert_resume_refused(tiny_domain, tmp_path, "header")

    def test_budget_mismatch_refused(self, tiny_domain, tmp_path):
        engine, _ = durable_engine(tiny_domain, tmp_path, budget=Budget(30.0))
        with engine:
            serve_all(engine)
        assert_resume_refused(tiny_domain, tmp_path, "budget", budget=Budget(31.0))
        assert_resume_refused(tiny_domain, tmp_path, "budget")

    def test_fresh_run_over_used_dir_resumes_like_an_empty_one(
        self, tiny_domain, tmp_path
    ):
        # Run A fills the directory.  Run B starts fresh there, dies in
        # its second wave after that wave's answers are logged and
        # charged, and is resumed: it must end where the same crash in
        # an empty directory ends, charged once for each answer it bought.
        used = tmp_path / "used"
        first, _ = durable_engine(tiny_domain, used)
        with first:
            serve_all(first)

        def crash_then_resume(directory):
            crashed, _ = durable_engine(
                tiny_domain, directory, chaos=KillAtNth("serve.evaluate", 2)
            )
            with crashed, pytest.raises(SimulatedCrash):
                serve_all(crashed, LOGGED_REQUESTS[3:])
            resumed, platform = durable_engine(tiny_domain, directory, resume=True)
            with resumed:
                report = serve_all(resumed, LOGGED_REQUESTS[3:])
            return platform.ledger.snapshot(), report_bytes(report)

        clean_ledger, clean_report = crash_then_resume(tmp_path / "clean")
        assert clean_ledger["questions_by_category"]["value"] == 24
        assert clean_ledger["spent_by_category"]["value"] == pytest.approx(9.6)
        ledger, report = crash_then_resume(used)
        assert ledger == clean_ledger
        assert report == clean_report

    def test_fresh_run_crashed_in_first_save_ignores_old_checkpoint(
        self, tiny_domain, tmp_path, monkeypatch
    ):
        # Run B serves six queries in one wave and dies inside that
        # wave's commit, before its commit record lands.  Resuming must
        # not pick up run A's log and pass B's logged results off as
        # committed.
        requests = LOGGED_REQUESTS + [
            QueryRequest("q5", ("target",), tuple(range(10, 14)))
        ]
        used = tmp_path / "used"
        first, _ = durable_engine(tiny_domain, used)
        with first:
            serve_all(first)

        def crash_then_resume(directory):
            with monkeypatch.context() as patch:
                patch.setattr(Journal, "append", crash_before_commit(1))
                crashed, _ = durable_engine(tiny_domain, directory, wave_size=None)
                with crashed, pytest.raises(SimulatedCrash):
                    serve_all(crashed, requests)
            resumed, platform = durable_engine(
                tiny_domain, directory, wave_size=None, resume=True
            )
            with resumed:
                report = serve_all(resumed, requests)
            return report, platform.ledger.snapshot()

        clean_report, clean_ledger = crash_then_resume(tmp_path / "clean")
        report, ledger = crash_then_resume(used)
        assert not any(result.from_checkpoint for result in report.results)
        assert report_bytes(report) == report_bytes(clean_report)
        assert ledger == clean_ledger

    def test_fresh_run_starts_an_empty_log(self, tiny_domain, tmp_path):
        engine, _ = durable_engine(tiny_domain, tmp_path)
        serve_all(engine)
        engine.close()
        (tmp_path / "serve.results.jsonl").write_text("")
        again, _ = durable_engine(tiny_domain, tmp_path)
        # Only the new run's header is left, and no older build's file.
        assert [r["kind"] for r in read_journal(tmp_path / SERVE_JOURNAL)] == ["header"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [SERVE_JOURNAL]
        again.submit(LOGGED_REQUESTS[0], identity_plan("target", 4))
        again.run()
        again.close()
        assert logged_ids(tmp_path) == ["q0"]


class TestEngineShutdown:
    def test_context_manager_closes_on_error(self, tiny_domain, tmp_path):
        engine, _ = make_engine(tiny_domain, checkpoint_dir=tmp_path)
        with pytest.raises(RuntimeError):
            with engine:
                engine.submit(
                    QueryRequest("q1", ("target",), (0,)), identity_plan("target")
                )
                engine.run()
                raise RuntimeError("boom")
        assert engine.journal is not None
        assert engine.journal._handle.closed
