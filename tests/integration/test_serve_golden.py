"""Golden digests of three small serial serve runs.

A characterization test: it pins the SHA-256 of everything a serve run
leaves behind — the report (minus its wall-clock field and the
engine-width field older builds carried), the ledger snapshot, and the
bytes of the serve log — so a refactor of the engine cannot move an
answer, a cent or a log byte without failing here.  The three runs
cover the fault-free uniform path, the faulted reliability-weighted
path with durability, and that same run crashed at a ``serve.commit``
boundary and resumed, which must leave the faulted run's log and ledger.

The digests depend on numpy's generators; if a numpy upgrade moves
them, re-record every digest from one commit and check that nothing
else changed in the same diff.
"""

from __future__ import annotations

import hashlib
import json

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
from repro.serve import SERVE_JOURNAL, Predicate, QueryRequest, ServeEngine

pytestmark = pytest.mark.serve

#: Digests recorded from the serial engine; see the module docstring.
#: The log digests were re-recorded when the three serve files became
#: one log, and so was the crashed run's report digest (its resumed
#: results now carry the uncrashed run's savings attribution).  The
#: report and log digests were re-recorded once more when cache-only
#: submissions were removed and q4 became a plain purchasing query:
#: they are what the engine produced for that submission list before
#: the removal, and the ledger digests did not move.
GOLDEN = {
    "fault_free": {
        "report": "311e098400fe556e8a11f90fcd8fb17fd5143ee6849dbafbfd31e92f0d6a9677",
        "ledger": "10a2121e771b6f5eac53fd292eb2887ae5155ac6900742a295e3461cc7a4e07a",
        SERVE_JOURNAL: "9370f2d214d3aabc48257008da8edb5d187d9454cc37248a4f3f37c3f91d01e1",
    },
    "faulted": {
        "report": "83a57810172ce86311970bb5bcafba2a8a009879269ef45e798ea6e44bbe5328",
        "ledger": "811b7f56a79723d8fd5f11007b4be26e928ce48fb4813f08df56b1b46b549e94",
        SERVE_JOURNAL: "b2e7df73529319e299aaab2c583b0ae8f7b9689b931da84e075131dc49b3c9e1",
    },
    # Resuming buys nothing twice and books what the uncrashed run
    # booked: the log and the ledger are the faulted run's.
    "crash_resumed": {
        "report": "c3611c48453c4ea40843dca71be6a0be1c060c388e9d6f0934a7c3fbd9391caf",
    },
}


def _identity_plan() -> PreprocessingPlan:
    budget = BudgetDistribution({"target": 4})
    formula = EstimationFormula("target", {"target": 1.0}, 0.0, budget)
    return PreprocessingPlan(
        query=Query.single("target"),
        attributes=("target",),
        budget=budget,
        formulas={"target": formula},
    )


def _dismantled_plan() -> PreprocessingPlan:
    """``target`` estimated from two helpers (a multi-term formula)."""
    budget = BudgetDistribution({"helper": 3, "flag_a": 2})
    formula = EstimationFormula(
        "target", {"helper": 1.1, "flag_a": 2.5}, 3.0, budget
    )
    return PreprocessingPlan(
        query=Query.single("target"),
        attributes=("helper", "flag_a"),
        budget=budget,
        formulas={"target": formula},
    )


def _submissions() -> list[tuple[QueryRequest, PreprocessingPlan]]:
    """Eight overlapping queries: plain, deadlined and filtered."""
    identity, dismantled = _identity_plan(), _dismantled_plan()
    return [
        (QueryRequest("q0", ("target",), tuple(range(0, 6))), identity),
        (QueryRequest("q1", ("target",), tuple(range(3, 9))), dismantled),
        (
            QueryRequest("q2", ("target",), tuple(range(4, 10)), deadline_s=5.0),
            identity,
        ),
        (
            QueryRequest(
                "q3",
                ("target",),
                tuple(range(0, 12, 2)),
                predicate=Predicate("target", ">=", 10.0),
            ),
            dismantled,
        ),
        (QueryRequest("q4", ("target",), tuple(range(8, 14))), identity),
        (QueryRequest("q5", ("target",), tuple(range(10, 16))), identity),
        (
            QueryRequest("q6", ("target",), tuple(range(12, 18)), deadline_s=5.0),
            dismantled,
        ),
        (QueryRequest("q7", ("target",), tuple(range(14, 20))), identity),
    ]


def _engine(
    domain, directory, faulted: bool, resume: bool = False
) -> tuple[ServeEngine, CrowdPlatform]:
    platform = CrowdPlatform(
        domain,
        recorder=AnswerRecorder(),
        seed=3,
        budget=Budget(40.0) if faulted else None,
    )
    options = {}
    if faulted:
        options = {
            "faults": FaultProfile.uniform(0.2, latency_mean=0.01),
            "aggregator": make_aggregator("reliability"),
        }
    engine = ServeEngine(
        platform,
        wave_size=3,
        checkpoint_dir=directory,
        resume=resume,
        clock=lambda: 0.0,
        **options,
    )
    return engine, platform


def _submit(engine: ServeEngine, submissions) -> None:
    for request, plan in submissions:
        engine.submit(request, plan)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(report, platform: CrowdPlatform, directory) -> dict[str, str]:
    payload = report.to_dict()
    payload.pop("wall_seconds")
    payload.pop("workers", None)
    digests = {
        "report": _sha(json.dumps(payload, sort_keys=True).encode()),
        "ledger": _sha(
            json.dumps(platform.ledger.snapshot(), sort_keys=True).encode()
        ),
    }
    digests[SERVE_JOURNAL] = _sha((directory / SERVE_JOURNAL).read_bytes())
    # A durable serve directory holds the log and nothing else.
    assert sorted(path.name for path in directory.iterdir()) == [SERVE_JOURNAL]
    return digests


class TestServeGoldenDigests:
    def test_fault_free_uniform(self, tiny_domain, tmp_path):
        engine, platform = _engine(tiny_domain, tmp_path, faulted=False)
        with engine:
            _submit(engine, _submissions())
            report = engine.run()
        assert _digests(report, platform, tmp_path) == GOLDEN["fault_free"]

    def test_faulted_reliability_durable(self, tiny_domain, tmp_path):
        engine, platform = _engine(tiny_domain, tmp_path, faulted=True)
        with engine:
            _submit(engine, _submissions())
            report = engine.run()
        assert _digests(report, platform, tmp_path) == GOLDEN["faulted"]

    def test_crash_at_commit_then_resume(self, tiny_domain, tmp_path):
        submissions = _submissions()
        crashed, _ = _engine(tiny_domain, tmp_path, faulted=True)
        with crashed:
            # Two waves commit; the third crashes after its purchases
            # are logged and charged, before it is evaluated or
            # committed.
            _submit(crashed, submissions[:6])
            crashed.run()
            crashed.chaos = CrashInjector(at_phase="serve.commit")
            _submit(crashed, submissions[6:])
            with pytest.raises(SimulatedCrash):
                crashed.run()

        resumed, platform = _engine(tiny_domain, tmp_path, faulted=True, resume=True)
        with resumed:
            assert resumed.resumed and resumed.pending_answers > 0
            _submit(resumed, submissions)
            report = resumed.run()
        assert sum(r.from_checkpoint for r in report.results) == 6
        digests = _digests(report, platform, tmp_path)
        assert digests["report"] == GOLDEN["crash_resumed"]["report"]
        assert digests["ledger"] == GOLDEN["faulted"]["ledger"]
        assert digests[SERVE_JOURNAL] == GOLDEN["faulted"][SERVE_JOURNAL]
