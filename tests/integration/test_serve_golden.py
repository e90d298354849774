"""Golden digests of three small serial serve runs.

A characterization test: it pins the SHA-256 of everything a serve run
leaves behind — the report (minus its wall-clock field and the
engine-width field older builds carried), the ledger snapshot, and the
bytes of the answer journal, the results log and the wave checkpoint —
so a refactor of the engine cannot move an answer, a cent or a journal
byte without failing here.  The three runs cover the fault-free uniform
path, the faulted reliability-weighted path with durability, and that
same run crashed at a ``serve.commit`` boundary and resumed.

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
from repro.serve import (
    SERVE_CHECKPOINT,
    SERVE_JOURNAL,
    SERVE_RESULTS,
    Predicate,
    QueryRequest,
    ServeEngine,
)

pytestmark = pytest.mark.serve

#: Digests recorded from the serial engine; see the module docstring.
#: The checkpoint digests were re-recorded when the checkpoint stopped
#: carrying a cache snapshot; every other digest is unchanged.
GOLDEN = {
    "fault_free": {
        "report": "8558d64eb94b1c958e8dc7b6f91fc1b9950c219b942136d0710076d0b781ab8f",
        "ledger": "10a2121e771b6f5eac53fd292eb2887ae5155ac6900742a295e3461cc7a4e07a",
        SERVE_JOURNAL: "24ad79900326c93c28df6ff058c4b667ecc4242fa371a561bc8919b4540f8b71",
        SERVE_RESULTS: "18836b9d9d33e4818288749eaaca77367c2a64436897430638b84f8681007e63",
        SERVE_CHECKPOINT: "43786c109edfca7ccbbbe7926a23daf5433fdb2612b036f846a49b1b4719bc40",
    },
    "faulted": {
        "report": "6b5064b3e0c8b80b47f6b682a20ce30ff65b76f3364da1be9ab3a3923566731c",
        "ledger": "811b7f56a79723d8fd5f11007b4be26e928ce48fb4813f08df56b1b46b549e94",
        SERVE_JOURNAL: "007c06331a204165fef5b7ab7a0b6f128b10602cdff2842de8cff7be4a339598",
        SERVE_RESULTS: "ae0d5d099f92d57e27e8f1306045041a90a6977d50cb78e6b78f9cabd97e49d6",
        SERVE_CHECKPOINT: "ef38a1af05432d370ea3e3157a7d924d78e9facca80a3bddadc850668c49f464",
    },
    "crash_resumed": {
        "report": "d070f73de86eb8b3d4a55ee16bf8e6e014deaea867b292c65496bed01d996fe1",
        "ledger": "6b5a215614ba833d24378dc835b3bae58a8da6a260eff84f5e11a42a21c7a6bb",
        # Resuming re-purchases nothing: the journal is the faulted run's.
        SERVE_JOURNAL: "007c06331a204165fef5b7ab7a0b6f128b10602cdff2842de8cff7be4a339598",
        SERVE_RESULTS: "9717a8361e677c75d3b52121a62e5d252a4590168f3e768ee2cb48b07e4995f8",
        SERVE_CHECKPOINT: "8ef058e3d40482b4092570260a6f21a4e6201f1fdadd94d7f696ccd8a94e6cc9",
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


def _submissions() -> list[tuple[QueryRequest, PreprocessingPlan, bool]]:
    """Eight overlapping queries: plain, deadlined, filtered, cache-only."""
    identity, dismantled = _identity_plan(), _dismantled_plan()
    return [
        (QueryRequest("q0", ("target",), tuple(range(0, 6))), identity, False),
        (QueryRequest("q1", ("target",), tuple(range(3, 9))), dismantled, False),
        (
            QueryRequest("q2", ("target",), tuple(range(4, 10)), deadline_s=5.0),
            identity,
            False,
        ),
        (
            QueryRequest(
                "q3",
                ("target",),
                tuple(range(0, 12, 2)),
                predicate=Predicate("target", ">=", 10.0),
            ),
            dismantled,
            False,
        ),
        (QueryRequest("q4", ("target",), tuple(range(8, 14))), identity, True),
        (QueryRequest("q5", ("target",), tuple(range(10, 16))), identity, False),
        (
            QueryRequest("q6", ("target",), tuple(range(12, 18)), deadline_s=5.0),
            dismantled,
            False,
        ),
        (QueryRequest("q7", ("target",), tuple(range(14, 20))), identity, False),
    ]


#: Top-level sections of each run's final checkpoint: engine state and
#: log watermarks, never cached answers.
CHECKPOINT_KEYS = {
    "fault_free": ["journal", "platform", "results", "version"],
    "faulted": ["agg", "faults", "journal", "platform", "results", "version"],
    "crash_resumed": ["agg", "faults", "journal", "platform", "results", "version"],
}


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
    for request, plan, cache_only in submissions:
        engine.submit(request, plan, cache_only=cache_only)


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
    for name in (SERVE_JOURNAL, SERVE_RESULTS, SERVE_CHECKPOINT):
        digests[name] = _sha((directory / name).read_bytes())
    return digests


def _checkpoint_keys(directory) -> list[str]:
    return sorted(json.loads((directory / SERVE_CHECKPOINT).read_text()))


class TestServeGoldenDigests:
    def test_fault_free_uniform(self, tiny_domain, tmp_path):
        engine, platform = _engine(tiny_domain, tmp_path, faulted=False)
        with engine:
            _submit(engine, _submissions())
            report = engine.run()
        assert _digests(report, platform, tmp_path) == GOLDEN["fault_free"]
        assert _checkpoint_keys(tmp_path) == CHECKPOINT_KEYS["fault_free"]

    def test_faulted_reliability_durable(self, tiny_domain, tmp_path):
        engine, platform = _engine(tiny_domain, tmp_path, faulted=True)
        with engine:
            _submit(engine, _submissions())
            report = engine.run()
        assert _digests(report, platform, tmp_path) == GOLDEN["faulted"]
        assert _checkpoint_keys(tmp_path) == CHECKPOINT_KEYS["faulted"]

    def test_crash_at_commit_then_resume(self, tiny_domain, tmp_path):
        submissions = _submissions()
        crashed, _ = _engine(tiny_domain, tmp_path, faulted=True)
        with crashed:
            # Two waves commit and checkpoint; the third crashes after
            # its answers are journaled and charged, before it is
            # evaluated or checkpointed.
            _submit(crashed, submissions[:6])
            crashed.run()
            crashed.chaos = CrashInjector(at_phase="serve.commit")
            _submit(crashed, submissions[6:])
            with pytest.raises(SimulatedCrash):
                crashed.run()

        resumed, platform = _engine(tiny_domain, tmp_path, faulted=True, resume=True)
        with resumed:
            assert resumed.resumed and resumed.restored_answers > 0
            _submit(resumed, submissions)
            report = resumed.run()
        assert sum(r.from_checkpoint for r in report.results) == 6
        assert _digests(report, platform, tmp_path) == GOLDEN["crash_resumed"]
        assert _checkpoint_keys(tmp_path) == CHECKPOINT_KEYS["crash_resumed"]
