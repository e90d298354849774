"""Crowd platform simulation substrate.

The paper ran its experiments against CrowdFlower workers and recorded
their answers in a database so that different algorithms could be
compared on identical data.  This subpackage is the stand-in for that
platform: a stochastic worker pool answering the paper's four question
types (value, dismantling, verification, example), a price schedule and
budget ledger matching Section 5.1, an answer recorder for
replay-across-algorithms, a sequential verification decision
procedure, and an attribute-name normalizer.

Beyond the paper's assumptions, :mod:`repro.crowd.faults` adds an
operational fault-injection and resilience layer (timeouts, abandons,
malformed answers, retries with backoff, per-worker quarantine); see
DESIGN.md's "Resilience & fault injection" section.
"""

from repro.crowd.faults import (
    FaultInjector,
    FaultKind,
    FaultProfile,
    FaultRates,
    ResilienceReport,
    RetryPolicy,
    SimulatedClock,
)
from repro.crowd.pricing import Budget, CostLedger, PriceSchedule
from repro.crowd.worker import HonestWorker, SpamWorker, Worker
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.crowd.quality import BreakerState, WorkerCircuitBreaker
from repro.crowd.verification import SequentialVerifier, VerificationResult
from repro.crowd.normalization import (
    AttributeNormalizer,
    NormalizationMode,
)
from repro.crowd.platform import CrowdPlatform

__all__ = [
    "AnswerRecorder",
    "AttributeNormalizer",
    "BreakerState",
    "Budget",
    "CostLedger",
    "CrowdPlatform",
    "FaultInjector",
    "FaultKind",
    "FaultProfile",
    "FaultRates",
    "HonestWorker",
    "NormalizationMode",
    "PriceSchedule",
    "ResilienceReport",
    "RetryPolicy",
    "SequentialVerifier",
    "SimulatedClock",
    "SpamWorker",
    "VerificationResult",
    "Worker",
    "WorkerCircuitBreaker",
    "WorkerPool",
]
