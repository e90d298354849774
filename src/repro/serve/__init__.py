"""Online query serving: batched evaluation over a shared answer cache.

The offline pipeline answers one query at a time and buys every answer
it needs.  This package adds the serving layer on top: an
:class:`~repro.serve.engine.ServeEngine` that accepts a stream of
:class:`~repro.serve.report.QueryRequest` submissions, coalesces their
value questions across queries, buys only what the shared
:class:`~repro.serve.cache.AnswerCache` does not already hold, and
evaluates them in serial waves — deterministically, thanks to pure
per-key answer streams (:mod:`repro.serve.stream`) and a sorted-key
commit.  See DESIGN.md §12.

The resilience layer (DESIGN.md §13) makes the purchase path
fault-injectable (:mod:`repro.serve.faults`) and the results
deadline/budget/fault-aware (:mod:`repro.serve.degrade`): a query the
engine cannot fully serve comes back ``degraded`` with widened
intervals and an honest completeness figure, never silently dropped.
Backpressure is the engine's one bounded queue: a submission past
``max_queue`` is shed as ``overflow``.
"""

from repro.serve.cache import AnswerCache, CachedAnswerSource, CacheReadSource
from repro.serve.degrade import (
    DEGRADE_REASONS,
    DegradedResult,
    TermShortfall,
    evidence_confidence,
    widened_interval,
)
from repro.serve.engine import SERVE_JOURNAL, ServeEngine
from repro.serve.faults import KeyPurchase, ResilientValueStream
from repro.serve.load import LoadSpec, generate_workload, percentile, zipf_weights
from repro.serve.report import (
    SHED_REASONS,
    STATUSES,
    Predicate,
    QueryRequest,
    QueryResult,
    ServeReport,
    load_query_file,
    saving_percent,
)
from repro.serve.stream import BatchedValueStream, DeterministicValueStream

__all__ = [
    "DEGRADE_REASONS",
    "SERVE_JOURNAL",
    "SHED_REASONS",
    "STATUSES",
    "AnswerCache",
    "BatchedValueStream",
    "CacheReadSource",
    "CachedAnswerSource",
    "DegradedResult",
    "DeterministicValueStream",
    "KeyPurchase",
    "LoadSpec",
    "Predicate",
    "QueryRequest",
    "QueryResult",
    "ResilientValueStream",
    "ServeEngine",
    "ServeReport",
    "TermShortfall",
    "evidence_confidence",
    "generate_workload",
    "load_query_file",
    "percentile",
    "saving_percent",
    "widened_interval",
    "zipf_weights",
]
