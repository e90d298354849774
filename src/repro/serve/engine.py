"""The batched query-serving engine.

:class:`ServeEngine` accepts a stream of :class:`~repro.serve.report.
QueryRequest` submissions and evaluates them against the crowd in
**waves**.  One wave takes every admitted query (up to ``wave_size``),
and runs four phases, one after another on the calling thread:

1. **Need computation** (serial).  Walk the wave's queries in admission
   order and compute, per ``(object, attribute)`` key, the maximum
   answer count any query demands.  Concurrent queries touching the
   same key coalesce into a single purchase of the maximum shortfall —
   the cross-query batching this engine exists for.
2. **Generation** (pure).  Produce every shortfall answer in one
   batched call: :meth:`~repro.serve.stream.BatchedValueStream.
   answers_many` (fault-free) or :meth:`~repro.serve.faults.
   ResilientValueStream.purchase_batch` (fault-injected).  Every
   answer — and every fault roll, retry and worker redraw around it —
   is a pure function of ``(seed, object, attribute, index, attempt)``
   plus the frozen quarantine snapshot taken in phase 1.
3. **Commit** (sorted key order).  Check affordability, journal each
   answer (and any lost-answer cursor advance) write-ahead, charge the
   platform ledger, and insert into the shared
   :class:`~repro.serve.cache.AnswerCache` — one key at a time, in
   sorted order, so ledger float accumulation and journal sequence
   numbers depend only on the wave's keys.  Fault side effects
   (breaker outcomes, simulated latency, retry/abandon ledger events)
   are replayed here from the purchase logs, in the same canonical
   order.  A key the budget cannot cover is skipped entirely (its
   queries come back ``degraded``/``budget``); cheaper keys later in
   the order may still fit.
4. **Evaluation** (read-only, admission order).  Each query runs the
   standard :class:`~repro.core.online.OnlineEvaluator` over a
   :class:`~repro.serve.cache.CacheReadSource` — pure reads of the now
   frozen wave cache — and applies its predicate.  Deadlines are
   checked between objects; an expired query keeps its evaluated
   prefix.  Any shortfall (deadline, budget or faults) produces a
   ``degraded`` result carrying a :class:`~repro.serve.degrade.
   DegradedResult` — widened intervals, per-term shortfall,
   completeness — never a silent drop (DESIGN.md §13).

Determinism (DESIGN.md §12): a wave is one serial pass, and every
side effect happens in a canonical order — sorted keys for the commit,
admission order for accounting and evaluation — so spend, savings,
estimates and the journal depend only on the submitted queries, the
seeds and the wave size.

Backpressure: at most ``max_queue`` queries may be pending; submissions
beyond that are **shed** — refused up front with a ``shed``/
``overflow`` result and a ``serve.shed`` counter tick, never silently
dropped.  With ``shed_expired=True`` a query whose deadline has already
passed when its wave forms is shed as ``shed``/``deadline`` instead of
being evaluated; the default degrades it rather than shedding.

Durability: with a ``checkpoint_dir``, every purchased answer is
journaled write-ahead (``serve.journal.jsonl``) and every completed
wave appends its newly finished results to ``serve.results.jsonl``.
The wave then fsyncs both logs and atomically replaces
``serve.checkpoint.json``: platform, fault and model state plus each
log's record count as a watermark.  The cache is not in it — the
journal is the one durable copy of every purchased answer.  Resuming
replays the journal into an empty cache, re-charging the answers
journaled past the watermark so the ledger matches the crashed run, and
re-serves queries finished up to the results watermark from the results
log without touching the crowd.  A run without ``resume`` empties both
logs and removes the checkpoint before it serves.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.agg.base import UNATTRIBUTED, Aggregator
from repro.core.model import PreprocessingPlan
from repro.core.online import OnlineEvaluator
from repro.crowd.faults import FaultProfile, RetryPolicy, SimulatedClock
from repro.crowd.platform import CrowdPlatform
from repro.crowd.quality import WorkerCircuitBreaker
from repro.durability.checkpoint import CheckpointStore
from repro.durability.journal import Journal, read_journal
from repro.errors import (
    BudgetExhaustedError,
    CheckpointError,
    ConfigurationError,
    JournalCorruptionError,
)
from repro.serve.cache import AnswerCache, CacheKey, CacheReadSource
from repro.serve.degrade import (
    DegradedResult,
    TermShortfall,
    evidence_confidence,
    order_reasons,
    widened_interval,
)
from repro.serve.faults import KeyPurchase, ResilientValueStream
from repro.serve.report import QueryRequest, QueryResult, ServeReport
from repro.serve.stream import BatchedValueStream

#: Journal, results-log and checkpoint filenames under the engine's
#: checkpoint_dir (distinct from the offline pipeline's files so one
#: directory can host both).
SERVE_JOURNAL = "serve.journal.jsonl"
SERVE_RESULTS = "serve.results.jsonl"
SERVE_CHECKPOINT = "serve.checkpoint.json"

#: Knuth-style multiplier decorrelating the fault-stream seed from the
#: answer-stream seed (the same scheme the offline platform uses for
#: its injector), so enabling faults never perturbs answer values.
_FAULT_SEED_MIX = 2654435761


def _watermark(payload: dict, section: str) -> int | None:
    """A checkpoint's ``{"records": N}`` watermark, or ``None`` if absent."""
    entry = payload.get(section)
    if isinstance(entry, dict) and isinstance(entry.get("records"), int):
        return entry["records"]
    return None


#: One key's replayed tape: answers, worker ids (``None`` when no record
#: names a worker) and how many answers the checkpoint already paid for.
_Tape = tuple[list[float], list[int] | None, int]


def _replay_answers(
    records: list[dict], watermark: int
) -> tuple[dict[CacheKey, _Tape], dict[CacheKey, int]]:
    """Fold the answer journal's records into per-key tapes.

    Returns ``(tapes, lost)``.  ``tapes`` maps each key to its answers,
    the worker behind each (a missing one reads as ``UNATTRIBUTED``)
    and how many of its answers the first ``watermark`` records hold —
    the ones the checkpointed ledger already paid for.  ``lost`` sums
    each key's lost-answer deltas: the fault stream's cursor for a key
    runs that many indices past its cache count.  A record that
    contradicts an earlier one for the same index, or a tape with a
    missing index, is corruption and raises
    :class:`~repro.errors.JournalCorruptionError`.
    """
    values: dict[CacheKey, dict[int, float]] = {}
    workers: dict[CacheKey, dict[int, int]] = {}
    lost: dict[CacheKey, int] = {}

    def fold(record: dict) -> None:
        kind = record.get("kind")
        if kind not in ("value", "lost"):
            return
        key = (int(record["object"]), str(record["attribute"]))
        if kind == "lost":
            lost[key] = lost.get(key, 0) + int(record["count"])
            return
        index = int(record["index"])
        answer = float(record["answer"])
        tape = values.setdefault(key, {})
        if tape.setdefault(index, answer) != answer:
            raise JournalCorruptionError(
                f"serve journal disagrees with itself on {key!r}[{index}]"
            )
        worker = record.get("worker")
        if worker is not None:
            workers.setdefault(key, {})[index] = int(worker)

    for record in records[:watermark]:
        fold(record)
    paid = {key: len(tape) for key, tape in values.items()}
    for record in records[watermark:]:
        fold(record)
    tapes: dict[CacheKey, _Tape] = {}
    for key, indexed in values.items():
        count = len(indexed)
        if sorted(indexed) != list(range(count)):
            raise JournalCorruptionError(
                f"serve journal leaves a gap in the tape for {key!r}"
            )
        known = workers.get(key)
        tapes[key] = (
            [indexed[index] for index in range(count)],
            None
            if known is None
            else [known.get(index, UNATTRIBUTED) for index in range(count)],
            paid.get(key, 0),
        )
    return tapes, lost


@dataclass
class _Pending:
    """One admitted query waiting for (or inside) a wave."""

    request: QueryRequest
    plans: list[PreprocessingPlan]
    admitted_at: float
    #: (object_id, attribute) -> answers this query's plans demand.
    demands: dict[CacheKey, int] = field(default_factory=dict)
    #: Admitted under backpressure as cache-only: the query contributes
    #: no purchase demand and is served from whatever the cache holds;
    #: any shortfall degrades with reason ``"admission"``.
    cache_only: bool = False
    #: Filled during the wave: accounting first, then evaluation.
    result: QueryResult | None = None
    #: Degradation reasons the accounting phase established ("budget" /
    #: "faults"); evaluation may add "deadline".
    reasons: set[str] = field(default_factory=set)
    #: Per-key deficits behind those reasons, in sorted key order.
    shortfalls: list[TermShortfall] = field(default_factory=list)
    #: Answer counts over the full request (contract vs. delivery).
    answers_demanded: int = 0
    answers_served: int = 0


class ServeEngine:
    """Serve concurrent queries over one platform with a shared cache.

    Parameters
    ----------
    platform:
        Prices, budget, ledger and worker pool.  The engine never calls
        ``ask_value`` — answers come from its deterministic stream —
        but every cent flows through this platform's ledger.
    max_queue:
        Backpressure bound: submissions beyond this many pending
        queries are shed.
    wave_size:
        Queries per wave; ``None`` (default) takes the whole queue,
        maximizing cross-query coalescing.
    seed:
        Answer-stream seed; defaults to the platform's seed.
    checkpoint_dir:
        Enables durability (answer journal, results log and per-wave
        checkpoints) when set.  Without ``resume``, whatever an earlier
        run left there is discarded before serving.
    resume:
        Restore a previous run's checkpoint/journal from
        ``checkpoint_dir`` before serving.  A directory holding
        per-shard journals (``serve.shard*.journal.jsonl``, written by
        builds that sharded the engine) is refused with
        :class:`~repro.errors.CheckpointError`.
    clock:
        Monotonic clock used for deadlines (injectable for tests).
    faults:
        Fault profile for the purchase path; ``None`` or a disabled
        profile keeps the byte-exact fault-free path.
    retry:
        Retry budget/backoff for fault-injected purchases (defaults to
        :class:`~repro.crowd.faults.RetryPolicy`'s defaults).
    breaker:
        Worker circuit breaker; quarantined workers are excluded from
        answer generation via a frozen per-wave snapshot.
    fault_clock:
        Simulated clock that fault latency, timeouts and backoff
        advance (shared with the breaker's cooldown timing).
    fault_seed:
        Fault-stream seed; defaults to a Knuth-mix decorrelation of the
        answer-stream seed.
    chaos:
        Optional :class:`~repro.durability.chaos.CrashInjector`; fires
        at ``serve.*`` phase boundaries and on paid interactions.
    shed_expired:
        Shed (rather than degrade) queries whose deadline already
        passed when their wave formed.
    aggregator:
        Answer-aggregation strategy for the evaluation phase
        (``None`` or uniform keeps the byte-exact mean path).  A
        reliability aggregator additionally turns on worker
        provenance: journal records and cache tapes carry worker ids,
        the model absorbs every committed span serially, and its
        state rides in the wave checkpoint for bit-identical resume.
    plan_source:
        Callable resolving a request to its preprocessing plans when
        :meth:`submit` is called without explicit ``plans`` — the plan
        catalog's :meth:`~repro.catalog.query.PlanRouter.plan_source`
        hook.  Explicit plans always win; with neither, submission is
        a configuration error.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        max_queue: int = 64,
        wave_size: int | None = None,
        seed: int | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        clock=time.monotonic,
        faults: FaultProfile | None = None,
        retry: RetryPolicy | None = None,
        breaker: WorkerCircuitBreaker | None = None,
        fault_clock: SimulatedClock | None = None,
        fault_seed: int | None = None,
        chaos=None,
        shed_expired: bool = False,
        aggregator: Aggregator | None = None,
        plan_source: Callable[[QueryRequest], Sequence[PreprocessingPlan]]
        | None = None,
    ) -> None:
        if max_queue < 1:
            raise ConfigurationError(
                f"the engine needs room for at least one query, got "
                f"max_queue={max_queue}"
            )
        if wave_size is not None and wave_size < 1:
            raise ConfigurationError(f"wave_size must be positive, got {wave_size}")
        if resume and checkpoint_dir is None:
            raise ConfigurationError("resume requires a checkpoint_dir")
        self.platform = platform
        self.obs = platform.obs
        self.plan_source = plan_source
        self.max_queue = max_queue
        self.wave_size = wave_size
        # The batched stream is a strict superset of the scalar one
        # (same class contract, same per-coordinate generators); waves
        # generate through answers_many / purchase_batch and fall back
        # to the scalar path lane by lane where the kernels reject.
        self.stream = BatchedValueStream(platform, seed)
        self._clock = clock
        self.shed_expired = shed_expired
        self.chaos = chaos
        if chaos is not None:
            # Paid interactions flow through the platform's charge path.
            self.platform.chaos = chaos
        self.resilient: ResilientValueStream | None = None
        self.fault_clock = fault_clock if fault_clock is not None else SimulatedClock()
        self.breaker = breaker
        if faults is not None and faults.enabled:
            if fault_seed is None:
                fault_seed = (self.stream.seed * _FAULT_SEED_MIX + 1) % 2**63
            self.resilient = ResilientValueStream(
                self.stream, faults, retry or RetryPolicy(), fault_seed
            )
            if self.breaker is None:
                self.breaker = WorkerCircuitBreaker()
            self.breaker.metrics = self.obs.metrics
        self.cache = AnswerCache()
        #: Per-key lost-answer counts: the value stream's cursor for a
        #: key is ``cache count + lost`` (lost indices were consumed by
        #: exhausted retries and must never be re-drawn).
        self._lost: dict[CacheKey, int] = {}
        self._queue: list[_Pending] = []
        self._results: list[QueryResult] = []
        #: How many of ``_results`` the results log already covers.
        self._logged = 0
        self._seen_ids: set[str] = set()
        self._checkpointed: dict[str, QueryResult] = {}
        self._price_of: dict[str, float] = {}
        self._priors: dict[str, float] = {}
        self._batches = 0
        self._coalesced = 0
        self._peak_queue = 0
        self.resumed = False
        #: Answers journaled past the checkpoint's watermark, re-charged
        #: on resume so the ledger matches the crashed run.
        self.restored_answers = 0
        # Aggregation: "uniform" is the byte-exact mean path with no
        # provenance bookkeeping; robust aggregators reshape the
        # evaluator; a reliability aggregator additionally records who
        # answered what (journal + cache worker tapes) and absorbs
        # every committed span into its model in sorted commit order, so
        # a resumed run learns exactly what the straight-through run did.
        if aggregator is not None and aggregator.name == "uniform":
            aggregator = None
        self.aggregator = aggregator
        self._attribute_workers = aggregator is not None and aggregator.needs_workers
        self._agg_model = (
            getattr(aggregator, "model", None) if self._attribute_workers else None
        )
        #: Per-key answer counts already absorbed into the model.
        self._agg_seen: dict[CacheKey, int] = {}
        self.journal: Journal | None = None
        self._results_log: Journal | None = None
        self.checkpoints: CheckpointStore | None = None
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            self.checkpoints = CheckpointStore(directory, SERVE_CHECKPOINT)
            committed = self._restore(directory) if resume else 0
            # Records past the watermark were logged by a wave whose
            # checkpoint never landed: that wave re-runs, so drop them.
            self._results_log = Journal(directory / SERVE_RESULTS)
            self._results_log.truncate(committed)
            self.journal = Journal(directory / SERVE_JOURNAL)
            if not resume:
                # A fresh run inherits nothing.  The checkpoint goes
                # last: a crash mid-reset leaves its watermarks past
                # what the logs hold, and resume refuses it.
                self.journal.truncate(0)
                self.checkpoints.path.unlink(missing_ok=True)

    # -- durability ------------------------------------------------------

    def _restore(self, directory: Path) -> int:
        """Rebuild the last committed state; returns the results watermark.

        The checkpoint commits two watermarks: how many results-log
        records and how many answer-journal records its wave had
        written.  The cache is rebuilt from the journal alone.  Both
        logs are read and checked against their watermarks before any
        state is touched, so a directory this build cannot honour raises
        :class:`CheckpointError` (or
        :class:`~repro.errors.JournalCorruptionError`) instead of
        half-resuming.
        """
        assert self.checkpoints is not None
        shard_journals = sorted(directory.glob("serve.shard*.journal.jsonl"))
        if shard_journals:
            raise CheckpointError(
                f"{directory} holds per-shard serve journals "
                f"({', '.join(path.name for path in shard_journals)}) from a "
                f"sharded build; this build serves from one {SERVE_JOURNAL} "
                f"and cannot resume them"
            )
        payload = None
        committed = answered = 0
        records: list[dict] = []
        if self.checkpoints.exists():
            payload = self.checkpoints.load()
            committed = _watermark(payload, "results")
            if committed is None:
                raise CheckpointError(
                    f"serve checkpoint {self.checkpoints.path} has no results-log "
                    f"watermark (written before finished results moved to "
                    f"{SERVE_RESULTS}); it cannot be resumed"
                )
            answered = _watermark(payload, "journal")
            if answered is None:
                raise CheckpointError(
                    f"serve checkpoint {self.checkpoints.path} has no "
                    f"answer-journal watermark (written when the cache was "
                    f"snapshotted into the checkpoint); it cannot be resumed"
                )
            log_path = directory / SERVE_RESULTS
            records = read_journal(log_path) if log_path.exists() else []
            if len(records) < committed:
                raise CheckpointError(
                    f"serve checkpoint commits {committed} finished results but "
                    f"{log_path} holds only {len(records)}"
                )
        journal_path = directory / SERVE_JOURNAL
        journal = read_journal(journal_path) if journal_path.exists() else []
        if len(journal) < answered:
            raise CheckpointError(
                f"serve checkpoint commits {answered} answer-journal records "
                f"but {journal_path} holds only {len(journal)}"
            )
        tapes, lost = _replay_answers(journal, answered)

        absorbed = False
        if payload is not None:
            self.platform.restore_state(payload["platform"])
            faults = payload.get("faults")
            if faults is not None:
                self.fault_clock.restore_state(faults["clock"])
                if self.breaker is not None and faults.get("breaker") is not None:
                    self.breaker.restore_state(faults["breaker"])
            agg = payload.get("agg")
            if agg is not None and self._agg_model is not None:
                # The restored model has absorbed every answer journaled
                # before the watermark.
                self._agg_model.restore_state(agg["model"])
                absorbed = True
            for record in records[:committed]:
                result = QueryResult.from_dict(record["result"])
                result.from_checkpoint = True
                self._checkpointed[result.query_id] = result
            self.resumed = True
        self._lost = lost
        restored = 0
        for key in sorted(tapes):
            answers, worker_ids, paid = tapes[key]
            object_id, attribute = key
            # Answers past the watermark were paid for by the crashed
            # run after its last checkpoint; re-charging them (count ×
            # price, sorted key order) makes the ledger match it.
            fresh = len(answers) - paid
            if fresh:
                self.platform.charge_values(attribute, fresh)
            self.cache.add(object_id, attribute, answers, worker_ids)
            if absorbed:
                self._agg_seen[key] = paid
            if fresh:
                self._observe_agg(key)
            restored += fresh
        self.restored_answers = restored
        if payload is not None:
            self.obs.tracer.event(
                "serve.resume",
                results=len(self._checkpointed),
                cached_answers=self.cache.total_answers - restored,
            )
        if restored:
            self.resumed = True
            self.obs.tracer.event("serve.journal_tail", answers=restored)
        return committed

    def _checkpoint(self) -> None:
        """Commit one wave: log its finished results, then checkpoint.

        Results finished since the last checkpoint are appended to the
        results log (results served from a restored checkpoint are
        already in it).  The answer journal and the log are fsynced,
        and only then is the checkpoint — platform, fault and
        aggregation state, and each log's record count as a watermark —
        atomically replaced.  Neither finished results nor cached
        answers ride in it, so its size does not track either.  A crash
        between the syncs and the rename leaves log tails past the
        watermarks: resume re-charges the journal's and truncates the
        results log's.
        """
        if self.checkpoints is None:
            return
        journal, log = self.journal, self._results_log
        assert journal is not None and log is not None
        for result in self._results[self._logged :]:
            if not result.from_checkpoint:
                log.append({"kind": "result", "result": result.to_dict()})
        self._logged = len(self._results)
        journal.sync()
        log.sync()
        payload = {
            "platform": self.platform.capture_state(),
            "journal": {"records": journal.record_count},
            "results": {"records": log.record_count},
        }
        if self.resilient is not None:
            payload["faults"] = {
                "clock": self.fault_clock.state_dict(),
                "breaker": (
                    self.breaker.state_dict() if self.breaker is not None else None
                ),
            }
        if self._agg_model is not None:
            payload["agg"] = {"model": self._agg_model.state_dict()}
        self.checkpoints.save(payload)

    def _observe_agg(self, key: CacheKey) -> None:
        """Absorb one key's fresh cache span into the reliability model.

        The model's prefix-residual update is chunk-independent
        (see :meth:`repro.agg.reliability.ReliabilityModel.observe`),
        and keys are always absorbed serially in sorted commit order,
        so a resumed run replays the exact float sequence of the
        straight-through run.
        """
        if self._agg_model is None:
            return
        object_id, attribute = key
        total = self.cache.count(object_id, attribute)
        seen = self._agg_seen.get(key, 0)
        if total <= seen:
            return
        tape = self.cache.answers(object_id, attribute, total)
        worker_ids = self.cache.workers(object_id, attribute, total)
        self._agg_model.observe(tape, list(worker_ids[seen:]), start=seen)
        self._agg_seen[key] = total

    def close(self) -> None:
        """Flush and close the answer journal and the results log."""
        if self.journal is not None:
            self.journal.close()
        if self._results_log is not None:
            self._results_log.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Queries admitted and not yet served."""
        return len(self._queue)

    def reject(self, request: QueryRequest) -> QueryResult:
        """Refuse one query at the front door (429-style), costing nothing.

        The admission layer calls this when its backpressure ladder
        says the query should not even enter the engine queue.  The
        query still gets a :class:`QueryResult` (``shed``/``rejected``)
        in the report — never a silent drop.
        """
        if request.query_id in self._seen_ids:
            raise ConfigurationError(
                f"duplicate query id {request.query_id!r} submitted"
            )
        self._seen_ids.add(request.query_id)
        result = QueryResult(
            query_id=request.query_id, status="shed", shed_reason="rejected"
        )
        self._results.append(result)
        metrics = self.obs.metrics
        metrics.inc("serve.queries")
        metrics.inc("serve.shed")
        metrics.inc("serve.shed.rejected")
        self.obs.tracer.event(
            "serve.shed",
            query=request.query_id,
            reason="rejected",
            depth=len(self._queue),
        )
        return result

    def submit(
        self,
        request: QueryRequest,
        plans: PreprocessingPlan | Sequence[PreprocessingPlan] | None = None,
        cache_only: bool = False,
    ) -> bool:
        """Admit one query (with its preprocessing plans) for serving.

        Returns ``True`` when admitted (or already finished in a
        restored checkpoint), ``False`` when shed by backpressure.
        Shed queries still get a :class:`QueryResult` in the report.

        ``plans`` may be omitted when the engine was built with a
        ``plan_source`` (the catalog-backed lookup path): the source
        resolves the request's target tuple to its plans — a cached
        entry, a refresh, or fresh preprocessing — before admission.

        With ``cache_only=True`` (the admission layer's shed-with-
        degrade rung) the query contributes no purchase demand: it is
        served from whatever the shared cache holds when its wave
        runs, and any term the cache cannot fully cover degrades with
        reason ``"admission"``.
        """
        if plans is None:
            if self.plan_source is None:
                raise ConfigurationError(
                    f"query {request.query_id!r} submitted without plans and "
                    f"the engine has no plan_source"
                )
            plans = list(self.plan_source(request))
        elif isinstance(plans, PreprocessingPlan):
            plans = [plans]
        else:
            plans = list(plans)
        if request.query_id in self._seen_ids:
            raise ConfigurationError(
                f"duplicate query id {request.query_id!r} submitted"
            )
        plan_targets = {
            target for plan in plans for target in plan.query.targets
        }
        missing = [t for t in request.targets if t not in plan_targets]
        if missing:
            raise ConfigurationError(
                f"query {request.query_id!r} targets {missing} have no plan"
            )
        self._seen_ids.add(request.query_id)
        metrics = self.obs.metrics
        if request.query_id in self._checkpointed:
            # Finished before the crash; serve the checkpointed result.
            self._results.append(self._checkpointed.pop(request.query_id))
            metrics.inc("serve.queries")
            metrics.inc("serve.from_checkpoint")
            return True
        if len(self._queue) >= self.max_queue:
            self._results.append(
                QueryResult(
                    query_id=request.query_id,
                    status="shed",
                    shed_reason="overflow",
                )
            )
            metrics.inc("serve.queries")
            metrics.inc("serve.shed")
            metrics.inc("serve.shed.overflow")
            self.obs.tracer.event(
                "serve.shed",
                query=request.query_id,
                reason="overflow",
                depth=len(self._queue),
            )
            return False
        pending = _Pending(
            request=request,
            plans=plans,
            admitted_at=self._clock(),
            cache_only=cache_only,
        )
        for plan in pending.plans:
            for attribute in plan.budget.attributes:
                count = plan.budget[attribute]
                for object_id in request.object_ids:
                    key = (object_id, attribute)
                    pending.demands[key] = max(pending.demands.get(key, 0), count)
        self._queue.append(pending)
        self._peak_queue = max(self._peak_queue, len(self._queue))
        metrics.inc("serve.queries")
        metrics.gauge("serve.queue.depth", len(self._queue))
        return True

    # -- serving ---------------------------------------------------------

    def run(self) -> ServeReport:
        """Serve every admitted query; returns the aggregate report."""
        started = time.perf_counter()
        with self.obs.tracer.span("serve"):
            while self._queue:
                size = self.wave_size or len(self._queue)
                wave, self._queue = self._queue[:size], self._queue[size:]
                self.obs.metrics.gauge("serve.queue.depth", len(self._queue))
                if self.shed_expired:
                    wave = self._shed_expired(wave)
                    if not wave:
                        continue
                self._serve_wave(wave)
                self._checkpoint()
                self._kill_point("serve.wave")
        report = ServeReport(
            results=list(self._results),
            batches=self._batches,
            coalesced_questions=self._coalesced,
            peak_queue_depth=self._peak_queue,
            wall_seconds=time.perf_counter() - started,
        )
        self.obs.metrics.gauge("serve.peak_queue_depth", self._peak_queue)
        return report

    def _price(self, attribute: str) -> float:
        price = self._price_of.get(attribute)
        if price is None:
            price = self.platform.value_price(attribute)
            self._price_of[attribute] = price
        return price

    def _prior_variance(self, attribute: str) -> float:
        """Range-based prior variance ``(span/4)²`` for a zero-answer term."""
        prior = self._priors.get(attribute)
        if prior is None:
            canonical, _ = self.stream.resolve(attribute)
            low, high = self.stream.domain.answer_range(canonical)
            prior = ((high - low) / 4.0) ** 2
            self._priors[attribute] = prior
        return prior

    def _kill_point(self, phase: str) -> None:
        """Chaos hook: crash at a configured ``serve.*`` phase boundary."""
        if self.chaos is not None:
            self.chaos.phase_boundary(phase)

    def _shed_expired(self, wave: list[_Pending]) -> list[_Pending]:
        """Shed wave members whose deadline passed before serving began.

        Only called when ``shed_expired`` is set: the alternative (and
        default) posture is to serve such queries degraded.  Shed here
        costs nothing — the query is dropped before need computation,
        so it contributes no demand to the wave's purchases.
        """
        metrics = self.obs.metrics
        kept: list[_Pending] = []
        for pending in wave:
            deadline = pending.request.deadline_s
            if (
                deadline is not None
                and self._clock() - pending.admitted_at > deadline
            ):
                self._results.append(
                    QueryResult(
                        query_id=pending.request.query_id,
                        status="shed",
                        shed_reason="deadline",
                    )
                )
                metrics.inc("serve.shed")
                metrics.inc("serve.shed.deadline")
                self.obs.tracer.event(
                    "serve.shed",
                    query=pending.request.query_id,
                    reason="deadline",
                )
            else:
                kept.append(pending)
        return kept

    def _serve_wave(self, wave: list[_Pending]) -> None:
        metrics = self.obs.metrics
        metrics.inc("serve.waves")

        # Phase 1 (serial): per-key wave demand = max over queries, and
        # the pre-wave cache level each shortfall purchase starts from.
        # Cache-only admissions contribute *no* purchase demand — they
        # read, they never buy — but their keys still need pre-counts
        # for the accounting replay below.
        demands: dict[CacheKey, int] = {}
        all_keys: set[CacheKey] = set()
        for pending in wave:
            all_keys.update(pending.demands)
            if pending.cache_only:
                continue
            for key, count in pending.demands.items():
                demands[key] = max(demands.get(key, 0), count)
        pre_counts = {
            key: self.cache.count(key[0], key[1]) for key in all_keys
        }
        shortfalls = [
            (key, pre_counts[key], demands[key] - pre_counts[key])
            for key in sorted(demands)
            if demands[key] > pre_counts[key]
        ]
        # Frozen quarantine snapshot: worker exclusion is decided once
        # per wave, so generation stays a pure function of the wave's
        # requests and the commit replays breaker outcomes afterwards.
        blocked: frozenset[int] = frozenset()
        if self.resilient is not None and self.breaker is not None:
            blocked = frozenset(self.breaker.quarantined(self.fault_clock.now))
        self._kill_point("serve.need")
        # Batching saving: questions the wave's queries would have
        # bought independently but the coalesced purchase did not.
        independent = sum(
            max(0, count - pre_counts[key])
            for pending in wave
            if not pending.cache_only
            for key, count in pending.demands.items()
        )
        fresh_total = sum(n for _, _, n in shortfalls)
        self._coalesced += independent - fresh_total
        if independent > fresh_total:
            metrics.inc("serve.coalesced", independent - fresh_total)

        # Phase 2 (pure): generate every shortfall answer in one batched
        # call.  The fault-free branch draws from the per-coordinate
        # answer stream; the resilient branch purchases through
        # per-attempt derived RNGs (see serve/faults.py) against the
        # frozen quarantine snapshot.
        with self.obs.tracer.span(
            "serve.purchase", keys=len(shortfalls), answers=fresh_total
        ):
            generated: list
            if self.resilient is None:
                generated = self.stream.answers_many(
                    [(key[0], key[1], start, count) for key, start, count in shortfalls]
                )
            else:
                generated = self.resilient.purchase_batch(
                    [
                        (key[0], key[1], start + self._lost.get(key, 0), count)
                        for key, start, count in shortfalls
                    ],
                    blocked,
                )
            self._kill_point("serve.generate")

            # Phase 3 (sorted key order): check affordability,
            # journal write-ahead, charge, insert.  An unfunded key is
            # skipped wholesale — no journal entry, no fault replay, no
            # cursor advance — as if its questions were never asked;
            # a crash inside the charge (chaos fires there) is healed
            # on resume by re-charging the already-journaled tail.
            unfunded: set[CacheKey] = set()
            purchased = 0
            journal = self.journal
            for (key, start, count), produced in zip(shortfalls, generated):
                object_id, attribute = key
                purchase: KeyPurchase | None = None
                if isinstance(produced, KeyPurchase):
                    purchase = produced
                    answers = purchase.answers
                else:
                    answers = produced
                obtained = len(answers)
                try:
                    self.platform.check_values_affordable(attribute, obtained)
                except BudgetExhaustedError:
                    unfunded.add(key)
                    metrics.inc("serve.budget_stops")
                    self.obs.tracer.event(
                        "serve.budget_stop",
                        object_id=object_id,
                        attribute=attribute,
                        answers=obtained,
                    )
                    continue
                worker_ids: list[int] | None = None
                if self._attribute_workers and obtained:
                    if purchase is not None:
                        # Fault path: non-fault attempts align 1:1, in
                        # order, with the answers actually obtained.
                        worker_ids = [
                            attempt.worker_id
                            for attempt in purchase.attempts
                            if not attempt.fault
                        ]
                    else:
                        worker_ids = self.stream.worker_ids(
                            object_id, attribute, start, obtained
                        )
                if journal is not None:
                    if worker_ids is not None:
                        for offset, answer in enumerate(answers):
                            journal.record_answer(
                                "value",
                                key,
                                start + offset,
                                answer,
                                worker=worker_ids[offset],
                            )
                    else:
                        for offset, answer in enumerate(answers):
                            journal.record_answer(
                                "value", key, start + offset, answer
                            )
                    if purchase is not None and purchase.lost:
                        # Journaled as a delta; replay sums deltas into
                        # the key's total cursor advance.
                        journal.record_lost(key, purchase.lost)
                if purchase is not None:
                    self._replay_purchase(key, purchase)
                if obtained:
                    self.platform.charge_values(attribute, obtained)
                    self.cache.add(object_id, attribute, answers, worker_ids)
                    if self._agg_model is not None:
                        self._observe_agg(key)
                    purchased += obtained
            if purchased:
                self._batches += 1
                metrics.inc("serve.cache.misses", purchased)
                metrics.inc("serve.answers.purchased", purchased)
            self._kill_point("serve.commit")

        # Phase 4a (serial, admission order): attribute spend/savings.
        # ``virtual`` replays the cache level each query observed: hits
        # are answers that existed before this query's turn (bought
        # earlier, or by an earlier query of this wave), fresh answers
        # are the ones its own demand pulled in.  A key the cache cannot
        # fully serve marks the query for degradation: ``budget`` when
        # the wave's purchase went unfunded, ``faults`` when the money
        # was there but retries were exhausted.
        virtual = dict(pre_counts)
        for pending in wave:
            result = QueryResult(query_id=pending.request.query_id)
            for key in sorted(pending.demands):
                count = pending.demands[key]
                object_id, attribute = key
                available = self.cache.count(object_id, attribute)
                seen = virtual[key]
                if pending.cache_only:
                    # A cache-only admission reads whatever the wave's
                    # cache holds and pays for none of it: every answer
                    # it uses counts as a hit (an answer it would have
                    # bought stand-alone), the purchasing queries keep
                    # their own fresh attribution (``virtual`` is left
                    # untouched), and any deficit is an *admission*
                    # shortfall — a decision, not money or faults.
                    hits = min(count, available)
                    fresh = 0
                    served = hits
                else:
                    hits = min(seen, count)
                    fresh = max(0, min(count, available) - seen)
                    served = min(count, available)
                pending.answers_demanded += count
                pending.answers_served += served
                if count > available:
                    if pending.cache_only:
                        pending.reasons.add("admission")
                    else:
                        pending.reasons.add("budget" if key in unfunded else "faults")
                    pending.shortfalls.append(
                        TermShortfall(
                            object_id=object_id,
                            attribute=attribute,
                            demanded=count,
                            served=served,
                            effective=self._effective_count(
                                object_id, attribute, served
                            ),
                        )
                    )
                if hits:
                    price = self._price(attribute)
                    result.saved_answers += hits
                    result.saved_cents += hits * price
                    self.platform.record_value_savings(attribute, hits)
                    metrics.inc("serve.cache.hits", hits)
                    metrics.inc("serve.answers.saved", hits)
                if fresh:
                    result.fresh_answers += fresh
                    result.spent_cents += fresh * self._price(attribute)
                if not pending.cache_only:
                    virtual[key] = max(seen, min(count, available))
            pending.result = result

        # Phase 4b (read-only, admission order): evaluate every query
        # over the frozen wave cache and apply predicates/deadlines.
        read_source = CacheReadSource(self.cache)
        with self.obs.tracer.span("serve.evaluate", queries=len(wave)):
            evaluated = [self._evaluate(pending, read_source) for pending in wave]
        for result in evaluated:
            if result.status == "degraded":
                metrics.inc("serve.degraded")
                metrics.inc(f"serve.degraded.{result.degraded_reason}")
            else:
                metrics.inc("serve.completed")
            self._results.append(result)
        self._kill_point("serve.evaluate")

    def _replay_purchase(self, key: CacheKey, purchase: KeyPurchase) -> None:
        """Serially apply one purchase's fault side-effect log.

        Called in sorted key order from the commit phase, so the
        simulated clock, breaker state, ledger events and fault
        counters follow the wave's keys, not generation order.
        """
        metrics = self.obs.metrics
        if purchase.sim_seconds:
            self.fault_clock.advance(purchase.sim_seconds)
        if self.breaker is not None:
            now = self.fault_clock.now
            for attempt in purchase.attempts:
                self.breaker.record_outcome(attempt.worker_id, attempt.fault, now)
        ledger = self.platform.ledger
        if purchase.retries:
            ledger.record_retry("value", purchase.retries)
            metrics.inc("serve.faults.retries", purchase.retries)
        if purchase.abandons:
            ledger.record_abandon("value", purchase.abandons)
            metrics.inc("serve.faults.abandon", purchase.abandons)
        if purchase.timeouts:
            metrics.inc("serve.faults.timeout", purchase.timeouts)
        if purchase.garbage:
            metrics.inc("serve.faults.garbage", purchase.garbage)
        if purchase.lost:
            self._lost[key] = self._lost.get(key, 0) + purchase.lost
            metrics.inc("serve.faults.lost", purchase.lost)
            self.obs.tracer.event(
                "serve.answers_lost",
                object_id=key[0],
                attribute=key[1],
                lost=purchase.lost,
            )

    def _effective_count(
        self, object_id: int, attribute: str, served: int
    ) -> float | None:
        """Effective answer count of one served span under the aggregator.

        ``None`` under uniform aggregation (the raw count is the whole
        story and the serialized shortfall keeps its historical shape).
        """
        if self.aggregator is None or not served:
            return None
        answers = self.cache.answers(object_id, attribute, served)
        worker_ids = None
        if self.aggregator.needs_workers:
            worker_ids = list(self.cache.workers(object_id, attribute, served))
        return self.aggregator.effective_count(answers, worker_ids)

    def _evaluate(self, pending: _Pending, source: CacheReadSource) -> QueryResult:
        """Run one query's online phase over the wave cache (pure reads)."""
        request = pending.request
        result = pending.result
        assert result is not None  # filled by the accounting phase
        evaluator = OnlineEvaluator(
            self.platform,
            pending.plans,
            answer_source=source,
            aggregator=self.aggregator,
        )
        estimates: dict[str, list[float]] = {t: [] for t in request.targets}
        deadline_hit = False
        if request.deadline_s is None:
            # No deadline to poll between objects: evaluate the whole
            # query as one design-matrix fold (bit-identical to the
            # per-object loop below — see estimate_objects).
            batch = evaluator.estimate_objects(list(request.object_ids))
            result.object_ids.extend(request.object_ids)
            for target in request.targets:
                estimates[target] = batch[target].tolist()
        else:
            for object_id in request.object_ids:
                if self._clock() - pending.admitted_at > request.deadline_s:
                    deadline_hit = True
                    break
                values = evaluator.estimate_object(object_id)
                result.object_ids.append(object_id)
                for target in request.targets:
                    estimates[target].append(values[target])
        result.estimates = estimates
        if request.predicate is not None:
            predicate = request.predicate
            result.selected = [
                object_id
                for object_id, value in zip(
                    result.object_ids, estimates[predicate.target]
                )
                if predicate.matches(value)
            ]
        if deadline_hit:
            self.obs.tracer.event(
                "serve.deadline",
                query=request.query_id,
                evaluated=len(result.object_ids),
                requested=len(request.object_ids),
            )
        reasons = set(pending.reasons)
        if deadline_hit:
            reasons.add("deadline")
        if reasons:
            ordered = order_reasons(reasons)
            result.status = "degraded"
            result.degraded_reason = ordered[0]
            result.degraded = self._degradation(pending, result, ordered, source)
        return result

    def _degradation(
        self,
        pending: _Pending,
        result: QueryResult,
        reasons: tuple[str, ...],
        source: CacheReadSource,
    ) -> DegradedResult:
        """Build the degradation annotation for one degraded query.

        Pure cache reads and arithmetic.  Intervals are widened per the module
        formula in :mod:`repro.serve.degrade`: each formula term
        contributes ``c²·s²/n`` (or a range prior at ``n = 0``), and
        the half-width inflates by the evidence shortfall.
        """
        request = pending.request
        objects_requested = len(request.object_ids)
        objects_evaluated = len(result.object_ids)
        intervals: dict[str, list[list[float]]] = {}
        for target in request.targets:
            formula = None
            for plan in pending.plans:
                if target in plan.formulas:
                    formula = plan.formulas[target]
                    break
            if formula is None:  # unreachable: submit() checked coverage
                continue
            rows: list[list[float]] = []
            for position, object_id in enumerate(result.object_ids):
                terms: list[tuple] = []
                for attribute, coefficient in formula.coefficients.items():
                    demanded = formula.budget[attribute]
                    answers = source.fetch(object_id, attribute, demanded)
                    terms.append(
                        (
                            coefficient,
                            answers,
                            demanded,
                            self._prior_variance(attribute),
                            self._effective_count(
                                object_id, attribute, len(answers)
                            ),
                        )
                    )
                rows.append(
                    widened_interval(result.estimates[target][position], terms)
                )
            intervals[target] = rows
        object_fraction = (
            objects_evaluated / objects_requested if objects_requested else 1.0
        )
        answer_fraction = (
            pending.answers_served / pending.answers_demanded
            if pending.answers_demanded
            else 1.0
        )
        return DegradedResult(
            reason=reasons[0],
            reasons=reasons,
            completeness=object_fraction * answer_fraction,
            confidence=evidence_confidence(
                pending.answers_served, pending.answers_demanded
            ),
            answers_demanded=pending.answers_demanded,
            answers_served=pending.answers_served,
            objects_requested=objects_requested,
            objects_evaluated=objects_evaluated,
            shortfalls=list(pending.shortfalls),
            intervals=intervals,
        )
