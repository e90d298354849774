"""The batched query-serving engine.

:class:`ServeEngine` accepts a stream of :class:`~repro.serve.report.
QueryRequest` submissions and evaluates them against the crowd in
**waves**.  One wave takes every admitted query (up to ``wave_size``),
and runs four phases, one after another on the calling thread:

1. **Need computation** (serial).  Walk the wave's queries in admission
   order, once, and compute per ``(object, attribute)`` key its cache
   level and the maximum answer count any query demands.  Concurrent
   queries touching the same key coalesce into a single purchase of
   the maximum shortfall — the cross-query batching this engine exists
   for.  Objects *complete* for their plan group (every key its plans
   demand already holds the demanded count; see :class:`_PlanGroup`)
   are skipped: they can add no demand.
2. **Generation** (pure).  Produce every shortfall answer in one
   batched call: :meth:`~repro.serve.stream.BatchedValueStream.
   answers_many` (fault-free) or :meth:`~repro.serve.faults.
   ResilientValueStream.purchase_batch` (fault-injected).  Every
   answer — and every fault roll, retry and worker redraw around it —
   is a pure function of ``(seed, object, attribute, index, attempt)``
   plus the frozen quarantine snapshot taken in phase 1.
3. **Commit** (sorted key order).  Check affordability, log the key's
   whole purchase write-ahead, replay its fault side effects (breaker
   outcomes, simulated latency, retry/abandon ledger events, the
   lost-answer cursor), charge the platform ledger, and insert into
   the shared :class:`~repro.serve.cache.AnswerCache` — one key at a
   time, in sorted order, so ledger float accumulation and log
   sequence numbers depend only on the wave's keys.  A key the budget
   cannot cover is skipped entirely (its queries come back
   ``degraded``/``budget``); cheaper keys later in the order may still
   fit.
4. **Accounting and evaluation** (read-only but for the ledger).  In
   admission order, each query's hits and fresh answers are attributed
   key by key, in the sorted key order its demand was built in at
   admission; a complete object's outcome is fixed (every demanded
   answer a hit), so it books its group's precomputed savings entries
   instead.  The wave's savings are then booked in one
   order-preserving ledger fold.  Next every query is cut to its
   deadline prefix: in admission order, the clock is polled once per
   object and the first object polled past the deadline ends the
   prefix, so evaluation time never counts against a deadline.  Then
   the queries sharing plan objects form one group, and each group
   makes one :meth:`~repro.core.online.OnlineEvaluator.
   estimate_objects` call over its queries' concatenated prefixes,
   reading the now frozen wave cache through a :class:`~repro.serve.
   cache.CacheReadSource`, for every row its memo of complete objects'
   estimates does not hold (the memo is dropped whenever the
   reliability model's ``version`` moves); the result is sliced back
   per query.  Objects the wave completed join their groups last.
   Finally each query, in admission order, applies its predicate.  Any
   shortfall (deadline, budget or faults) produces a ``degraded``
   result carrying a :class:`~repro.serve.degrade.DegradedResult` —
   widened intervals, per-term shortfall, completeness — never a
   silent drop (DESIGN.md §13).

Determinism (DESIGN.md §12): a wave is one serial pass, and every
side effect happens in a canonical order — sorted keys for the commit,
admission order for accounting, deadline polling and results — so
spend, savings, estimates and the journal depend only on the submitted
queries, the seeds and the wave size.

Backpressure: at most ``max_queue`` queries may be pending; submissions
beyond that are **shed** — refused up front with a ``shed``/
``overflow`` result and a ``serve.shed`` counter tick, never silently
dropped.  With ``shed_expired=True`` a query whose deadline has already
passed when its wave forms is shed as ``shed``/``deadline`` instead of
being evaluated; the default degrades it rather than shedding.

Durability: with a ``checkpoint_dir``, the engine appends to one log,
``serve.journal.jsonl``.  A fresh run starts it with a ``header``
record (format version, budget total); each wave then appends one
``purchase`` record per funded key before charging it, one ``result``
record per newly finished query, and a ``commit`` record holding the
ledger snapshot, followed by one fsync.  Resuming folds the committed
purchases back through the same per-key commit, restores the ledger
from the last commit, and serves committed queries from their result
records without touching the crowd.  Purchases past the last commit
belong to the crashed wave; its re-run uses them instead of buying
again.  A run without ``resume`` starts the log afresh.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.agg.reliability import ReliabilityAggregator
from repro.core.model import PreprocessingPlan
from repro.core.online import OnlineEvaluator
from repro.crowd.faults import FaultProfile, RetryPolicy, SimulatedClock
from repro.crowd.platform import CrowdPlatform
from repro.crowd.quality import WorkerCircuitBreaker
from repro.durability.journal import Journal
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
from repro.serve.faults import Attempt, KeyPurchase, ResilientValueStream
from repro.serve.report import (
    QueryRequest,
    QueryResult,
    ServeReport,
    check_object_ids,
)
from repro.serve.stream import BatchedValueStream

#: The serve log's filename under the engine's checkpoint_dir (distinct
#: from the offline pipeline's files so one directory can host both).
SERVE_JOURNAL = "serve.journal.jsonl"

#: Format version in the log's header record.
SERVE_LOG_VERSION = 2

#: What earlier builds kept beside (or instead of) the log: a resume
#: over any of them is refused, and a fresh run removes them.
_OLD_LAYOUT = (
    "serve.checkpoint.json",
    "serve.results.jsonl",
    "serve.shard*.journal.jsonl",
)

#: Knuth-style multiplier decorrelating the fault-stream seed from the
#: answer-stream seed (the same scheme the offline platform uses for
#: its injector), so enabling faults never perturbs answer values.
_FAULT_SEED_MIX = 2654435761


def _purchase_record(
    key: CacheKey, start: int, purchase: KeyPurchase, worker_ids: list[int] | None
) -> dict:
    """One key's purchase as a log record: the whole :class:`KeyPurchase`."""
    record = {
        "kind": "purchase",
        "object": int(key[0]),
        "attribute": key[1],
        "start": int(start),
        "answers": [float(answer) for answer in purchase.answers],
        "attempts": [
            [attempt.worker_id, attempt.fault] for attempt in purchase.attempts
        ],
        "retries": purchase.retries,
        "timeouts": purchase.timeouts,
        "abandons": purchase.abandons,
        "garbage": purchase.garbage,
        "lost": purchase.lost,
        "sim_seconds": purchase.sim_seconds,
    }
    if worker_ids is not None:
        record["workers"] = [int(worker) for worker in worker_ids]
    return record


def _purchase_of(record: dict) -> tuple[CacheKey, int, KeyPurchase, list[int] | None]:
    """Invert :func:`_purchase_record`: ``(key, start, purchase, worker_ids)``."""
    purchase = KeyPurchase(
        answers=[float(answer) for answer in record["answers"]],
        lost=int(record["lost"]),
        attempts=[
            Attempt(int(worker), bool(fault)) for worker, fault in record["attempts"]
        ],
        retries=int(record["retries"]),
        timeouts=int(record["timeouts"]),
        abandons=int(record["abandons"]),
        garbage=int(record["garbage"]),
        sim_seconds=float(record["sim_seconds"]),
    )
    key = (int(record["object"]), str(record["attribute"]))
    return key, int(record["start"]), purchase, record.get("workers")


class _PlanGroup:
    """What the engine keeps about one plan group across waves.

    A plan group is the queries submitted with the same plan objects:
    they share one demand signature and one evaluation per wave.  An
    object is *complete* for the group once every key its plans demand
    holds the demanded count; the cache is append-only, so it stays
    complete, its accounting outcome in any later wave is fixed (every
    demanded answer a hit) and its estimate changes only with the
    reliability model's weights.  The record holds the plans
    themselves, so the ``id`` it is keyed by is never reused while it
    lives.  It grows with the objects the group has served: the engine
    keeps one record per distinct plan group, holding at most one
    object id and one memo row per target for each object it served.
    """

    __slots__ = (
        "plans", "targets", "signature", "hit_entries", "hit_answers",
        "complete", "missing_terms", "memo", "memo_version",
    )

    def __init__(self, plans: list[PreprocessingPlan]) -> None:
        self.plans = plans
        self.targets = [target for plan in plans for target in plan.query.targets]
        counts: dict[str, int] = {}
        for plan in plans:
            for attribute in plan.budget.attributes:
                count = plan.budget[attribute]
                counts[attribute] = max(counts.get(attribute, 0), count)
        #: Sorted ``(attribute, largest count over the plans)`` pairs.
        self.signature: tuple[tuple[str, int], ...] = tuple(sorted(counts.items()))
        #: A complete object's savings entries ``(count × price, count)``
        #: in signature order, and their answer total; priced when the
        #: first object completes, when accounting has priced them all.
        self.hit_entries: list[tuple[float, int]] = []
        self.hit_answers = 0
        #: Objects complete before the current wave.
        self.complete: set[int] = set()
        #: Formula terms outside their plan's budget, per evaluated row:
        #: what ``agg.missing_terms`` counts for a complete row.
        self.missing_terms = sum(
            1
            for plan in plans
            for target in plan.query.targets
            for term in plan.formula(target).coefficients
            if not plan.budget[term]
        )
        #: target -> object -> estimate of complete objects, valid while
        #: the reliability model stays at ``memo_version``.
        self.memo: dict[str, dict[int, float]] = {}
        self.memo_version = 0


@dataclass
class _Pending:
    """One admitted query waiting for (or inside) a wave."""

    request: QueryRequest
    admitted_at: float
    #: The record of the plan group the query was submitted with.
    group: _PlanGroup
    #: The query's sorted unique objects, each with its demanded keys
    #: as ``((object_id, attribute), count)`` in signature order: sorted
    #: key order, the order accounting walks them in.
    demands: list[tuple[int, list[tuple[CacheKey, int]]]]
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
        Enables durability (the serve log, committed once per wave)
        when set.  Without ``resume``, whatever an earlier run left
        there is discarded before serving.
    resume:
        Fold a previous run's serve log in ``checkpoint_dir`` back in
        before serving.  An older build's files, a log from another
        build or one written under another budget are refused with
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
        Reliability aggregator for the evaluation phase (``None``, the
        paper's uniform mean, keeps the byte-exact mean path).  It
        also turns on worker provenance: purchase records and cache
        tapes carry worker ids, and the model absorbs every committed
        span serially, so the resume fold rebuilds it bit for bit.
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
        aggregator: ReliabilityAggregator | None = None,
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
        #: Object ids are the cache's rows: a query naming any other
        #: object is refused at submission.
        self._n_objects = platform.domain.n_objects()
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
        #: One record per plan group, keyed by the plans' identities.
        self._groups: dict[tuple[int, ...], _PlanGroup] = {}
        self._results: list[QueryResult] = []
        #: How many of ``_results`` the serve log already covers.
        self._logged = 0
        self._seen_ids: set[str] = set()
        self._checkpointed: dict[str, QueryResult] = {}
        self._price_of: dict[str, float] = {}
        self._priors: dict[str, float] = {}
        self._batches = 0
        self._coalesced = 0
        self._peak_queue = 0
        self.resumed = False
        #: Answers the crashed wave logged before it died; its re-run
        #: reuses them instead of buying them again.
        self.pending_answers = 0
        # Aggregation: ``None`` is the byte-exact mean path with no
        # provenance bookkeeping; a reliability aggregator records who
        # answered what (log + cache worker tapes) and absorbs every
        # committed span into its model in sorted commit order, so a
        # resumed run learns exactly what the straight-through run did.
        self.aggregator = aggregator
        self._agg_model = aggregator.model if aggregator is not None else None
        #: Per-key answer counts already absorbed into the model.
        self._agg_seen: dict[CacheKey, int] = {}
        self.journal: Journal | None = None
        #: The crashed wave's logged purchases, keyed by ``(key, start,
        #: answers requested)``, waiting for its re-run to ask for them.
        self._crashed_wave: dict[
            tuple[CacheKey, int, int], tuple[KeyPurchase, list[int] | None]
        ] = {}
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            if resume:
                self.journal = self._resume(directory)
            else:
                # A fresh run inherits nothing.  The log goes first: a
                # crash mid-reset leaves no log (a fresh start) or an
                # old-layout file (refused), never another run's state.
                for pattern in (SERVE_JOURNAL, *_OLD_LAYOUT):
                    for path in sorted(directory.glob(pattern)):
                        path.unlink()
                self.journal = Journal(directory / SERVE_JOURNAL)
            if not self.journal.record_count:
                self.journal.append(self._header())

    # -- durability ------------------------------------------------------

    def _header(self) -> dict:
        """The log's first record: format version and budget total."""
        budget = self.platform.budget
        return {
            "kind": "header",
            "version": SERVE_LOG_VERSION,
            "budget": None if budget is None else budget.total,
        }

    def _resume(self, directory: Path) -> Journal:
        """Fold the log's committed waves back in; returns the open log.

        Refuses, with :class:`CheckpointError` and before any state
        changes, a directory holding an older build's files, a log that
        does not start with this build's header, and a log written under
        another budget.  Every committed purchase then goes through
        :meth:`_apply_purchase`, exactly as the live commit applied it,
        and the ledger is restored from the last commit record (cache
        savings come from per-query accounting, so no fold can rebuild
        them).
        Purchases past the last commit belong to the crashed wave: they
        wait in ``_crashed_wave`` for its re-run, and the results it
        logged are truncated away.
        """
        old = sorted(
            path.name for pattern in _OLD_LAYOUT for path in directory.glob(pattern)
        )
        if old:
            raise CheckpointError(
                f"{directory} holds {', '.join(old)} from an older build; this "
                f"build keeps one {SERVE_JOURNAL} and cannot resume them"
            )
        journal = Journal(directory / SERVE_JOURNAL)
        records = journal.recovered
        if not records:
            return journal
        header, first = self._header(), records[0]
        problem: str | None = None
        if first.get("kind") != "header" or first.get("version") != SERVE_LOG_VERSION:
            problem = f"does not start with a version-{SERVE_LOG_VERSION} header"
        elif first.get("budget") != header["budget"]:
            problem = (
                f"was written under a {first.get('budget')} cent budget, "
                f"not this platform's {header['budget']}"
            )
        if problem is not None:
            journal.close()
            raise CheckpointError(f"serve log {journal.path} {problem}")
        last = max(
            (i for i, record in enumerate(records) if record["kind"] == "commit"),
            default=0,
        )
        for record in records[1 : last + 1]:
            kind = record["kind"]
            if kind == "purchase":
                key, start, purchase, worker_ids = _purchase_of(record)
                if self.cache.count(*key) != start:
                    raise JournalCorruptionError(
                        f"serve log record {record['seq']} buys {key!r} from "
                        f"index {start}, but the log holds {self.cache.count(*key)}"
                    )
                self._apply_purchase(key, start, purchase, worker_ids, log=False)
            elif kind == "result":
                result = QueryResult.from_dict(record["result"])
                result.from_checkpoint = True
                self._checkpointed[result.query_id] = result
            elif kind != "commit":
                raise JournalCorruptionError(
                    f"unknown serve log record kind {kind!r} (record {record['seq']})"
                )
        if last:
            self.platform.ledger.restore(records[last]["ledger"])
        for record in records[last + 1 :]:
            if record["kind"] != "purchase":
                break
            key, start, purchase, worker_ids = _purchase_of(record)
            requested = len(purchase.answers) + purchase.lost
            self._crashed_wave[(key, start, requested)] = (purchase, worker_ids)
            self.pending_answers += len(purchase.answers)
        journal.truncate(last + 1 + len(self._crashed_wave))
        self.resumed = len(records) > 1
        if self.resumed:
            self.obs.tracer.event(
                "serve.resume",
                results=len(self._checkpointed),
                cached_answers=self.cache.total_answers,
                pending_answers=self.pending_answers,
            )
        return journal

    def _checkpoint(self) -> None:
        """Commit one wave: its results, a commit record, one fsync.

        Results finished since the last commit are appended (results
        served from a resumed log are already in it), then a ``commit``
        record holding the ledger snapshot, and the log is fsynced once.
        """
        journal = self.journal
        if journal is None:
            return
        for result in self._results[self._logged :]:
            if not result.from_checkpoint:
                journal.append({"kind": "result", "result": result.to_dict()})
        self._logged = len(self._results)
        journal.append({"kind": "commit", "ledger": self.platform.ledger.snapshot()})
        journal.sync()

    def _apply_purchase(
        self,
        key: CacheKey,
        start: int,
        purchase: KeyPurchase,
        worker_ids: list[int] | None,
        log: bool,
    ) -> bool:
        """Commit one key's purchase; ``False`` when the budget cannot cover it.

        The live commit phase, the resume fold and the crashed wave's
        re-run all go through here, in sorted key order: affordability
        check, the ``purchase`` record (``log``: live purchases only,
        before any side effect), fault side-effect replay, charge, cache
        insert and model absorb.  A logged purchase the budget cannot
        cover means the log and the platform disagree.
        """
        object_id, attribute = key
        obtained = len(purchase.answers)
        try:
            self.platform.check_values_affordable(attribute, obtained)
        except BudgetExhaustedError:
            if not log:
                raise CheckpointError(
                    f"the budget cannot cover the logged purchase of {key!r}"
                ) from None
            return False
        if log and self.journal is not None:
            self.journal.append(_purchase_record(key, start, purchase, worker_ids))
        if purchase.attempts:  # fault-free purchases have no side effects
            self._replay_purchase(key, purchase)
        if obtained:
            self.platform.charge_values(attribute, obtained)
            self.cache.add(object_id, attribute, purchase.answers, worker_ids)
            if self._agg_model is not None:
                self._observe_agg(key)
        return True

    def _worker_ids(
        self, key: CacheKey, start: int, purchase: KeyPurchase
    ) -> list[int] | None:
        """Who answered a fresh purchase (``None`` when it got no answers)."""
        if not len(purchase.answers):
            return None
        if self.resilient is not None:
            # Non-fault attempts align 1:1, in order, with the answers.
            return [
                attempt.worker_id for attempt in purchase.attempts if not attempt.fault
            ]
        return self.stream.worker_ids(key[0], key[1], start, len(purchase.answers))

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
        """Flush and close the serve log."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission -------------------------------------------------------

    def submit(
        self,
        request: QueryRequest,
        plans: PreprocessingPlan | Sequence[PreprocessingPlan] | None = None,
    ) -> bool:
        """Admit one query (with its preprocessing plans) for serving.

        Returns ``True`` when admitted (or already finished in a
        restored checkpoint), ``False`` when shed by backpressure.
        Shed queries still get a :class:`QueryResult` in the report.

        ``plans`` may be omitted when the engine was built with a
        ``plan_source`` (the catalog-backed lookup path): the source
        resolves the request's target tuple to its plans — a cached
        entry, a refresh, or fresh preprocessing — before admission.

        A query naming an object outside the domain is refused with
        :class:`~repro.errors.ConfigurationError` before anything is
        charged, as are queries whose plans miss or overlap a target.
        """
        check_object_ids(request.query_id, request.object_ids, self._n_objects)
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
        if len(plan_targets) != sum(len(plan.query.targets) for plan in plans):
            raise ConfigurationError(
                f"query {request.query_id!r}: plans estimate overlapping targets"
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
        identity = tuple(map(id, plans))
        group = self._groups.get(identity)
        if group is None:
            group = self._groups[identity] = _PlanGroup(plans)
        signature = group.signature
        pending = _Pending(
            request=request,
            admitted_at=self._clock(),
            group=group,
            demands=[
                (
                    object_id,
                    [((object_id, attribute), count) for attribute, count in signature],
                )
                for object_id in sorted(set(request.object_ids))
            ],
        )
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

        # Phase 1 (serial, one pass): the pre-wave cache level of every
        # key, the wave's demand per key short of it (max over queries),
        # and the questions the queries would have bought independently.
        # An object complete for its plan group is skipped: every key it
        # demands holds the count already, so it adds no demand, no
        # question and no shortfall.
        cached = self.cache.count
        pre_counts: dict[CacheKey, int] = {}
        demands: dict[CacheKey, int] = {}
        independent = 0
        for pending in wave:
            complete = pending.group.complete
            for object_id, keys in pending.demands:
                if object_id in complete:
                    continue
                for key, count in keys:
                    pre = pre_counts.get(key)
                    if pre is None:
                        pre = pre_counts[key] = cached(*key)
                    if count <= pre:
                        continue
                    independent += count - pre
                    if count > demands.get(key, 0):
                        demands[key] = count
        shortfalls = [
            (key, pre_counts[key], demands[key] - pre_counts[key])
            for key in sorted(demands)
        ]
        if self._crashed_wave:
            stray = sorted(set(self._crashed_wave).difference(shortfalls))
            if stray:
                raise CheckpointError(
                    f"this wave does not ask for {len(stray)} purchases the "
                    f"crashed wave logged (first: {stray[0]!r}); resume with the "
                    f"same queries in the same order"
                )
        # Frozen quarantine snapshot: worker exclusion is decided once
        # per wave, so generation stays a pure function of the wave's
        # requests and the commit replays breaker outcomes afterwards.
        blocked: frozenset[int] = frozenset()
        if self.resilient is not None and self.breaker is not None:
            blocked = frozenset(self.breaker.quarantined(self.fault_clock.now))
        self._kill_point("serve.need")
        # Batching saving: questions the wave's queries would have
        # bought independently but the coalesced purchase did not.
        fresh_total = sum(n for _, _, n in shortfalls)
        self._coalesced += independent - fresh_total
        if independent > fresh_total:
            metrics.inc("serve.coalesced", independent - fresh_total)

        # Phase 2 (pure): generate every shortfall answer in one batched
        # call, except the purchases the crashed wave already logged.
        # The fault-free branch draws from the per-coordinate answer
        # stream; the resilient branch purchases through per-attempt
        # derived RNGs (see serve/faults.py) against the frozen
        # quarantine snapshot.
        with self.obs.tracer.span(
            "serve.purchase", keys=len(shortfalls), answers=fresh_total
        ):
            crashed = self._crashed_wave
            buy = [need for need in shortfalls if need not in crashed]
            generated: list[KeyPurchase]
            if self.resilient is None:
                generated = [
                    KeyPurchase(answers=answers)
                    for answers in self.stream.answers_many(
                        [(key[0], key[1], start, count) for key, start, count in buy]
                    )
                ]
            else:
                generated = self.resilient.purchase_batch(
                    [
                        (key[0], key[1], start + self._lost.get(key, 0), count)
                        for key, start, count in buy
                    ],
                    blocked,
                )
            self._kill_point("serve.generate")

            # Phase 3 (sorted key order): apply each purchase — logged
            # write-ahead when fresh — through _apply_purchase.  An
            # unfunded key is skipped wholesale — no log record, no
            # fault replay, no cursor advance — as if its questions were
            # never asked.
            unfunded: set[CacheKey] = set()
            purchased = 0
            fresh = iter(generated)
            for need in shortfalls:
                key, start, _ = need
                logged = crashed.pop(need, None)
                if logged is not None:
                    purchase, worker_ids = logged
                else:
                    purchase = next(fresh)
                    worker_ids = None
                    if self._agg_model is not None:
                        worker_ids = self._worker_ids(key, start, purchase)
                if not self._apply_purchase(
                    key, start, purchase, worker_ids, log=logged is None
                ):
                    unfunded.add(key)
                    metrics.inc("serve.budget_stops")
                    self.obs.tracer.event(
                        "serve.budget_stop",
                        object_id=key[0],
                        attribute=key[1],
                        answers=len(purchase.answers),
                    )
                    continue
                purchased += len(purchase.answers)
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
        # was there but retries were exhausted.  Each hit span's savings
        # entry is collected in this order (admission order, then the
        # query's sorted keys) and the ledger folds them one by one
        # after the loop, so its float total is the per-entry one.  An
        # object complete before the wave has a fixed outcome — every
        # demanded answer a hit, nothing fresh, no shortfall, ``virtual``
        # untouched — so it books its group's precomputed entries; an
        # object whose every key now holds its count completes after
        # the wave.
        available = dict(pre_counts)
        for key, _, _ in shortfalls:
            available[key] = cached(*key)
        virtual = dict(pre_counts)
        savings: list[tuple[float, int]] = []
        completed: list[tuple[_PlanGroup, int]] = []
        for pending in wave:
            result = QueryResult(query_id=pending.request.query_id)
            group = pending.group
            complete = group.complete
            for object_id, keys in pending.demands:
                if object_id in complete:
                    entries = group.hit_entries
                    savings.extend(entries)
                    saved_cents = result.saved_cents
                    for saved, _ in entries:
                        saved_cents += saved
                    result.saved_cents = saved_cents
                    result.saved_answers += group.hit_answers
                    pending.answers_demanded += group.hit_answers
                    pending.answers_served += group.hit_answers
                    continue
                whole = True
                for key, count in keys:
                    attribute = key[1]
                    held = available[key]
                    served = count if count < held else held
                    seen = virtual[key]
                    hits = seen if seen < count else count
                    fresh = served - seen
                    if fresh > 0:
                        virtual[key] = served
                    pending.answers_demanded += count
                    pending.answers_served += served
                    if count > held:
                        whole = False
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
                        saved = hits * self._price(attribute)
                        result.saved_answers += hits
                        result.saved_cents += saved
                        savings.append((saved, hits))
                    if fresh > 0:
                        result.fresh_answers += fresh
                        result.spent_cents += fresh * self._price(attribute)
                if whole:
                    completed.append((group, object_id))
            pending.result = result
        if savings:
            self.platform.ledger.record_savings("value", savings)
            hits_total = sum(hits for _, hits in savings)
            metrics.inc("serve.cache.hits", hits_total)
            metrics.inc("serve.answers.saved", hits_total)

        # Phase 4b (read-only): cut every query to its deadline prefix,
        # then evaluate each group of queries sharing plan objects with
        # one estimate_objects call over the frozen wave cache, for the
        # rows its memo does not hold, and apply predicates and
        # degradation in admission order.
        read_source = CacheReadSource(self.cache)
        with self.obs.tracer.span("serve.evaluate", queries=len(wave)):
            prefixes = [self._deadline_prefix(pending) for pending in wave]
            estimates = self._estimate(wave, prefixes, read_source)
            evaluated = [
                self._evaluate(pending, prefix, values, read_source)
                for pending, prefix, values in zip(wave, prefixes, estimates)
            ]
        for result in evaluated:
            if result.status == "degraded":
                metrics.inc("serve.degraded")
                metrics.inc(f"serve.degraded.{result.degraded_reason}")
            else:
                metrics.inc("serve.completed")
            self._results.append(result)
        # Objects completed by this wave join their groups only now, so
        # the fast paths and the memo see objects complete before a wave.
        for group, object_id in completed:
            if not group.hit_entries:
                group.hit_entries = [
                    (count * self._price(attribute), count)
                    for attribute, count in group.signature
                ]
                group.hit_answers = sum(count for _, count in group.signature)
            group.complete.add(object_id)
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
        worker_ids = list(self.cache.workers(object_id, attribute, served))
        return self.aggregator.effective_count(answers, worker_ids)

    def _deadline_prefix(self, pending: _Pending) -> tuple[int, ...]:
        """The objects a query may still evaluate: those polled in time.

        The clock is read once per object, in order, and the first
        object polled past the deadline ends the prefix.  Polling runs
        before the wave's evaluation, so evaluation time does not count
        against a deadline.
        """
        request = pending.request
        if request.deadline_s is None:
            return request.object_ids
        for position in range(len(request.object_ids)):
            if self._clock() - pending.admitted_at > request.deadline_s:
                return request.object_ids[:position]
        return request.object_ids

    def _estimate(
        self,
        wave: list[_Pending],
        prefixes: list[tuple[int, ...]],
        source: CacheReadSource,
    ) -> list[dict[str, list[float]]]:
        """Every query's estimates, one evaluation per plan group.

        Queries sharing their plan objects share one
        :meth:`~repro.core.online.OnlineEvaluator.estimate_objects` call
        over their concatenated prefixes; the result is sliced back per
        query.  Rows are independent and repeated objects are kept, so
        each query's estimates and the ``online.objects`` and
        ``agg.missing_terms`` totals equal those of a call per query.

        In front of that call sits the group's memo: the rows of objects
        complete before the wave, stored the first time such a row is
        evaluated.  A complete row's inputs are its first ``b(a)``
        answers, their worker ids and the model's weights; the first
        two never change, so the memo holds while the reliability model
        stays at the version it was filled under (always, under uniform
        aggregation).  Memo rows skip the call but still count in
        ``online.objects``, and in ``agg.missing_terms`` with the terms
        outside their plans' budgets, the only terms a complete row
        misses.
        """
        groups: dict[_PlanGroup, list[int]] = {}
        for index, pending in enumerate(wave):
            groups.setdefault(pending.group, []).append(index)
        version = 0 if self._agg_model is None else self._agg_model.version
        metrics = self.obs.metrics
        estimates: list[dict[str, list[float]]] = [{} for _ in wave]
        for group, members in groups.items():
            objects = [object_id for index in members for object_id in prefixes[index]]
            if group.memo_version != version:
                group.memo = {}
                group.memo_version = version
            memo = group.memo
            targets = group.targets
            first = memo.get(targets[0])
            misses = (
                [object_id for object_id in objects if object_id not in first]
                if first
                else objects
            )
            fresh: dict[str, list[float]] = {}
            if misses or not objects:
                evaluator = OnlineEvaluator(
                    self.platform,
                    group.plans,
                    answer_source=source,
                    aggregator=self.aggregator,
                )
                batch = evaluator.estimate_objects(misses)
                fresh = {target: batch[target].tolist() for target in targets}
            columns = fresh
            if len(misses) < len(objects):
                served = len(objects) - len(misses)
                metrics.inc("online.objects", served)
                if group.missing_terms:
                    metrics.inc("agg.missing_terms", served * group.missing_terms)
                columns = {}
                for target in targets:
                    rows = memo[target]
                    values = iter(fresh.get(target, ()))
                    columns[target] = [
                        rows[object_id] if object_id in rows else next(values)
                        for object_id in objects
                    ]
            complete = group.complete
            if misses and complete:
                for target in targets:
                    rows = memo.setdefault(target, {})
                    for object_id, value in zip(misses, fresh[target]):
                        if object_id in complete:
                            rows[object_id] = value
            start = 0
            for index in members:
                end = start + len(prefixes[index])
                estimates[index] = {
                    target: columns[target][start:end]
                    for target in wave[index].request.targets
                }
                start = end
        return estimates

    def _evaluate(
        self,
        pending: _Pending,
        prefix: tuple[int, ...],
        estimates: dict[str, list[float]],
        source: CacheReadSource,
    ) -> QueryResult:
        """Finish one evaluated query: predicate, deadline and degradation."""
        request = pending.request
        result = pending.result
        assert result is not None  # filled by the accounting phase
        result.object_ids.extend(prefix)
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
        reasons = set(pending.reasons)
        if len(prefix) < len(request.object_ids):
            self.obs.tracer.event(
                "serve.deadline",
                query=request.query_id,
                evaluated=len(prefix),
                requested=len(request.object_ids),
            )
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
            for plan in pending.group.plans:
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
