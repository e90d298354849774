"""The crowd platform facade.

:class:`CrowdPlatform` is the single entry point algorithms use to talk
to the (simulated) crowd.  It routes each question to a freshly drawn
worker, prices and charges it, records the answer for replay, and runs
attribute-name normalization on dismantling answers.

Replay semantics: the platform holds per-question-key cursors into a
shared :class:`~repro.crowd.recording.AnswerRecorder`.  A *new*
platform instance over the same recorder starts with fresh cursors and
therefore replays the identical answer stream — this is how different
algorithms are compared "in equivalent settings" as in the paper.

Resilience semantics: when a :class:`~repro.crowd.faults.FaultProfile`
is configured, every worker interaction may time out, be abandoned, or
return a malformed answer.  The platform then retries per its
:class:`~repro.crowd.faults.RetryPolicy` (exponential backoff on a
simulated clock), attributes faults to workers through a
:class:`~repro.crowd.quality.WorkerCircuitBreaker` that quarantines
repeat offenders, and only *valid* answers reach the recorder — so a
replay of fault-collected data is fault-free by construction.  With
faults disabled (the default, or ``FaultProfile.none()``) none of this
machinery runs and behavior is byte-identical to the fault-free path.

Charging semantics: budgets are *checked* before workers are engaged
(no answers are generated that cannot be paid for) but *debited* only
after a batch is fully collected, so an exception mid-batch — retry
exhaustion, for instance — never spends money without recording the
answers it bought.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crowd.faults import (
    FaultInjector,
    FaultKind,
    FaultProfile,
    ResilienceReport,
    RetryPolicy,
    SimulatedClock,
    plausible_value,
)
from repro.crowd.normalization import AttributeNormalizer
from repro.crowd.pool import WorkerPool
from repro.crowd.pricing import Budget, CostLedger, PriceSchedule
from repro.crowd.quality import WorkerCircuitBreaker
from repro.crowd.recording import AnswerRecorder, ExampleRecord
from repro.crowd.verification import SequentialVerifier, VerificationResult
from repro.domains.base import Domain
from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    CrowdTimeoutError,
    MalformedAnswerError,
    UnknownAttributeError,
)
from repro.obs import NULL_OBS, Observability



class CrowdPlatform:
    """Simulated crowdsourcing platform over one ground-truth domain.

    Parameters
    ----------
    domain:
        The ground truth the workers answer about.
    pool:
        Worker population; defaults to 200 honest workers.
    prices:
        Price schedule; defaults to the paper's Section 5.1 prices.
    budget:
        Optional hard spending ceiling; ``None`` means unmetered (the
        ledger still records all costs).
    recorder:
        Shared answer store for replay across platform instances.
    normalizer:
        Attribute-name merger applied to dismantling answers.  Defaults
        to perfect merging (the paper's thesaurus assumption); pass an
        imperfect/disabled normalizer for the Section 5.4 robustness
        experiments.
    seed:
        Seed for the platform's own randomness (worker draws already
        have their own streams via the pool).
    faults:
        Optional fault configuration: a
        :class:`~repro.crowd.faults.FaultProfile` (an injector is built
        from it, seeded from ``seed``) or a ready
        :class:`~repro.crowd.faults.FaultInjector`.  ``None`` or an
        all-zero profile disables fault injection entirely.
    retry:
        Retry policy used when faults are enabled (default:
        :class:`~repro.crowd.faults.RetryPolicy` defaults).
    breaker:
        Per-worker circuit breaker; a default one is created when
        faults are enabled.  Pass an explicit breaker to share
        quarantine state or tune its thresholds.
    clock:
        Simulated clock for latency/backoff/cooldown accounting; a
        fresh clock is created when faults are enabled.
    obs:
        Observability bundle (tracer + metrics).  Defaults to the
        shared no-op bundle: nothing is recorded and the code path is
        byte-identical to an uninstrumented platform.  When recording,
        the ledger, fault injector and circuit breaker all mirror
        their events into the same registry — see
        :mod:`repro.obs.manifest` for why that matters.
    """

    def __init__(
        self,
        domain: Domain,
        pool: WorkerPool | None = None,
        prices: PriceSchedule | None = None,
        budget: Budget | None = None,
        recorder: AnswerRecorder | None = None,
        normalizer: AttributeNormalizer | None = None,
        seed: int = 0,
        faults: FaultProfile | FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        breaker: WorkerCircuitBreaker | None = None,
        clock: SimulatedClock | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.domain = domain
        self.pool = pool if pool is not None else WorkerPool(seed=seed)
        self.prices = prices if prices is not None else PriceSchedule()
        self.budget = budget
        self.recorder = recorder if recorder is not None else AnswerRecorder()
        self.normalizer = (
            normalizer if normalizer is not None else AttributeNormalizer(domain)
        )
        self.obs = obs if obs is not None else NULL_OBS
        self.ledger = CostLedger(metrics=self.obs.metrics_sink)
        self._seed = seed
        self._rng = np.random.default_rng(seed)

        # Resilience layer.  A disabled profile collapses to None so
        # the fault-free code path is taken verbatim.
        injector: FaultInjector | None
        if isinstance(faults, FaultInjector):
            injector = faults
        elif isinstance(faults, FaultProfile):
            # Decorrelate the injector stream from the pool stream
            # (both default to `seed`) with a fixed odd multiplier.
            injector = FaultInjector(
                faults, seed=(seed * 2654435761 + 1) % (2**63)
            )
        else:
            injector = None
        if injector is not None and not injector.enabled:
            injector = None
        self.faults = injector
        self.retry = retry if retry is not None else RetryPolicy()
        if injector is not None:
            self.clock = clock if clock is not None else SimulatedClock()
            self.breaker = breaker if breaker is not None else WorkerCircuitBreaker()
        else:
            self.clock = clock
            self.breaker = breaker
        sink = self.obs.metrics_sink
        if sink is not None:
            if injector is not None:
                injector.metrics = sink
            if self.breaker is not None and getattr(self.breaker, "metrics", None) is None:
                self.breaker.metrics = sink

        # Name or surface form -> canonical attribute, for ground-truth
        # lookups.  This is intentionally independent of the (possibly
        # imperfect) normalizer: a worker who says "big" still *means*
        # "large" even if the algorithm fails to merge the two names.
        # A synonym that is also an attribute name resolves as the
        # synonym.
        self._value_prices: dict[str, float] = {}
        self._canonical: dict[str, str] = {
            attribute: attribute for attribute in domain.attributes()
        }
        for attribute in domain.attributes():
            for form in domain.synonyms(attribute):
                self._canonical[form] = attribute

        # Replay cursors, one per question key, private to this instance.
        self._value_cursor: dict[tuple[int, str], int] = {}
        self._dismantle_cursor: dict[str, int] = {}
        self._vote_cursor: dict[tuple[str, str], int] = {}
        self._example_cursor: dict[tuple[str, ...], int] = {}

        #: Optional duck-typed chaos hook (a
        #: :class:`repro.durability.chaos.CrashInjector`).  Notified
        #: *after* each batch is charged and recorded, so a simulated
        #: crash lands between two interactions, never inside one.
        self.chaos: object | None = None

    # ------------------------------------------------------------------
    # Name handling and pricing
    # ------------------------------------------------------------------

    def resolve(self, name: str) -> str:
        """Canonical domain attribute behind an algorithm-visible name."""
        canonical = self._canonical.get(name)
        if canonical is None:
            raise UnknownAttributeError(name)
        return canonical

    def knows(self, name: str) -> bool:
        """True if ``name`` denotes some domain attribute (or synonym)."""
        return name in self._canonical

    def is_binary(self, name: str) -> bool:
        """Whether the named attribute is boolean-like (affects pricing)."""
        return self.domain.is_binary(self.resolve(name))

    def value_price(self, name: str) -> float:
        """Cost in cents of one value question about ``name``.

        Memoized: the synonym map and price schedule are fixed at
        construction, and the serving engine prices every key of every
        wave through here.
        """
        price = self._value_prices.get(name)
        if price is None:
            price = self.prices.value_price(self.is_binary(name))
            self._value_prices[name] = price
        return price

    def _check_affordable(self, cost: float) -> None:
        """Raise before engaging workers if the budget cannot cover ``cost``."""
        if self.budget is not None and not self.budget.can_afford(cost):
            raise BudgetExhaustedError(
                requested=cost, remaining=self.budget.remaining
            )

    def _charge(self, category: str, cost: float, count: int) -> None:
        """Debit a *collected* batch (call only after collection succeeds)."""
        if self.budget is not None:
            self.budget.charge(cost)
        self.ledger.record(category, cost, count)
        if self.chaos is not None:
            self.chaos.note_interactions(count)

    def charge_values(self, attribute: str, count: int) -> float:
        """Check and debit ``count`` value questions about ``attribute``.

        The serving engine generates its answers through deterministic
        per-key streams (:mod:`repro.serve.stream`) instead of
        :meth:`ask_value`, but the money still flows through this
        platform: the budget is checked before the charge and the
        ledger records it, exactly as for a platform-generated batch.
        Returns the cents charged.
        """
        if count <= 0:
            return 0.0
        cost = count * self.value_price(attribute)
        self._check_affordable(cost)
        self._charge("value", cost, count)
        return cost

    def check_values_affordable(self, attribute: str, count: int) -> float:
        """Budget pre-check for ``count`` value questions (no debit).

        The serving engine's write-ahead commit wants *log before
        charge* (so a crash inside the charge re-applies the logged
        purchase when its wave re-runs, instead of losing paid
        answers), but must never log answers it cannot pay for.  This
        is the check it runs first.
        Raises :class:`~repro.errors.BudgetExhaustedError`; returns the
        cost that passed.
        """
        if count <= 0:
            return 0.0
        cost = count * self.value_price(attribute)
        self._check_affordable(cost)
        return cost

    def record_value_savings(self, attribute: str, count: int) -> float:
        """Record ``count`` cache-served value answers as ledger savings.

        Returns the cents that re-purchasing them would have cost.
        """
        if count <= 0:
            return 0.0
        saved = count * self.value_price(attribute)
        self.ledger.record_saving("value", saved, count)
        return saved

    # ------------------------------------------------------------------
    # Resilient worker interaction
    # ------------------------------------------------------------------

    def _draw_worker(self):
        """Draw a worker, routing around quarantined ones when possible."""
        if self.breaker is not None and self.clock is not None:
            blocked = set(self.breaker.quarantined(self.clock.now))
            if blocked:
                return self.pool.draw_avoiding(blocked)
        return self.pool.draw()

    def _note_outcome(self, worker, fault: bool) -> None:
        if self.breaker is not None and self.clock is not None:
            self.breaker.record_outcome(worker.worker_id, fault, self.clock.now)

    def _resilient_ask(self, category: str, produce, corrupt, validate):
        """One question under fault injection: retry until a valid answer.

        ``produce(worker)`` generates the genuine answer, ``corrupt()``
        the garbage replacement, ``validate(answer)`` the usability
        check.  Returns ``(answer, worker_id)``; raises
        :class:`CrowdTimeoutError` / :class:`MalformedAnswerError` when
        the retry policy is exhausted.
        """
        policy = self.retry
        injector = self.faults
        last_error: Exception = CrowdTimeoutError(category, policy.max_attempts)
        for attempt in range(policy.max_attempts):
            if attempt:
                self.ledger.record_retry(category)
                self.clock.advance(policy.delay(attempt - 1, injector.rng))
            worker = self._draw_worker()
            outcome = injector.draw(category, worker.fault_proneness)
            self.clock.advance(outcome.latency)
            if outcome.kind is FaultKind.TIMEOUT:
                self.clock.advance(policy.question_timeout)
                self._note_outcome(worker, fault=True)
                last_error = CrowdTimeoutError(category, attempt + 1)
                continue
            if outcome.kind is FaultKind.ABANDON:
                self.ledger.record_abandon(category)
                self._note_outcome(worker, fault=True)
                last_error = CrowdTimeoutError(category, attempt + 1)
                continue
            answer = produce(worker)
            if outcome.kind is FaultKind.GARBAGE:
                answer = corrupt()
            if validate(answer):
                self._note_outcome(worker, fault=False)
                return answer, worker.worker_id
            self._note_outcome(worker, fault=True)
            last_error = MalformedAnswerError(category, answer)
        raise last_error

    def _valid_value(self, answer: object, low: float, high: float) -> bool:
        return plausible_value(answer, low, high)

    def _resilient_value(self, object_id: int, canonical: str) -> tuple[float, int]:
        low, high = self.domain.answer_range(canonical)
        answer, worker_id = self._resilient_ask(
            "value",
            produce=lambda worker: worker.answer_value(
                self.domain, object_id, canonical
            ),
            corrupt=lambda: self.faults.corrupt_value((low, high)),
            validate=lambda a: self._valid_value(a, low, high),
        )
        return float(answer), worker_id

    # ------------------------------------------------------------------
    # The four question types
    # ------------------------------------------------------------------

    def ask_value(self, object_id: int, attribute: str, n: int = 1) -> list[float]:
        """Ask ``n`` workers for the value of one object attribute.

        Returns the ``n`` answers; charges ``n`` value questions after
        the batch is collected.
        """
        return self.ask_value_attributed(object_id, attribute, n)[0]

    def ask_value_attributed(
        self, object_id: int, attribute: str, n: int = 1
    ) -> tuple[list[float], list[int]]:
        """:meth:`ask_value` plus the worker id behind each answer.

        The ids align 1:1 with the returned answers and are also
        recorded on the recorder's provenance tapes, which is what
        reliability-weighted aggregation learns from.  Replayed
        prefixes return the provenance recorded when first generated
        (``-1`` for answers that predate attribution).
        """
        if n <= 0:
            return [], []
        canonical = self.resolve(attribute)
        cost = n * self.value_price(attribute)
        self._check_affordable(cost)
        key = (object_id, attribute)
        start = self._value_cursor.get(key, 0)
        if self.faults is None:
            def generate() -> tuple[float, int]:
                worker = self.pool.draw()
                return (
                    worker.answer_value(self.domain, object_id, canonical),
                    worker.worker_id,
                )
        else:
            generate = lambda: self._resilient_value(  # noqa: E731
                object_id, canonical
            )
        answers, worker_ids = self.recorder.value_answers_attributed(
            object_id, attribute, start, n, generate
        )
        self._value_cursor[key] = start + n
        self._charge("value", cost, n)
        self.obs.tracer.event(
            "crowd.ask_value", object_id=object_id, attribute=attribute, n=n
        )
        return answers, worker_ids

    def ask_dismantle(self, attribute: str) -> str:
        """Ask one worker to dismantle ``attribute``; returns the
        (normalizer-processed) suggested attribute name."""
        canonical = self.resolve(attribute)
        self._check_affordable(self.prices.dismantle)
        start = self._dismantle_cursor.get(attribute, 0)
        if self.faults is None:
            generate = lambda: self.pool.draw().answer_dismantle(  # noqa: E731
                self.domain, canonical
            )
        else:
            generate = lambda: self._resilient_ask(  # noqa: E731
                "dismantle",
                produce=lambda worker: worker.answer_dismantle(
                    self.domain, canonical
                ),
                corrupt=self.faults.corrupt_token,
                validate=lambda a: isinstance(a, str) and self.knows(a),
            )[0]
        answers = self.recorder.dismantle_answers(attribute, start, 1, generate)
        self._dismantle_cursor[attribute] = start + 1
        self._charge("dismantle", self.prices.dismantle, 1)
        self.obs.tracer.event("crowd.ask_dismantle", attribute=attribute)
        answer = answers[0]
        if self.normalizer is not None:
            answer = self.normalizer.normalize(answer)
        return answer

    def ask_verification_vote(self, attribute: str, candidate: str) -> bool:
        """One worker vote on whether ``candidate`` helps ``attribute``."""
        canonical_attribute = self.resolve(attribute)
        canonical_candidate = self.resolve(candidate)
        self._check_affordable(self.prices.verification)
        key = (attribute, candidate)
        start = self._vote_cursor.get(key, 0)
        if self.faults is None:
            generate = lambda: self.pool.draw().answer_verification(  # noqa: E731
                self.domain, canonical_attribute, canonical_candidate
            )
        else:
            generate = lambda: self._resilient_ask(  # noqa: E731
                "verification",
                produce=lambda worker: worker.answer_verification(
                    self.domain, canonical_attribute, canonical_candidate
                ),
                corrupt=lambda: None,  # wrong-type (missing) vote
                validate=lambda a: isinstance(a, bool),
            )[0]
        votes = self.recorder.verification_votes(
            attribute, candidate, start, 1, generate
        )
        self._vote_cursor[key] = start + 1
        self._charge("verification", self.prices.verification, 1)
        self.obs.tracer.event(
            "crowd.ask_verification", attribute=attribute, candidate=candidate
        )
        return votes[0]

    def verify_candidate(
        self, attribute: str, candidate: str, verifier: SequentialVerifier | None = None
    ) -> VerificationResult:
        """Sequentially verify a dismantling answer (SPRT over votes)."""
        verifier = verifier if verifier is not None else SequentialVerifier()
        return verifier.verify(
            lambda: self.ask_verification_vote(attribute, candidate)
        )

    def _corrupt_example(
        self, targets: tuple[str, ...]
    ) -> ExampleRecord:
        """A malformed example: plausible object, NaN target values."""
        object_id = self.domain.sample_object(self.faults.rng)
        return object_id, {target: float("nan") for target in targets}

    def _valid_example(self, record: object) -> bool:
        if not isinstance(record, tuple) or len(record) != 2:
            return False
        _, values = record
        if not isinstance(values, dict):
            return False
        return all(
            isinstance(v, (int, float)) and math.isfinite(float(v))
            for v in values.values()
        )

    def ask_example(self, targets: tuple[str, ...]) -> ExampleRecord:
        """Ask one worker for an example object with true target values."""
        canonical_targets = tuple(self.resolve(target) for target in targets)
        self._check_affordable(self.prices.example)
        start = self._example_cursor.get(targets, 0)
        if self.faults is None:
            generate = lambda: self.pool.draw().provide_example(  # noqa: E731
                self.domain, canonical_targets
            )
        else:
            generate = lambda: self._resilient_ask(  # noqa: E731
                "example",
                produce=lambda worker: worker.provide_example(
                    self.domain, canonical_targets
                ),
                corrupt=lambda: self._corrupt_example(canonical_targets),
                validate=self._valid_example,
            )[0]
        records = self.recorder.examples(targets, start, 1, generate)
        self._example_cursor[targets] = start + 1
        self._charge("example", self.prices.example, 1)
        self.obs.tracer.event("crowd.ask_example", targets="|".join(targets))
        object_id, values = records[0]
        # Re-key the values under the algorithm-visible target names.
        visible = dict(zip(targets, (values[c] for c in canonical_targets)))
        return object_id, visible

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def total_spent(self) -> float:
        """Total cents spent through this platform instance."""
        return self.ledger.total_spent

    def resilience_report(self) -> ResilienceReport:
        """What the resilience layer absorbed so far on this instance."""
        injector = self.faults
        counts = injector.counts if injector is not None else {}
        return ResilienceReport(
            retries_by_category=dict(self.ledger.retries_by_category),
            abandons_by_category=dict(self.ledger.abandons_by_category),
            timeouts=counts.get(FaultKind.TIMEOUT, 0),
            abandons=counts.get(FaultKind.ABANDON, 0),
            garbage_answers=counts.get(FaultKind.GARBAGE, 0),
            quarantined_workers=(
                self.breaker.quarantined(self.clock.now)
                if self.breaker is not None and self.clock is not None
                else ()
            ),
            simulated_seconds=self.clock.now if self.clock is not None else 0.0,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        """JSON-serialisable snapshot of all mutable platform state.

        Everything a deterministic re-execution needs travels here:
        replay cursors, every RNG (platform, pool, workers, injector),
        budget spend, ledger, recorder tapes, clock, and breaker
        records.  Restoring this onto a platform built with the *same*
        constructor arguments makes subsequent questions byte-identical
        to a run that never stopped.
        """
        state: dict = {
            "cursors": {
                "value": [
                    [oid, attr, pos]
                    for (oid, attr), pos in self._value_cursor.items()
                ],
                "dismantle": [
                    [attr, pos] for attr, pos in self._dismantle_cursor.items()
                ],
                "verification": [
                    [attr, cand, pos]
                    for (attr, cand), pos in self._vote_cursor.items()
                ],
                "example": [
                    [list(targets), pos]
                    for targets, pos in self._example_cursor.items()
                ],
            },
            "rng": self._rng.bit_generator.state,
            "budget": (
                {"total": self.budget.total, "spent": self.budget.spent}
                if self.budget is not None
                else None
            ),
            "ledger": self.ledger.snapshot(),
            "recorder": self.recorder.snapshot(),
            "pool": self.pool.state_dict(),
            "injector": (
                self.faults.state_dict() if self.faults is not None else None
            ),
            "clock": (
                self.clock.state_dict() if self.clock is not None else None
            ),
            "breaker": (
                self.breaker.state_dict() if self.breaker is not None else None
            ),
        }
        return state

    def restore_state(self, payload: dict) -> None:
        """Restore :meth:`capture_state` onto an identically built platform."""
        cursors = payload["cursors"]
        self._value_cursor = {
            (int(oid), str(attr)): int(pos)
            for oid, attr, pos in cursors["value"]
        }
        self._dismantle_cursor = {
            str(attr): int(pos) for attr, pos in cursors["dismantle"]
        }
        self._vote_cursor = {
            (str(attr), str(cand)): int(pos)
            for attr, cand, pos in cursors["verification"]
        }
        self._example_cursor = {
            tuple(str(t) for t in targets): int(pos)
            for targets, pos in cursors["example"]
        }
        self._rng.bit_generator.state = payload["rng"]
        if payload["budget"] is not None:
            if self.budget is None or self.budget.total != payload["budget"]["total"]:
                raise ConfigurationError(
                    "checkpointed budget does not match this platform's budget"
                )
            self.budget.restore_spent(payload["budget"]["spent"])
        self.ledger.restore(payload["ledger"])
        self.recorder.restore(payload["recorder"])
        self.pool.restore_state(payload["pool"])
        if payload["injector"] is not None and self.faults is not None:
            self.faults.restore_state(payload["injector"])
        if payload["clock"] is not None and self.clock is not None:
            self.clock.restore_state(payload["clock"])
        if payload["breaker"] is not None and self.breaker is not None:
            self.breaker.restore_state(payload["breaker"])

    def fork(
        self, budget: Budget | None = None, seed: int | None = None
    ) -> "CrowdPlatform":
        """A fresh platform over the same domain, pool, and recorder.

        The fork starts with reset replay cursors and its own ledger and
        budget — the setup for comparing a second algorithm on identical
        crowd data.  It inherits the parent's seed unless ``seed`` is
        given, and the parent's fault profile and retry policy (with a
        fresh injector, breaker and clock — quarantine and fault
        counters are per-run state).  The observability bundle is
        shared, so a fork's spending and faults accumulate into the
        same registry as the parent's.
        """
        return CrowdPlatform(
            domain=self.domain,
            pool=self.pool,
            prices=self.prices,
            budget=budget,
            recorder=self.recorder,
            normalizer=self.normalizer,
            seed=self._seed if seed is None else seed,
            faults=self.faults.profile if self.faults is not None else None,
            retry=self.retry,
            obs=self.obs,
        )
