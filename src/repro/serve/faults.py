"""Fault-injected answer purchasing for the serving engine.

The offline platform's resilience loop (:meth:`~repro.crowd.platform.
CrowdPlatform._resilient_ask`) is stateful: a shared injector RNG, a
mutable circuit breaker and a shared simulated clock, all advanced in
global question order.  The serving engine cannot use it — it
generates a whole wave's purchases in one batch before committing any
of them, and a resumed run must re-derive exactly the answers the
crashed run bought.  :class:`ResilientValueStream` is the pure-function
replacement:

* Attempt ``a`` of answer ``i`` for ``(object, attribute)`` derives its
  own generator from ``(fault_seed, object, attribute, i, a)`` — fault
  outcome, retry jitter, worker redraws and the answer value itself all
  come from that generator, so the whole purchase is a pure function of
  its coordinates and the *frozen* quarantine set the engine snapshots
  serially at wave start.
* No shared state is touched.  Every attempt is logged into the
  returned :class:`KeyPurchase`; the engine replays those logs into the
  circuit breaker, ledger, simulated clock and metrics **serially, in
  sorted key order**, so all side effects stay canonical (DESIGN.md
  §13).

Fault semantics mirror the offline loop: timeouts burn the question
timeout and retry, abandons retry immediately, garbage produces a
detectably-malformed value that validation rejects (another retry).
An answer whose retry budget is exhausted is *lost* — the engine
serves the query anyway, degraded, with the shortfall reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.crowd.faults import (
    VALUE_MARGIN_SPANS,
    FaultKind,
    FaultProfile,
    FaultRates,
    RetryPolicy,
    corrupted_value,
    draw_outcome,
    plausible_value,
)
from repro.serve.stream import BatchedValueStream, DeterministicValueStream
from repro.serve.vecrng import uniform_doubles, ziggurat_exponentials


@dataclass(frozen=True)
class Attempt:
    """One worker interaction during a purchase (for breaker replay)."""

    worker_id: int
    fault: bool


@dataclass
class KeyPurchase:
    """Everything one key's fault-injected purchase produced.

    ``answers`` holds the validated values actually obtained (possibly
    fewer than requested — the difference is ``lost``); the remaining
    fields are the side-effect log the engine replays serially.  The
    engine also carries fault-free purchases in this shape: the batched
    stream's answer array, and no attempts.
    """

    answers: list[float] | np.ndarray = field(default_factory=list)
    #: Answers whose retry budget was exhausted (never obtained).
    lost: int = 0
    #: Every worker interaction, in attempt order.
    attempts: list[Attempt] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    abandons: int = 0
    garbage: int = 0
    #: Simulated seconds of latency, timeouts and backoff.
    sim_seconds: float = 0.0


class ResilientValueStream:
    """Pure fault-injected purchases over a deterministic value stream.

    Parameters
    ----------
    stream:
        The fault-free answer stream; supplies the domain, the worker
        population and canonical attribute resolution.
    profile:
        Fault configuration; only the ``"value"`` category applies
        (serving buys nothing else).
    policy:
        Retry budget, backoff and question timeout.
    seed:
        Fault-stream seed.  Must differ from the answer-stream seed
        (the engine decorrelates it) so fault rolls never correlate
        with answer noise.
    """

    def __init__(
        self,
        stream: DeterministicValueStream,
        profile: FaultProfile,
        policy: RetryPolicy,
        seed: int,
    ) -> None:
        self.stream = stream
        self.profile = profile
        self.policy = policy
        self.seed = int(seed)
        self._rates: FaultRates = profile.rates_for("value")
        # Attribute resolution is pure; memoize it per surface form the
        # same way DeterministicValueStream._resolve does, so a
        # purchase resolves each key once instead of per call.
        self._resolved: dict[str, tuple[str, int, float, float]] = {}

    def _resolve_key(self, attribute: str) -> tuple[str, int, float, float]:
        """``(canonical, attr_key, low, high)`` for one attribute, memoized."""
        cached = self._resolved.get(attribute)
        if cached is None:
            canonical, attr_key = self.stream.resolve(attribute)
            low, high = self.stream.domain.answer_range(canonical)
            cached = (canonical, attr_key, float(low), float(high))
            self._resolved[attribute] = cached
        return cached

    def _draw_worker(self, rng: np.random.Generator, blocked: frozenset[int]):
        """Sample a worker, redrawing around the frozen quarantine set.

        Mirrors :meth:`~repro.crowd.pool.WorkerPool.draw_avoiding`:
        after ``len(workers)`` blocked redraws the last draw is served
        anyway, so a fully-quarantined population degrades to normal
        service instead of deadlocking.
        """
        workers = self.stream.workers
        worker = workers[int(rng.integers(0, len(workers)))]
        if not blocked:
            return worker
        for _ in range(len(workers)):
            if worker.worker_id not in blocked:
                return worker
            worker = workers[int(rng.integers(0, len(workers)))]
        return worker

    def purchase(
        self,
        object_id: int,
        attribute: str,
        start: int,
        count: int,
        blocked: frozenset[int],
    ) -> KeyPurchase:
        """Buy answers ``start .. start+count`` of one key, with faults.

        Pure: the result depends only on ``(seed, object, attribute,
        index, attempt)`` coordinates and ``blocked`` — never on call
        order or purchase batching.
        """
        canonical, attr_key, low, high = self._resolve_key(attribute)
        domain = self.stream.domain
        answers: list[float] = []
        result = KeyPurchase(answers=answers)
        for index in range(start, start + count):
            obtained = False
            for attempt in range(self.policy.max_attempts):
                rng = np.random.default_rng(
                    [self.seed, int(object_id), attr_key, int(index), attempt]
                )
                if attempt:
                    result.retries += 1
                    result.sim_seconds += self.policy.delay(attempt - 1, rng)
                worker = self._draw_worker(rng, blocked)
                outcome = draw_outcome(self._rates, worker.fault_proneness, rng)
                result.sim_seconds += outcome.latency
                if outcome.kind is FaultKind.TIMEOUT:
                    result.timeouts += 1
                    result.sim_seconds += self.policy.question_timeout
                    result.attempts.append(Attempt(worker.worker_id, True))
                    continue
                if outcome.kind is FaultKind.ABANDON:
                    result.abandons += 1
                    result.attempts.append(Attempt(worker.worker_id, True))
                    continue
                answer = worker.answer_value_stateless(
                    domain, object_id, canonical, rng
                )
                if outcome.kind is FaultKind.GARBAGE:
                    answer = corrupted_value((low, high), rng)
                    result.garbage += 1
                if plausible_value(answer, low, high):
                    result.attempts.append(Attempt(worker.worker_id, False))
                    answers.append(float(answer))
                    obtained = True
                    break
                result.attempts.append(Attempt(worker.worker_id, True))
            if not obtained:
                result.lost += 1
        return result

    def purchase_batch(
        self,
        requests: Sequence[tuple[int, str, int, int]],
        blocked: frozenset[int],
    ) -> list[KeyPurchase]:
        """Batched :meth:`purchase` over many keys.

        The common case under realistic fault rates is that every
        answer succeeds on its first attempt, so the batch computes all
        first attempts vectorized — worker draw, latency, fault roll,
        answer value and plausibility check as array ops over every
        lane at once — and falls back to the scalar :meth:`purchase`
        only for keys where *any* lane deviates from that fast path:
        an actual fault, a quarantined-worker redraw, a kernel
        rejection (Lemire / ziggurat) or a worker type without a
        vectorized contract.  Results are byte-identical to calling
        :meth:`purchase` per key.
        """
        if not requests:
            return []
        stream = self.stream

        def scalar() -> list[KeyPurchase]:
            return [
                self.purchase(obj, attr, start, count, blocked)
                for obj, attr, start, count in requests
            ]

        if not isinstance(stream, BatchedValueStream):
            return scalar()
        if not sum(count for _, _, _, count in requests):
            return [KeyPurchase() for _ in requests]
        metas = [stream.key_meta(obj, attr) for obj, attr, _, _ in requests]
        lanes = stream.batch_lanes(requests, metas, self.seed, attempt_column=True)
        if lanes is None:
            return scalar()
        counts, index_lane, tape, widx, ok = lanes
        total = int(counts.sum())

        worker_ids, proneness = stream.fault_columns()
        wid_lane = worker_ids[widx]
        if blocked:
            # Any quarantined-worker hit redraws in the scalar path;
            # send the whole key there.
            ok &= ~np.isin(wid_lane, np.fromiter(blocked, dtype=np.int64))

        rates = self._rates
        prone_lane = proneness[widx]
        if rates.latency_mean > 0:
            exps, exp_ok = ziggurat_exponentials(tape.next64())
            ok &= exp_ok
            latency = rates.latency_mean * exps
        else:
            latency = np.zeros(total, dtype=np.float64)

        roll = uniform_doubles(tape.next64())
        p_timeout = np.minimum(rates.timeout * prone_lane, 1.0)
        p_abandon = np.minimum(rates.abandon * prone_lane, 1.0)
        p_garbage = np.minimum(rates.garbage * prone_lane, 1.0)
        threshold = p_timeout + p_abandon
        threshold = threshold + p_garbage
        ok &= roll >= threshold  # any fault kind → scalar replay

        values, math_ok = stream._worker_math(metas, counts, widx, tape.next64())
        ok &= math_ok

        low = np.repeat(
            np.array([meta.low for meta in metas], dtype=np.float64), counts
        )
        high = np.repeat(
            np.array([meta.high for meta in metas], dtype=np.float64), counts
        )
        margin = VALUE_MARGIN_SPANS * np.maximum(high - low, 1.0)
        ok &= np.isfinite(values)
        ok &= values >= low - margin
        ok &= values <= high + margin

        bounds = np.cumsum(counts)
        seg_starts = bounds - counts
        results: list[KeyPurchase] = []
        for i, (obj, attr, start, count) in enumerate(requests):
            begin, end = int(seg_starts[i]), int(bounds[i])
            if count and not ok[begin:end].all():
                results.append(self.purchase(obj, attr, start, count, blocked))
                continue
            purchase = KeyPurchase()
            purchase.answers = values[begin:end].tolist()
            purchase.attempts = [
                Attempt(int(worker_id), False)
                for worker_id in wid_lane[begin:end].tolist()
            ]
            # Left-fold like the scalar `+=` per attempt (not np.sum,
            # whose pairwise order would change low bits).
            sim_seconds = 0.0
            for lane_latency in latency[begin:end].tolist():
                sim_seconds += lane_latency
            purchase.sim_seconds = sim_seconds
            results.append(purchase)
        return results
