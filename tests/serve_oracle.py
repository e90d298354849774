"""A naive reference server for differential tests of the serve engine.

:class:`NaiveServer` serves query waves the slow, obvious way: serially,
over the scalar answer streams (``DeterministicValueStream.answers`` and
``worker_ids``, ``ResilientValueStream.purchase``), with a dict-of-lists
cache, no log and no batching kernels.  It follows the engine's
contract (DESIGN.md §12–§13), not its code:

* a wave's demand for a key is the largest demand of its purchasing
  (not cache-only) queries, and only the shortfall is bought;
* the quarantine set is read once, at wave start;
* keys are bought in sorted order, and a key the budget cannot cover is
  skipped whole — its answers are neither charged, cached nor counted
  against the fault clock or the breaker;
* each purchase's fault side effects (clock, breaker, retry and abandon
  ledger events, the lost-answer cursor) apply before its charge, and
  the reliability model absorbs each key's new span right after it;
* every query is then estimated object by object over the dict cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.online import OnlineEvaluator
from repro.crowd.faults import SimulatedClock
from repro.errors import BudgetExhaustedError
from repro.serve.degrade import DEGRADE_REASONS
from repro.serve.faults import ResilientValueStream
from repro.serve.stream import DeterministicValueStream


@dataclass
class OracleResult:
    """What the oracle says one query should come back as."""

    estimates: dict[str, list[float]]
    status: str
    degraded_reason: str | None


def demands_of(request, plan) -> dict[tuple[int, str], int]:
    """``(object, attribute) -> answers`` one query's plan asks for."""
    return {
        (object_id, attribute): plan.budget[attribute]
        for attribute in plan.budget.attributes
        for object_id in request.object_ids
    }


class DictSource:
    """Evaluator answer source over the oracle's dict cache (pure reads)."""

    def __init__(self, answers: dict, workers: dict) -> None:
        self.answers = answers
        self.workers = workers

    def fetch(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        return np.array(self.answers.get((object_id, attribute), [])[:n])

    def fetch_attributed(self, object_id: int, attribute: str, n: int):
        values = self.fetch(object_id, attribute, n)
        workers = self.workers.get((object_id, attribute), [])[: len(values)]
        return values, np.array(workers, dtype=np.int64)


class NaiveServer:
    """Serial per-wave reference server; see the module docstring.

    ``platform`` holds the budget and ledger; ``faults`` (with
    ``retry``, ``fault_seed`` and ``breaker``) turns on the scalar fault
    path; ``aggregator`` is ``None`` for the plain mean.
    """

    def __init__(
        self,
        platform,
        faults=None,
        retry=None,
        fault_seed: int = 0,
        breaker=None,
        aggregator=None,
    ) -> None:
        self.platform = platform
        self.stream = DeterministicValueStream(platform)
        self.resilient = None
        if faults is not None:
            self.resilient = ResilientValueStream(self.stream, faults, retry, fault_seed)
        self.breaker = breaker
        self.clock = SimulatedClock()
        self.aggregator = aggregator
        self.model = getattr(aggregator, "model", None)
        self.answers: dict[tuple[int, str], list[float]] = {}
        self.workers: dict[tuple[int, str], list[int]] = {}
        self.lost: dict[tuple[int, str], int] = {}

    def serve(self, submissions, wave_size: int | None) -> dict[str, OracleResult]:
        """Serve ``(request, plan, cache_only)`` triples in waves."""
        size = wave_size or len(submissions)
        results: dict[str, OracleResult] = {}
        for begin in range(0, len(submissions), size):
            results.update(self._wave(submissions[begin : begin + size]))
        return results

    def _wave(self, wave) -> dict[str, OracleResult]:
        wanted: dict[tuple[int, str], int] = {}
        for request, plan, cache_only in wave:
            if not cache_only:
                for key, count in demands_of(request, plan).items():
                    wanted[key] = max(wanted.get(key, 0), count)
        blocked: frozenset[int] = frozenset()
        if self.resilient is not None:
            blocked = frozenset(self.breaker.quarantined(self.clock.now))
        unfunded = set()
        for key in sorted(wanted):
            have = len(self.answers.get(key, []))
            if wanted[key] > have and not self._buy(key, have, wanted[key] - have, blocked):
                unfunded.add(key)

        source = DictSource(self.answers, self.workers)
        results = {}
        for request, plan, cache_only in wave:
            reasons = set()
            for key, count in demands_of(request, plan).items():
                if count > len(self.answers.get(key, [])):
                    if cache_only:
                        reasons.add("admission")
                    else:
                        reasons.add("budget" if key in unfunded else "faults")
            evaluator = OnlineEvaluator(
                self.platform, [plan], answer_source=source, aggregator=self.aggregator
            )
            estimates: dict[str, list[float]] = {target: [] for target in request.targets}
            for object_id in request.object_ids:
                values = evaluator.estimate_object(object_id)
                for target in request.targets:
                    estimates[target].append(values[target])
            reason = next((r for r in DEGRADE_REASONS if r in reasons), None)
            results[request.query_id] = OracleResult(
                estimates, "completed" if reason is None else "degraded", reason
            )
        return results

    def _buy(self, key, have: int, count: int, blocked: frozenset[int]) -> bool:
        """Buy answers ``have .. have+count`` of one key; ``False`` if unfunded."""
        object_id, attribute = key
        purchase = None
        if self.resilient is None:
            answers = self.stream.answers(object_id, attribute, have, count).tolist()
            workers = self.stream.worker_ids(object_id, attribute, have, count)
        else:
            cursor = have + self.lost.get(key, 0)
            purchase = self.resilient.purchase(object_id, attribute, cursor, count, blocked)
            answers = purchase.answers
            workers = [a.worker_id for a in purchase.attempts if not a.fault]
        try:
            self.platform.check_values_affordable(attribute, len(answers))
        except BudgetExhaustedError:
            return False
        if purchase is not None:
            self.clock.advance(purchase.sim_seconds)
            for attempt in purchase.attempts:
                self.breaker.record_outcome(attempt.worker_id, attempt.fault, self.clock.now)
            if purchase.retries:
                self.platform.ledger.record_retry("value", purchase.retries)
            if purchase.abandons:
                self.platform.ledger.record_abandon("value", purchase.abandons)
            self.lost[key] = self.lost.get(key, 0) + purchase.lost
        if answers:
            self.platform.charge_values(attribute, len(answers))
            self.answers.setdefault(key, []).extend(answers)
            self.workers.setdefault(key, []).extend(workers)
            if self.model is not None:
                self.model.observe(self.answers[key], workers, start=have)
        return True
