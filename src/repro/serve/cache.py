"""The shared answer cache and its evaluator-facing answer sources.

:class:`AnswerCache` stores purchased crowd value answers keyed by
``(object_id, attribute)`` with per-entry counts.  A query that needs
``b(a)`` answers for a key some earlier query already touched only buys
the shortfall ``max(0, b(a) - cached)`` — the reuse that crowd query
processors build their economics on (Trushkowsky et al.'s *Getting It
All from the Crowd*; Rekatsinas et al.'s *CrowdGather*).

Two :class:`~repro.core.online.AnswerSource` implementations ride on
the cache:

* :class:`CachedAnswerSource` — a read-through source for evaluating
  queries one at a time: serves cached prefixes, purchases shortfalls
  through the platform ledger (budget-checked) from a
  :class:`~repro.serve.stream.DeterministicValueStream`, and records
  cache-hit savings.  The serving benchmark evaluates each query alone
  through it, as the baseline the engine's coalescing is measured
  against.
* :class:`CacheReadSource` — the read-only source the engine hands to
  evaluators after a wave's purchases have landed: pure cache reads,
  no accounting, trivially thread-safe.

The cache itself is never persisted.  A durable
:class:`~repro.serve.engine.ServeEngine` logs each key's purchase
write-ahead in its serve log, the one durable copy of every purchased
answer, and a resume folds the log back into an empty cache, so a
crashed serving run resumes without re-purchasing.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.agg.base import UNATTRIBUTED
from repro.crowd.platform import CrowdPlatform
from repro.errors import ConfigurationError
from repro.serve.stream import DeterministicValueStream

#: Cache keys are the recorder's value-tape keys: (object_id, attribute).
CacheKey = tuple[int, str]

_EMPTY = np.empty(0, dtype=np.float64)
_EMPTY.setflags(write=False)

_NO_WORKERS = np.empty(0, dtype=np.int64)
_NO_WORKERS.setflags(write=False)


def _frozen(answers) -> np.ndarray:
    """A read-only float64 copy of one key's answer tape."""
    array = np.array(answers, dtype=np.float64)
    array.setflags(write=False)
    return array


class AnswerCache:
    """Purchased value answers keyed by ``(object_id, attribute)``.

    Append-only per key (answers are never evicted or reordered —
    eviction would break both replay determinism and the economics:
    a bought answer is an asset).  Tapes are stored as read-only
    float64 ndarrays so :meth:`answers` can hand out zero-copy views
    to the evaluators instead of building a list per fetch.
    """

    def __init__(self) -> None:
        self._answers: dict[CacheKey, np.ndarray] = {}
        #: Optional worker-provenance tape per key.  May be *shorter*
        #: than the answer tape (answers bought before attribution was
        #: enabled have no recorded worker); the missing suffix reads
        #: as ``UNATTRIBUTED``.  Mirrors the offline recorder's
        #: ``_value_workers`` semantics.
        self._workers: dict[CacheKey, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._answers)

    @property
    def total_answers(self) -> int:
        """Total purchased answers held across all keys."""
        return sum(len(answers) for answers in self._answers.values())

    def count(self, object_id: int, attribute: str) -> int:
        """How many answers are cached for one key."""
        return len(self._answers.get((object_id, attribute), ()))

    def answers(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """The first ``min(n, cached)`` answers of one key.

        A read-only view of the stored tape — tapes are append-only by
        replacement, so a view can never observe a mutation.
        """
        tape = self._answers.get((object_id, attribute))
        if tape is None:
            return _EMPTY
        return tape[:n]

    def shortfall(self, object_id: int, attribute: str, n: int) -> int:
        """Answers still to buy so the key can serve ``n``."""
        return max(0, n - self.count(object_id, attribute))

    def workers(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """Worker ids behind the first ``min(n, cached)`` answers.

        Aligned 1:1 with :meth:`answers` for the same ``n``; positions
        past the recorded provenance tape read as ``UNATTRIBUTED``.
        """
        count = min(len(self._answers.get((object_id, attribute), ())), n)
        if count <= 0:
            return _NO_WORKERS
        tape = self._workers.get((object_id, attribute), _NO_WORKERS)
        if len(tape) >= count:
            return tape[:count]
        padded = np.full(count, UNATTRIBUTED, dtype=np.int64)
        padded[: len(tape)] = tape
        padded.setflags(write=False)
        return padded

    def add(
        self, object_id: int, attribute: str, answers, worker_ids=None
    ) -> int:
        """Append freshly purchased answers; returns the start index.

        ``worker_ids`` (optional, aligned with ``answers``) records who
        produced each fresh answer; any attribution gap before ``start``
        is padded with ``UNATTRIBUTED`` so tapes stay index-aligned.
        """
        key = (object_id, attribute)
        fresh = np.asarray(answers, dtype=np.float64)
        existing = self._answers.get(key)
        if existing is None:
            start = 0
            tape = _frozen(fresh)
        else:
            start = len(existing)
            tape = np.concatenate([existing, fresh])
            tape.setflags(write=False)
        self._answers[key] = tape
        if worker_ids is not None:
            if len(worker_ids) != len(fresh):
                raise ConfigurationError(
                    f"{len(worker_ids)} worker ids for {len(fresh)} answers"
                )
            recorded = self._workers.get(key, _NO_WORKERS)
            if len(recorded) < start:
                pad = np.full(start - len(recorded), UNATTRIBUTED, dtype=np.int64)
                recorded = np.concatenate([recorded, pad])
            merged = np.concatenate(
                [recorded, np.asarray(worker_ids, dtype=np.int64)]
            )
            merged.setflags(write=False)
            self._workers[key] = merged
        return start


class CachedAnswerSource:
    """Read-through answer source: cached prefix + purchased shortfall.

    Parameters
    ----------
    platform:
        Charges shortfalls (budget-checked) and records savings.
    cache:
        The shared answer store; a fresh private one when omitted.
    stream:
        Deterministic answer generator; built over ``platform`` when
        omitted.
    metrics:
        Optional metrics sink for the ``serve.cache.*`` counters.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        cache: AnswerCache | None = None,
        stream: DeterministicValueStream | None = None,
        metrics: Any = None,
    ) -> None:
        self.platform = platform
        self.cache = cache if cache is not None else AnswerCache()
        self.stream = (
            stream if stream is not None else DeterministicValueStream(platform)
        )
        self.metrics = metrics
        #: Serializes charge + cache-insert so concurrent fetches cannot
        #: double-buy a key or tear the ledger.
        self._lock = threading.Lock()

    def fetch(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """Up to ``n`` answers: cached prefix plus purchased shortfall.

        Raises :class:`~repro.errors.BudgetExhaustedError` when the
        platform budget cannot cover the shortfall (nothing is bought
        or cached in that case).
        """
        if n <= 0:
            return _EMPTY
        with self._lock:
            cached = self.cache.count(object_id, attribute)
            hits = min(cached, n)
            shortfall = n - hits
            if shortfall:
                # Budget check happens inside charge_values, *before*
                # the charge; generation is pure and cannot fail.
                self.platform.charge_values(attribute, shortfall)
                fresh = self.stream.answers(object_id, attribute, cached, shortfall)
                self.cache.add(object_id, attribute, fresh)
            if hits:
                self.platform.record_value_savings(attribute, hits)
            if self.metrics is not None:
                if hits:
                    self.metrics.inc("serve.cache.hits", hits)
                    self.metrics.inc("serve.answers.saved", hits)
                if shortfall:
                    self.metrics.inc("serve.cache.misses", shortfall)
                    self.metrics.inc("serve.answers.purchased", shortfall)
            return self.cache.answers(object_id, attribute, n)

    def fetch_attributed(
        self, object_id: int, attribute: str, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`fetch` plus the worker ids behind the returned span."""
        values = self.fetch(object_id, attribute, n)
        return values, self.cache.workers(object_id, attribute, len(values))


class CacheReadSource:
    """Read-only view of a cache for post-purchase query evaluation.

    Returns whatever prefix the cache holds (shorter than ``n`` only
    when a wave's purchases were cut short by budget exhaustion, in
    which case the estimate degrades the same way the offline online
    phase degrades: the term's mean is taken over fewer answers, or
    drops out entirely at zero).  No accounting happens here — the
    engine already attributed hits and purchases when it planned the
    wave — so concurrent evaluators can share one instance freely.
    """

    #: Contract flag for :meth:`OnlineEvaluator.estimate_objects`:
    #: fetches are pure reads (no accounting, no mutation) and never
    #: raise for ``n >= 0``, so the evaluator may reorder them freely
    #: and use the batched design-matrix path.
    side_effect_free = True

    def __init__(self, cache: AnswerCache) -> None:
        self.cache = cache

    def fetch(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        if n < 0:
            raise ConfigurationError(f"cannot fetch {n} answers")
        return self.cache.answers(object_id, attribute, n)

    def fetch_attributed(
        self, object_id: int, attribute: str, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached answers plus the worker ids behind them (pure reads)."""
        values = self.fetch(object_id, attribute, n)
        return values, self.cache.workers(object_id, attribute, len(values))
