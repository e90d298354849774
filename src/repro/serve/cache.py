"""The shared answer cache and its evaluator-facing answer sources.

:class:`AnswerCache` stores purchased crowd value answers keyed by
``(object_id, attribute)`` with per-entry counts.  A query that needs
``b(a)`` answers for a key some earlier query already touched only buys
the shortfall ``max(0, b(a) - cached)`` — the reuse that crowd query
processors build their economics on (Trushkowsky et al.'s *Getting It
All from the Crowd*; Rekatsinas et al.'s *CrowdGather*).

The store is column-oriented, one column per attribute name, the way
T-Crowd (Shan et al., *Effective Crowdsourcing for Tabular Data*) keeps
crowd answers as a table: a row is an object id, and a column holds a
count per row, an answer matrix and, once answers carry worker ids, a
worker-id matrix.  Cells are append-only, so a view handed out once
never changes; see :class:`AnswerCache`.

Two :class:`~repro.core.online.AnswerSource` implementations ride on
the cache:

* :class:`CachedAnswerSource` — a read-through source for evaluating
  queries one at a time: serves cached prefixes, purchases shortfalls
  through the platform ledger (budget-checked) from a
  :class:`~repro.serve.stream.DeterministicValueStream`, and records
  cache-hit savings.  The serving benchmark evaluates each query alone
  through it, as the baseline the engine's coalescing is measured
  against.  It fetches key by key, in the evaluator's purchase order.
* :class:`CacheReadSource` — the read-only source the engine hands to
  evaluators after a wave's purchases have landed: pure cache reads,
  no accounting, trivially thread-safe.  Having no purchase order to
  keep, it also reads a whole attribute column in one call
  (:meth:`CacheReadSource.fetch_column`).

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


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; its slices are read-only too."""
    view = array.view()
    view.setflags(write=False)
    return view


class _Column:
    """One attribute's answers: a count, answers and worker ids per row.

    ``counts``, ``answers`` and ``workers`` are written in place.  The
    readers go through ``tally`` (``counts`` as Python ints, no numpy
    scalar) and the read-only views ``read_answers`` and
    ``read_workers``, whose slices need no flag of their own.
    """

    __slots__ = (
        "counts", "tally", "answers", "workers", "read_answers", "read_workers"
    )

    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)
        self.answers = np.zeros((0, 0), dtype=np.float64)
        self.workers: np.ndarray | None = None
        self._views()

    def _views(self) -> None:
        self.tally = memoryview(self.counts)
        self.read_answers = _read_only(self.answers)
        self.read_workers = None if self.workers is None else _read_only(self.workers)

    def fit(self, row: int, end: int) -> None:
        """Make room for ``end`` answers in ``row``: rows and width double.

        A growth copies into new buffers; views of the old ones keep
        reading them.
        """
        old_rows, old_width = self.answers.shape
        rows = max(2 * old_rows, row + 1) if row >= old_rows else old_rows
        width = max(2 * old_width, end) if end > old_width else old_width
        counts = np.zeros(rows, dtype=np.int64)
        counts[:old_rows] = self.counts
        answers = np.zeros((rows, width), dtype=np.float64)
        answers[:old_rows, :old_width] = self.answers
        if self.workers is not None:
            workers = np.full((rows, width), UNATTRIBUTED, dtype=np.int64)
            workers[:old_rows, :old_width] = self.workers
            self.workers = workers
        self.counts, self.answers = counts, answers
        self._views()

    def attribute(self) -> None:
        """Start the worker-id matrix, every cell ``UNATTRIBUTED``."""
        self.workers = np.full(self.answers.shape, UNATTRIBUTED, dtype=np.int64)
        self._views()


class AnswerCache:
    """Purchased value answers keyed by ``(object_id, attribute)``.

    One column per attribute name, one row per object id: ``counts``
    (int64, one per row), ``answers`` (float64, rows x width) and, from
    the first :meth:`add` that carries worker ids, ``workers`` (int64,
    every cell ``UNATTRIBUTED`` until written — answers bought without
    provenance read as unattributed).  Rows grow by doubling to the
    largest object id seen and the width doubles when a tape outgrows
    it; a growth copies into new buffers.

    Append-only per key: answers are never evicted, reordered or
    rewritten — eviction would break both replay determinism and the
    economics (a bought answer is an asset).  A written cell therefore
    never changes, so the read-only row-prefix views :meth:`answers`
    and :meth:`workers` hand out stay valid after later adds (after a
    growth they still read the old buffer, whose cells are final).
    """

    def __init__(self) -> None:
        self._columns: dict[str, _Column] = {}
        self._keys = 0
        self._total = 0

    def __len__(self) -> int:
        """Keys holding at least one answer."""
        return self._keys

    @property
    def total_answers(self) -> int:
        """Total purchased answers held across all keys."""
        return self._total

    def count(self, object_id: int, attribute: str) -> int:
        """How many answers are cached for one key."""
        column = self._columns.get(attribute)
        if column is None or not 0 <= object_id < len(column.tally):
            return 0
        return column.tally[object_id]

    def answers(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """The first ``min(n, cached)`` answers of one key (a read-only view)."""
        column = self._columns.get(attribute)
        if column is None or not 0 <= object_id < len(column.tally):
            return _EMPTY
        count = min(column.tally[object_id], n)
        if count <= 0:
            return _EMPTY
        return column.read_answers[object_id, :count]

    def workers(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """Worker ids behind the first ``min(n, cached)`` answers.

        Aligned 1:1 with :meth:`answers` for the same ``n``; answers
        added without worker ids read as ``UNATTRIBUTED``.
        """
        column = self._columns.get(attribute)
        if column is None or not 0 <= object_id < len(column.tally):
            return _NO_WORKERS
        count = min(column.tally[object_id], n)
        if count <= 0:
            return _NO_WORKERS
        if column.read_workers is None:
            return _read_only(np.full(count, UNATTRIBUTED, dtype=np.int64))
        return column.read_workers[object_id, :count]

    def add(
        self, object_id: int, attribute: str, answers, worker_ids=None
    ) -> int:
        """Append freshly purchased answers; returns the start index.

        ``worker_ids`` (optional, aligned with ``answers``) records who
        produced each fresh answer.  An empty ``answers`` stores nothing.
        """
        fresh = len(answers)
        if worker_ids is not None and len(worker_ids) != fresh:
            raise ConfigurationError(
                f"{len(worker_ids)} worker ids for {fresh} answers"
            )
        object_id = int(object_id)
        if object_id < 0:
            raise ConfigurationError(f"object id {object_id} is negative")
        if not fresh:
            return self.count(object_id, attribute)
        column = self._columns.get(attribute)
        if column is None:
            column = self._columns[attribute] = _Column()
        tally = column.tally
        start = tally[object_id] if object_id < len(tally) else 0
        end = start + fresh
        if object_id >= len(tally) or end > column.answers.shape[1]:
            column.fit(object_id, end)
        column.answers[object_id, start:end] = answers
        if worker_ids is not None:
            if column.workers is None:
                column.attribute()
            column.workers[object_id, start:end] = worker_ids
        column.tally[object_id] = end
        if not start:
            self._keys += 1
        self._total += fresh
        return start

    def column(
        self, object_ids: np.ndarray, attribute: str, n: int, attributed: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One attribute over many rows: see :meth:`CacheReadSource.fetch_column`."""
        column = self._columns.get(attribute)
        if column is None or n <= 0:
            return (
                np.zeros(len(object_ids), dtype=np.int64),
                _EMPTY.reshape(0, 0),
                _NO_WORKERS.reshape(0, 0) if attributed else None,
            )
        counts = column.counts
        # Negative ids wrap to huge unsigned ones: both kinds have no row.
        unsigned = object_ids.view(np.uint64)
        if len(object_ids) and unsigned.max() >= len(counts):
            inside = unsigned < len(counts)
            served = np.zeros(len(object_ids), dtype=np.int64)
            served[inside] = counts[object_ids[inside]]
        else:
            served = counts[object_ids]
        full = object_ids[served >= n]
        answers = column.answers[full, :n]
        workers = None
        if attributed:
            if column.workers is None:
                workers = np.full(answers.shape, UNATTRIBUTED, dtype=np.int64)
            else:
                workers = column.workers[full, :n]
        return np.minimum(served, n), answers, workers


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

    def fetch_column(
        self, object_ids, attribute: str, n: int, attributed: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One attribute of many objects in one read.

        Returns ``(served, answers, workers)``: each row's served count
        ``min(n, cached)``; the answers of the rows that hold all ``n``,
        in row order, gathered from the column's matrix into a new
        C-contiguous ``(rows, n)`` block; and, with ``attributed``, the
        matching worker-id block (``None`` otherwise).  A row holding
        fewer than ``n`` answers is only counted: read it again with its
        own count for its answers.
        """
        if n < 0:
            raise ConfigurationError(f"cannot fetch {n} answers")
        return self.cache.column(
            np.asarray(object_ids, dtype=np.int64), attribute, n, attributed
        )
