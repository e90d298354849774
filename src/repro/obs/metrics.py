"""Counters and gauges for crowd-pipeline runs.

A :class:`MetricsRegistry` is a flat map of dotted counter names
(``crowd.questions.value``, ``online.budget_skips`` …) to numeric
totals, plus a smaller map of gauges (last-write-wins point-in-time
values such as the final plan size).  Registries are cheap value
objects: they serialize to plain dicts (:meth:`MetricsRegistry.to_dict`)
so parallel experiment workers can ship their counts back to the parent
process, and :meth:`MetricsRegistry.merge` folds such payloads together
— counters add, gauges take the later write.

The disabled path is :data:`NULL_METRICS`, a :class:`NullMetrics`
singleton whose methods do nothing.  Hot paths that would pay even for
a no-op call (the allocator's grant loop, the platform's per-answer
path) are instrumented with an optional *sink* instead: they hold
``metrics=None`` by default and only ever execute a ``None`` check, so
disabled runs stay byte-identical and effectively free.

Naming convention (all counters unless noted):

=============================  =========================================
``crowd.questions.<cat>``      paid answers per ledger category
``crowd.spend.<cat>``          cents spent per ledger category
``crowd.retries.<cat>``        retried (unpaid) attempts
``crowd.abandons.<cat>``       abandoned (unpaid) assignments
``crowd.faults.<kind>``        fault outcomes drawn by the injector
``crowd.quarantine.trips``     circuit-breaker OPEN transitions
``allocator.calls``            greedy budget allocations performed
``allocator.grants``           single-question grants across all calls
``online.objects``             database objects estimated
``online.budget_skips``        online terms lost to budget exhaustion
``online.fault_skips``         online terms lost to crowd faults
``agg.missing_terms``          formula terms evaluated with no answers
``agg.workers`` (gauge)        workers the reliability model observed
``agg.gain`` (gauge)           mean per-attribute allocator ESS gain
``catalog.hits``               catalog lookups served from a fresh entry
``catalog.misses``             lookups with no entry on disk
``catalog.stale_age``          entries refused for exceeding max age
``catalog.stale_drift``        entries refused for domain-stats drift
``catalog.stores``             entries written (first store of a key)
``catalog.refreshes``          entries re-planned and overwritten
``catalog.avoided_cents``      preprocessing spend hits did not re-pay
``catalog.route.<route>``      router decisions (hit/refresh/fresh)
``catalog.entries`` (gauge)    entry files in the catalog directory
``plan.degradations``          graceful-degradation events
``runs.completed``             experiment runs that produced an error
``runs.infeasible``            runs skipped as infeasible (PlanningError)
``plan.attributes`` (gauge)    attribute count of the last plan
``plan.questions`` (gauge)     online questions/object of the last plan
=============================  =========================================
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.errors import ConfigurationError


class MetricsRegistry:
    """A mutable registry of named counters and gauges.

    Writes are guarded by a lock: the serving engine's parallel
    evaluation phase increments counters from worker threads, and an
    unguarded read-modify-write would lose updates under contention.
    """

    __slots__ = ("_counters", "_gauges", "_lock")

    #: Real registries record; the null registry advertises False so
    #: callers can skip work that only feeds metrics.
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to the counter ``name``."""
        if value < 0:
            raise ConfigurationError(
                f"counter {name!r} cannot be decremented (value={value!r})"
            )
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def inc_each(self, name: str, values: Sequence[float]) -> None:
        """:meth:`inc` the counter ``name`` by every value, in order.

        Every value is checked before any is added, so a negative one
        leaves the counter unchanged.  The values are added one by one,
        left to right, under one lock: the same float as one ``inc``
        per value.
        """
        for value in values:
            if value < 0:
                raise ConfigurationError(
                    f"counter {name!r} cannot be decremented (value={value!r})"
                )
        if not values:
            return
        with self._lock:
            total = self._counters.get(name, 0)
            for value in values:
                total += value
            self._counters[name] = total

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    # -- reading ---------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of one counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """All counters whose name starts with ``prefix``, sorted."""
        return {
            name: self._counters[name]
            for name in sorted(self._counters)
            if name.startswith(prefix)
        }

    def by_suffix(self, prefix: str) -> dict[str, float]:
        """Counters under ``prefix.``, keyed by the remaining suffix.

        ``by_suffix("crowd.spend")`` returns ``{"value": …, …}`` — the
        shape the manifest's per-category tables want.
        """
        stem = prefix if prefix.endswith(".") else prefix + "."
        return {
            name[len(stem):]: value
            for name, value in sorted(self._counters.items())
            if name.startswith(stem)
        }

    def gauges(self) -> dict[str, float]:
        """All gauges, sorted by name."""
        return {name: self._gauges[name] for name in sorted(self._gauges)}

    # -- serialization and merging --------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (the parallel-worker payload)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            # Preserve int-ness: integer counters must merge to exact
            # integers so parallel runs match serial runs bit-for-bit.
            registry._counters[str(name)] = value if isinstance(value, int) else float(value)
        for name, value in payload.get("gauges", {}).items():
            registry._gauges[str(name)] = value if isinstance(value, int) else float(value)
        return registry

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Fold another registry (or its payload) into this one.

        Counters add; gauges take the incoming value (last write wins),
        matching what the same events recorded locally would have done.
        """
        if isinstance(other, dict):
            other = MetricsRegistry.from_dict(other)
        with self._lock:
            for name, value in other._counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in other._gauges.items():
                self._gauges[name] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)})"
        )


class NullMetrics:
    """The disabled registry: every method is a no-op.

    Reads behave like an empty registry so report builders need no
    special-casing.
    """

    __slots__ = ()

    enabled = False

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def inc_each(self, name: str, values: Sequence[float]) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0

    def counters(self, prefix: str = "") -> dict[str, float]:
        return {}

    def by_suffix(self, prefix: str) -> dict[str, float]:
        return {}

    def gauges(self) -> dict[str, float]:
        return {}

    def to_dict(self) -> dict:
        return {"counters": {}, "gauges": {}}

    def merge(self, other) -> None:
        pass


#: Shared no-op registry (safe: it holds no state at all).
NULL_METRICS = NullMetrics()
