"""The online query-evaluation phase and error metrics.

Given the preprocessing plan ``(l, b)``, the online phase processes
each database object by asking ``b(a)`` value questions per attribute,
averaging, and applying the formulas ``l`` (Table 1c of the paper).
:meth:`OnlineEvaluator.estimate_objects` is that loop, and the only
one: offline experiments and the serving engine both go through it.
The error metrics implement the paper's definitions:

* per-target error  ``Er(O.a^(*)) = E_O[(o.a - o.a^(*))^2]``;
* query error       ``Er(Q) = sum_t w_t * Er(O.a_t^(*))``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Protocol

import numpy as np

from repro.agg.base import row_means
from repro.agg.reliability import ReliabilityAggregator
from repro.core.model import PreprocessingPlan, Query
from repro.crowd.platform import CrowdPlatform
from repro.data.table import DataTable
from repro.domains.base import Domain
from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    CrowdFaultError,
)

#: One fetched term: (row, answers, worker ids or None).
_Fetched = tuple[int, np.ndarray, np.ndarray | None]


class AnswerSource(Protocol):
    """Where the online phase gets its ``b(a)`` value answers from.

    The default is :class:`PlatformAnswerSource` (buy every answer from
    the crowd platform, exactly the paper's online phase); the serving
    tier substitutes cache-backed sources (:mod:`repro.serve.cache`)
    that serve cached answers and buy at most the shortfall.  A source
    may keep call-order state (budget, cursors, fault streams): the
    evaluator always fetches object by object, then plan by plan, then
    attribute by attribute, one call per (object, attribute) term.
    Implementations may raise
    :class:`~repro.errors.BudgetExhaustedError` or
    :class:`~repro.errors.CrowdFaultError`, which the evaluator absorbs
    into its skip lists.  Reliability aggregation also needs a
    ``fetch_attributed`` method returning the worker ids alongside.
    """

    def fetch(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        """Up to ``n`` value answers for one (object, attribute), float64."""
        ...


class PlatformAnswerSource:
    """The paper-faithful source: every answer is bought from the crowd."""

    def __init__(self, platform: CrowdPlatform) -> None:
        self.platform = platform

    def fetch(self, object_id: int, attribute: str, n: int) -> np.ndarray:
        return np.asarray(
            self.platform.ask_value(object_id, attribute, n), dtype=np.float64
        )

    def fetch_attributed(
        self, object_id: int, attribute: str, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        answers, worker_ids = self.platform.ask_value_attributed(
            object_id, attribute, n
        )
        return (
            np.asarray(answers, dtype=np.float64),
            np.asarray(worker_ids, dtype=np.int64),
        )


class OnlineEvaluator:
    """Applies one or more preprocessing plans to database objects.

    Several plans are supported because the *TotallySeparated* baseline
    produces one independent single-target plan per query attribute;
    full DisQ produces a single multi-target plan.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        plans: PreprocessingPlan | Sequence[PreprocessingPlan],
        answer_source: AnswerSource | None = None,
        aggregator: ReliabilityAggregator | None = None,
    ) -> None:
        if isinstance(plans, PreprocessingPlan):
            plans = [plans]
        if not plans:
            raise ConfigurationError("need at least one plan")
        self.platform = platform
        self.plans = list(plans)
        self.source: AnswerSource = (
            answer_source
            if answer_source is not None
            else PlatformAnswerSource(platform)
        )
        # ``None`` is the paper's plain mean.
        self._aggregator = aggregator
        if aggregator is not None and not hasattr(self.source, "fetch_attributed"):
            raise ConfigurationError(
                "reliability aggregation needs worker-attributed answers "
                "but the answer source has no fetch_attributed"
            )
        targets: list[str] = []
        for plan in self.plans:
            targets.extend(plan.query.targets)
        if len(set(targets)) != len(targets):
            raise ConfigurationError("plans estimate overlapping targets")
        self.targets = tuple(targets)
        # Per-object work is invariant across objects: resolve each
        # plan's (attribute, count) pairs and the per-attribute prices
        # once, here, instead of once per estimated object.
        self._plan_items: list[
            tuple[PreprocessingPlan, tuple[tuple[str, int], ...]]
        ] = [
            (
                plan,
                tuple(
                    (attribute, plan.budget[attribute])
                    for attribute in plan.budget.attributes
                ),
            )
            for plan in self.plans
        ]
        self._price_of: dict[str, float] | None = None
        #: (object_id, attribute) pairs whose answers were lost to crowd
        #: faults even after retries; their formula terms dropped out.
        self.fault_skips: list[tuple[int, str]] = []
        #: (object_id, attribute) pairs where the platform budget died
        #: mid-object; the attribute (and the rest of its plan's terms)
        #: dropped out of the estimate.  Mirrors :attr:`fault_skips` so
        #: budget-truncated estimates are attributable instead of
        #: silently partial.
        self.budget_skips: list[tuple[int, str]] = []

    def per_object_cost(self) -> float:
        """Online cents spent per object across all plans.

        Prices are resolved through the platform once and cached: the
        price schedule is immutable, so repeated calls (and the
        per-object loop) must not re-resolve every attribute.
        """
        if self._price_of is None:
            self._price_of = {
                attribute: self.platform.value_price(attribute)
                for plan in self.plans
                for attribute in plan.budget.attributes
            }
        return sum(
            plan.budget.cost(self._price_of) for plan in self.plans
        )

    def estimate_objects(self, object_ids: Sequence[int]) -> dict[str, np.ndarray]:
        """Estimated target values (the paper's ``o.a^(*)``) for many
        objects: target -> value vector aligned with ``object_ids``.

        One loop in three steps.  *Fetch* asks object by object, then
        plan by plan, then attribute by attribute, so a purchasing
        source buys what a per-object loop buys.  If the platform budget
        dies mid-object, the rest of that plan's terms drop out for that
        object and the truncation is recorded in :attr:`budget_skips`;
        an attribute whose answers are lost to crowd faults (retries
        exhausted) drops only its own term and is noted in
        :attr:`fault_skips`.  *Reduce* is one call per plan over all
        its attribute columns, scattered back into each column's
        aggregated answers and a mask of the rows that got any: under
        uniform aggregation rows of equal answer count share one axis
        mean (:func:`~repro.agg.base.row_means`); reliability
        aggregation is one
        :meth:`~repro.agg.reliability.ReliabilityAggregator.aggregate_many`
        call, the per-tape ``aggregate`` bit for bit.  *Apply* folds
        each target's terms left to right in coefficient order,
        starting from the intercept and adding ``coefficient * column``
        only where the column is present, which is ``formula.estimate``
        of every row bit for bit (a missing term is skipped, never
        added as 0.0, so a ``-0.0`` intercept survives).  Every
        dropped-out term bumps the ``agg.missing_terms`` counter, so
        partially-evaluated formulas are observable.  Rows are
        independent: an object listed twice is estimated twice.
        """
        object_ids = list(object_ids)
        obs = self.platform.obs
        obs.metrics.inc("online.objects", len(object_ids))
        attributed = self._aggregator is not None
        source = self.source
        # Per plan, per attribute: (row, answers, worker ids) of every
        # row that got at least one answer.
        fetched: list[dict[str, list[_Fetched]]] = [
            {attribute: [] for attribute, _ in items} for _, items in self._plan_items
        ]
        for row, object_id in enumerate(object_ids):
            for (_, items), columns in zip(self._plan_items, fetched):
                for attribute, count in items:
                    workers: np.ndarray | None = None
                    try:
                        if attributed:
                            answers, workers = source.fetch_attributed(  # type: ignore[attr-defined]
                                object_id, attribute, count
                            )
                        else:
                            answers = source.fetch(object_id, attribute, count)
                    except BudgetExhaustedError:
                        self.budget_skips.append((object_id, attribute))
                        obs.metrics.inc("online.budget_skips")
                        obs.tracer.event(
                            "online.budget_skip",
                            object_id=object_id,
                            attribute=attribute,
                        )
                        break
                    except CrowdFaultError:
                        self.fault_skips.append((object_id, attribute))
                        obs.metrics.inc("online.fault_skips")
                        obs.tracer.event(
                            "online.fault_skip",
                            object_id=object_id,
                            attribute=attribute,
                        )
                        continue
                    if len(answers):
                        columns[attribute].append((row, answers, workers))

        n = len(object_ids)
        out: dict[str, np.ndarray] = {}
        for (plan, _), columns in zip(self._plan_items, fetched):
            reduced = self._reduce(columns, n)
            for target in plan.query.targets:
                formula = plan.formula(target)
                estimate = np.full(n, formula.intercept, dtype=np.float64)
                missing = 0
                for term, coefficient in formula.coefficients.items():
                    missing += n - len(columns.get(term, ()))
                    if term in reduced:
                        values, present = reduced[term]
                        np.add(
                            estimate, coefficient * values, out=estimate, where=present
                        )
                if missing:
                    obs.metrics.inc("agg.missing_terms", missing)
                out[target] = estimate
        return out

    def _reduce(
        self, columns: dict[str, list[_Fetched]], n: int
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Every attribute column of one plan over ``n`` rows, in one reduce.

        Returns attribute -> ``(aggregates, present)``.
        """
        rows = [row for fetched in columns.values() for row in fetched]
        if self._aggregator is not None:
            reduced = self._aggregator.aggregate_many(
                [(answers, workers) for _, answers, workers in rows]
            )
        else:
            reduced = row_means([answers for _, answers, _ in rows])
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        offset = 0
        for attribute, fetched in columns.items():
            at = [row for row, _, _ in fetched]
            values = np.zeros(n, dtype=np.float64)
            present = np.zeros(n, dtype=bool)
            values[at] = reduced[offset : offset + len(at)]
            present[at] = True
            out[attribute] = (values, present)
            offset += len(at)
        return out

    def evaluate(self, object_ids: Iterable[int]) -> dict[str, np.ndarray]:
        """Estimates for many objects: target -> aligned value vector."""
        return self.estimate_objects(list(object_ids))

    def fill_table(self, table: DataTable, suffix: str = "_estimate") -> None:
        """Write estimated columns ``<target><suffix>`` into a table."""
        estimates = self.evaluate(table.object_ids)
        for target, values in estimates.items():
            table.set_column(target + suffix, list(values))


def target_error(
    domain: Domain, estimates: np.ndarray, object_ids: Sequence[int], target: str
) -> float:
    """Mean squared error of one target's estimates against ground truth."""
    if len(object_ids) == 0:
        raise ConfigurationError("query error needs at least one object")
    truth = np.array([domain.true_value(oid, target) for oid in object_ids])
    estimates = np.asarray(estimates, dtype=float)
    if estimates.shape != truth.shape:
        raise ConfigurationError("estimates misaligned with object ids")
    return float(np.mean((estimates - truth) ** 2))


def query_error(
    domain: Domain,
    estimates: dict[str, np.ndarray],
    object_ids: Sequence[int],
    query: Query,
) -> float:
    """The paper's weighted query error ``sum_t w_t * Er(O.a_t^(*))``."""
    total = 0.0
    for target in query.targets:
        if target not in estimates:
            raise ConfigurationError(f"no estimates for target {target!r}")
        total += query.weight(target) * target_error(
            domain, estimates[target], object_ids, target
        )
    return total


def default_weights(domain: Domain, targets: Sequence[str]) -> dict[str, float]:
    """The paper's default weighting ``w_t = 1 / Var(O.a_t)``.

    Normalizes every target's error to a standard-deviation scale so no
    query attribute is negligible (Section 5.1).
    """
    weights = {}
    for target in targets:
        variance = domain.true_variance(target)
        weights[target] = 1.0 / variance if variance > 0 else 1.0
    return weights
