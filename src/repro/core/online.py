"""The online query-evaluation phase and error metrics.

Given the preprocessing plan ``(l, b)``, the online phase processes
each database object by asking ``b(a)`` value questions per attribute,
averaging, and applying the linear formulas (Table 1c of the paper).
The error metrics implement the paper's definitions:

* per-target error  ``Er(O.a^(*)) = E_O[(o.a - o.a^(*))^2]``;
* query error       ``Er(Q) = sum_t w_t * Er(O.a_t^(*))``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Protocol

import numpy as np

from repro.agg.base import Aggregator
from repro.core.model import PreprocessingPlan, Query
from repro.crowd.platform import CrowdPlatform
from repro.data.table import DataTable
from repro.domains.base import Domain
from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    CrowdFaultError,
)


class AnswerSource(Protocol):
    """Where the online phase gets its ``b(a)`` value answers from.

    The default is :class:`PlatformAnswerSource` (buy every answer from
    the crowd platform, exactly the paper's online phase); the serving
    tier substitutes cache-backed sources (:mod:`repro.serve.cache`)
    that serve cached answers and buy at most the shortfall.
    Implementations may raise
    :class:`~repro.errors.BudgetExhaustedError` or
    :class:`~repro.errors.CrowdFaultError`, which the evaluator absorbs
    into its skip lists.
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
        aggregator: Aggregator | None = None,
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
        # ``uniform`` (the paper's plain mean) keeps the historical
        # np.mean fast paths, bit for bit, by collapsing to None here.
        if aggregator is not None and aggregator.name == "uniform":
            aggregator = None
        self._aggregator = aggregator
        if (
            aggregator is not None
            and aggregator.needs_workers
            and not hasattr(self.source, "fetch_attributed")
        ):
            raise ConfigurationError(
                f"aggregator {aggregator.name!r} needs worker-attributed "
                "answers but the answer source has no fetch_attributed"
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

    def _fetch(
        self, object_id: int, attribute: str, count: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One source round-trip, attributed only when the aggregator
        needs provenance (impure sources must never double-purchase)."""
        aggregator = self._aggregator
        if aggregator is not None and aggregator.needs_workers:
            return self.source.fetch_attributed(  # type: ignore[attr-defined]
                object_id, attribute, count
            )
        return self.source.fetch(object_id, attribute, count), None

    def _reduce(
        self, answers: np.ndarray, workers: np.ndarray | None
    ) -> float:
        if self._aggregator is None:
            return float(np.mean(answers))
        return self._aggregator.aggregate(
            answers, None if workers is None else list(workers)
        )

    def estimate_object(self, object_id: int) -> dict[str, float]:
        """Estimated target values for one object (the paper's ``o.a^(*)``).

        If the platform budget dies mid-object, formulas are applied to
        whatever answer means were gathered (missing terms drop out)
        and the truncation is recorded in :attr:`budget_skips`.
        An attribute whose answers are lost to crowd faults (retries
        exhausted) is skipped the same way — its formula term drops out
        and the loss is noted in :attr:`fault_skips` — so a flaky crowd
        degrades one term at a time instead of killing the whole run.
        Every dropped-out term bumps the ``agg.missing_terms`` counter,
        so partially-evaluated formulas are observable instead of
        silently blending into the error numbers.
        """
        obs = self.platform.obs
        obs.metrics.inc("online.objects")
        estimates: dict[str, float] = {}
        for plan, items in self._plan_items:
            means: dict[str, float] = {}
            for attribute, count in items:
                try:
                    answers, workers = self._fetch(object_id, attribute, count)
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
                    means[attribute] = self._reduce(answers, workers)
            for target in plan.query.targets:
                formula = plan.formula(target)
                missing = sum(
                    1 for term in formula.coefficients if term not in means
                )
                if missing:
                    obs.metrics.inc("agg.missing_terms", missing)
                estimates[target] = formula.estimate(means)
        return estimates

    def estimate_objects(self, object_ids: Sequence[int]) -> dict[str, np.ndarray]:
        """Batched :meth:`estimate_object`: target -> aligned value vector.

        When the answer source declares itself pure
        (``side_effect_free = True``, e.g. :class:`~repro.serve.cache.
        CacheReadSource`), the per-object formula applies collapse into
        one design-matrix column fold per plan
        (:func:`~repro.core.regression.apply_formula_columns`), fetching
        attribute-major — allowed precisely because a pure source has
        no call-order-dependent state and never raises mid-fetch.  Any
        other source falls back to the scalar per-object loop, so
        results are identical either way, bit for bit.
        """
        from repro.core.regression import apply_formula_columns

        object_ids = list(object_ids)
        obs = self.platform.obs
        if not getattr(self.source, "side_effect_free", False):
            series: dict[str, list[float]] = {}
            for object_id in object_ids:
                estimates = self.estimate_object(object_id)
                for target in self.targets:
                    series.setdefault(target, []).append(
                        estimates.get(target, float("nan"))
                    )
            return {
                target: np.array(series.get(target, []), dtype=np.float64)
                for target in self.targets
            }

        obs.metrics.inc("online.objects", len(object_ids))
        count_objects = len(object_ids)
        out: dict[str, np.ndarray] = {}
        for plan, items in self._plan_items:
            columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for attribute, count in items:
                means = np.full(count_objects, np.nan, dtype=np.float64)
                present = np.zeros(count_objects, dtype=bool)
                if self._aggregator is not None:
                    # Weighted reductions are per-row scalar calls; only
                    # the uniform mean has a grouped matrix form.
                    for row, object_id in enumerate(object_ids):
                        answers, workers = self._fetch(
                            object_id, attribute, count
                        )
                        if len(answers):
                            means[row] = self._reduce(answers, workers)
                            present[row] = True
                    columns[attribute] = (means, present)
                    continue
                rows = [
                    self.source.fetch(object_id, attribute, count)
                    for object_id in object_ids
                ]
                # Group rows by answer count and reduce each group with
                # one axis-mean: numpy's pairwise summation over a
                # contiguous row is bit-identical to np.mean of that
                # row alone, so this matches the scalar loop exactly.
                by_length: dict[int, list[int]] = {}
                for row, answers in enumerate(rows):
                    if len(answers):
                        by_length.setdefault(len(answers), []).append(row)
                for indices in by_length.values():
                    stacked = np.stack([rows[i] for i in indices])
                    means[indices] = np.mean(stacked, axis=1)
                    present[indices] = True
                columns[attribute] = (means, present)
            for target in plan.query.targets:
                formula = plan.formula(target)
                missing = 0
                for term in formula.coefficients:
                    if term in columns:
                        missing += int((~columns[term][1]).sum())
                    else:
                        missing += count_objects
                if missing:
                    obs.metrics.inc("agg.missing_terms", missing)
                if columns:
                    out[target] = apply_formula_columns(formula, columns)
                else:
                    # A support-less budget: constant predictor per row.
                    out[target] = np.full(
                        count_objects, formula.intercept, dtype=np.float64
                    )
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
