"""Greedy forward selection of the online budget distribution ``b``.

Finding the ``b`` maximizing expression 2 (or its weighted multi-target
sum, expression 10) is NP-hard in ``B_obj``, so the paper adopts the
greedy forward-selection approximation of Sabato & Kalai: starting from
``b = 0``, repeatedly grant one more question to the attribute with the
best marginal gain in (weighted) explained variance *per cent of cost*
until the per-object budget is exhausted.  Dividing by cost implements
the paper's handling of heterogeneous question prices ("divide each
attribute's contribution by its cost").

Every candidate is evaluated through one
:class:`~repro.core.objective.IncrementalObjective` per target
(Sherman–Morrison / bordered inverse updates, vectorized across
candidates), so a grant step costs a couple of BLAS calls instead of
``O(n * k^3)`` fresh solves.  The naive loop that re-solves every
candidate lives in the test suite (``tests/allocator_oracle.py``) as
the oracle this loop must match count for count.

A CELF-style lazy-greedy queue is deliberately absent: its skip rule is
exact only under diminishing marginal gains, and the explained-variance
objective is *not* submodular (granting questions to one attribute can
raise another's marginal gain — the suppressor-variable effect in
linear regression), so it could pick different counts than the
naive loop (DESIGN.md §9).

The dismantle loss needs the greedy counts at two budgets, ``B_obj``
and one question less; :func:`greedy_counts_pair` gets both from one
pass of the same loop, which shares the two runs' grants until their
affordable sets first differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import BudgetDistribution
from repro.core.objective import IncrementalObjective, explained_variance
from repro.errors import ConfigurationError

#: Marginal gains below this are treated as zero when ranking.
EPSILON = 1e-15

#: Slack used when checking a cost against the remaining budget.
_AFFORD_SLACK = 1e-9


@dataclass(frozen=True)
class TargetObjective:
    """Pre-assembled statistics of one target, ready for evaluation."""

    weight: float
    s_o: np.ndarray
    s_a: np.ndarray
    s_c: np.ndarray

    def value(self, counts: np.ndarray) -> float:
        """Weighted explained variance under question counts ``counts``."""
        return self.weight * explained_variance(self.s_o, self.s_a, self.s_c, counts)


def total_value(objectives: list[TargetObjective], counts: np.ndarray) -> float:
    """Weighted explained variance of ``counts``, by the closed-form objective."""
    return sum(objective.value(counts) for objective in objectives)


def _validate(
    objectives: list[TargetObjective], costs: np.ndarray
) -> np.ndarray:
    if not objectives:
        raise ConfigurationError("need at least one target objective")
    n = len(costs)
    for objective in objectives:
        if len(objective.s_o) != n:
            raise ConfigurationError("objective dimensions disagree with costs")
    costs = np.asarray(costs, dtype=float)
    if (costs <= 0).any():
        raise ConfigurationError("question costs must be positive")
    return costs


def apply_reliability_gains(
    objectives: list[TargetObjective], gains: np.ndarray
) -> list[TargetObjective]:
    """Shrink per-attribute answer variance by realized reliability.

    The objective's ``Diag(S_c / b)`` term models the variance of a
    ``b``-answer *uniform* mean.  Under reliability weighting the
    estimator's variance is smaller by the weighting efficiency
    ``gain = mean(rho) * mean(1/rho) >= 1`` (AM–HM), so the allocator
    should plan with ``S_c / gain`` — buying fewer answers where the
    crowd has proven precise and reinvesting the cents elsewhere.  A
    gain of exactly 1 everywhere reproduces the unweighted objectives
    (and therefore byte-identical counts) because ``x / 1.0 == x``
    exactly in IEEE-754.

    Applied to the *inputs* of the greedy loop, so the loop itself
    (and the naive oracle it is tested against) sees one adjusted
    problem.
    """
    gains = np.asarray(gains, dtype=float)
    if not objectives:
        raise ConfigurationError("need at least one target objective")
    if gains.shape != objectives[0].s_c.shape:
        raise ConfigurationError(
            "reliability gains misaligned with objective attributes"
        )
    if not np.isfinite(gains).all() or (gains < 1.0).any():
        raise ConfigurationError(
            "reliability gains must be finite and >= 1"
        )
    return [
        TargetObjective(
            weight=o.weight, s_o=o.s_o, s_a=o.s_a, s_c=o.s_c / gains
        )
        for o in objectives
    ]


def _greedy(
    evaluators: list[IncrementalObjective],
    counts: np.ndarray,
    costs: np.ndarray,
    remaining: list[float],
) -> list[np.ndarray]:
    """The greedy loop, for one budget or for budgets sharing a prefix.

    ``remaining`` holds each branch's unspent budget.  A grant step
    reads the affordable set, the evaluators and the grant count, and
    nothing else, so branches whose affordable sets agree make the same
    grant: they share the evaluators and each subtracts the granted
    cost from its own budget.  At the first step where a set differs,
    the first branch continues on the evaluators and the others on
    exact copies (:meth:`IncrementalObjective.copy`), so every branch
    ends with the counts of a standalone run from its own budget.
    Returns one count vector per branch; ``evaluators`` and ``counts``
    are advanced in place.
    """
    granted = int(counts.sum())
    while True:
        affordable = [np.where(costs <= left + _AFFORD_SLACK)[0] for left in remaining]
        if any(not np.array_equal(affordable[0], other) for other in affordable[1:]):
            copies = [evaluator.copy() for evaluator in evaluators]
            rest = counts.copy()
            return _greedy(evaluators, counts, costs, remaining[:1]) + _greedy(
                copies, rest, costs, remaining[1:]
            )
        if affordable[0].size == 0:
            break
        current = sum(evaluator.value for evaluator in evaluators)
        totals = evaluators[0].values_with_all()
        for evaluator in evaluators[1:]:
            totals = totals + evaluator.values_with_all()
        best_index = -1
        best_rate = -np.inf
        for i in affordable[0]:
            rate = (totals[i] - current) / costs[i]
            if rate > best_rate + EPSILON:
                best_rate = rate
                best_index = int(i)
        if best_index < 0:
            break
        # Even a zero marginal gain consumes budget that cannot improve
        # anything else either, so we stop instead of burning it.
        if best_rate <= EPSILON and granted > 0:
            break
        counts[best_index] += 1
        granted += 1
        remaining = [left - costs[best_index] for left in remaining]
        for evaluator in evaluators:
            evaluator.commit(best_index)
    return [counts] + [counts.copy() for _ in remaining[1:]]


def _evaluators(objectives: list[TargetObjective]) -> list[IncrementalObjective]:
    return [
        IncrementalObjective(o.s_o, o.s_a, o.s_c, weight=o.weight)
        for o in objectives
    ]


def greedy_counts(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
    metrics=None,
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy forward selection of per-attribute question counts.

    Each step scans the affordable attributes in ascending index order
    and grants one question to the best marginal gain per cent; a
    candidate displaces the incumbent only by more than ``EPSILON``.

    Parameters
    ----------
    objectives:
        One pre-assembled objective per query target (shared attribute
        order across all of them).
    costs:
        Cost in cents of one value question per attribute.
    budget_cents:
        The per-object online budget ``B_obj``.
    metrics:
        Optional duck-typed metrics sink
        (:class:`repro.obs.metrics.MetricsRegistry`).  One
        ``allocator.calls`` increment and the total granted question
        count (``allocator.grants``) are recorded *after* the greedy
        loop finishes — never inside it, so instrumentation costs
        nothing per grant and the disabled path is one ``None`` check.
    gains:
        Optional per-attribute reliability gains (aligned with
        ``costs``); see :func:`apply_reliability_gains`.  ``None``
        leaves the objectives untouched.
    """
    if gains is not None:
        objectives = apply_reliability_gains(objectives, gains)
    costs = _validate(objectives, costs)
    (counts,) = _greedy(
        _evaluators(objectives),
        np.zeros(len(costs), dtype=int),
        costs,
        [float(budget_cents)],
    )
    if metrics is not None:
        metrics.inc("allocator.calls")
        metrics.inc("allocator.grants", int(counts.sum()))
    return counts


def greedy_counts_pair(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
    reduced_cents: float,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`greedy_counts` at two budgets, in one pass where they agree.

    Returns the counts of ``greedy_counts(objectives, costs, b)`` for
    ``b = budget_cents`` and ``b = reduced_cents``, equal to the two
    standalone runs array for array: the runs share their grants until
    the first step where the two budgets afford different attributes,
    and part there (see :func:`_greedy`).  The dismantle loss
    (:meth:`repro.core.dismantling.DismantleScorer.loss`) compares the
    value of these two allocations.
    """
    costs = _validate(objectives, costs)
    full, reduced = _greedy(
        _evaluators(objectives),
        np.zeros(len(costs), dtype=int),
        costs,
        [float(budget_cents), float(reduced_cents)],
    )
    return full, reduced


def find_budget_distribution(
    objectives: list[TargetObjective],
    attributes: list[str],
    costs: np.ndarray,
    budget_cents: float,
    metrics=None,
    gains: np.ndarray | None = None,
) -> BudgetDistribution:
    """Greedy budget distribution as a named :class:`BudgetDistribution`."""
    counts = greedy_counts(
        objectives,
        np.asarray(costs, dtype=float),
        budget_cents,
        metrics=metrics,
        gains=gains,
    )
    return BudgetDistribution(
        {attribute: int(count) for attribute, count in zip(attributes, counts)}
    )
