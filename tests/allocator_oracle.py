"""The naive greedy budget allocator, the oracle of ``greedy_counts``.

:func:`greedy_counts_reference` is the allocator's contract written the
slow, obvious way: at every grant step each affordable candidate is
scored by a fresh ``O(k^3)`` solve of the objective with one more
question, in ascending index order, and displaces the incumbent only
by more than ``EPSILON``.  :func:`repro.core.budget.greedy_counts`
must select identical counts on every instance (unit, property and
end-to-end tests; ``benchmarks/bench_perf.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import (
    _AFFORD_SLACK,
    EPSILON,
    TargetObjective,
    _total_value,
    _validate,
    apply_reliability_gains,
)


def greedy_counts_reference(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
) -> np.ndarray:
    """The naive greedy loop."""
    costs = _validate(objectives, costs)
    n = len(costs)
    counts = np.zeros(n, dtype=int)
    remaining = float(budget_cents)
    current = _total_value(objectives, counts)
    while True:
        affordable = np.where(costs <= remaining + _AFFORD_SLACK)[0]
        if affordable.size == 0:
            break
        best_index = -1
        best_rate = -np.inf
        best_value = current
        for i in affordable:
            trial = counts.copy()
            trial[i] += 1
            value = _total_value(objectives, trial)
            rate = (value - current) / costs[i]
            if rate > best_rate + EPSILON:
                best_rate = rate
                best_index = int(i)
                best_value = value
        if best_index < 0:
            break
        # Even a zero marginal gain consumes budget that cannot improve
        # anything else either, so we stop instead of burning it.
        if best_rate <= EPSILON and counts.sum() > 0:
            break
        counts[best_index] += 1
        remaining -= costs[best_index]
        current = best_value
    return counts


def greedy_counts_oracle(
    objectives: list[TargetObjective],
    costs: np.ndarray,
    budget_cents: float,
    metrics=None,
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Drop-in for :func:`repro.core.budget.greedy_counts` over the oracle.

    Monkeypatch it over ``repro.core.budget.greedy_counts`` to drive a
    whole planner through the naive loop.
    """
    if gains is not None:
        objectives = apply_reliability_gains(objectives, gains)
    counts = greedy_counts_reference(objectives, costs, budget_cents)
    if metrics is not None:
        metrics.inc("allocator.calls")
        metrics.inc("allocator.grants", int(counts.sum()))
    return counts
