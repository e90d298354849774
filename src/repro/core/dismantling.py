"""Choosing the next attribute to dismantle (Section 3.2.1, expr. 4-9).

The planner cannot know what attribute a dismantling question will
return, so it scores each *already known* attribute ``a_j`` by the
expected improvement of the downstream objective if ``a_j`` were
dismantled next:

``score(a_j) = Pr(new | a_j) * [ G(a_j) - L(A_{m-1}, B_obj, 1) ]``

* ``Pr(new | a_j) = (n_j + 1) / (n_j^2 + 3 n_j + 2)`` — a
  Bernoulli-Bayes estimate of getting a *not yet seen* answer after
  ``n_j`` previous dismantling questions about ``a_j`` (expression 4);
* ``G(a_j) = rho^2 * S_o[a_j]^2 / sigma(a_j)^2`` — the optimistic gain
  of the unseen answer, under the paper's priors: the answer correlates
  with ``a_j`` at ``E[rho] ~ 0.5``, has negligible worker noise
  (``S_c ~ 0``) and no correlation with existing attributes
  (expressions 5-7);
* ``L`` — the value lost by moving one online question away from the
  current attribute set (computed with the greedy budget solver).

For multiple query targets (expression 9) the gains are summed with the
query's error weights; ``L`` is computed once on the weighted joint
objective.
"""

from __future__ import annotations

import numpy as np

from repro.core import budget
from repro.core.budget import TargetObjective, total_value
from repro.core.statistics import SoFill, StatisticsStore
from repro.errors import ConfigurationError


def probability_of_new_answer(n_asked: int) -> float:
    """Expression 4: chance the next dismantling answer is new.

    Algebraically equals ``1 / (n_asked + 2)``; we keep the paper's
    published form.
    """
    if n_asked < 0:
        raise ConfigurationError(f"question count cannot be negative: {n_asked}")
    return (n_asked + 1) / (n_asked**2 + 3 * n_asked + 2)


def ranking_key(
    probability_new: float, gain: float, loss: float
) -> tuple[int, float]:
    """Selection key of expression 8/9, robust to all-negative scores.

    When ``G - L < 0`` for every candidate, maximizing ``Pr * (G - L)``
    degenerates into preferring the *smallest* ``Pr(new)`` — i.e.
    endlessly re-asking the most exhausted attribute.  Since a
    discovered attribute never forces the budget allocator to use it
    (``b(a) = 0`` is always available), the pessimistic loss is not
    actually realized; among negative-score candidates we therefore
    rank by expected information ``Pr * G`` instead.  The planner's
    dismantle loop ranks its candidates with this key.
    """
    score = probability_new * (gain - loss)
    if score > 0:
        return (1, score)
    return (0, probability_new * gain)


class DismantleScorer:
    """Scores dismantle candidates against the current statistics.

    Parameters
    ----------
    rho_constant:
        The paper's ``E[rho(a_j, ans_j)] ~ 0.5`` prior on how strongly
        a dismantling answer correlates with the attribute it came
        from.  Section 5.4 shows results are robust to this constant.
    """

    def __init__(self, rho_constant: float = 0.5) -> None:
        if not 0.0 < rho_constant <= 1.0:
            raise ConfigurationError(
                f"rho_constant must be in (0, 1], got {rho_constant}"
            )
        self.rho_constant = rho_constant

    # ------------------------------------------------------------------

    def gain(
        self,
        stats: StatisticsStore,
        target: str,
        attribute: str,
        s_o_fill: SoFill | None = None,
    ) -> float:
        """``G(a_t, a_j)``: optimistic value of the unseen answer.

        Uses the (shrunk) measured ``S_o[t, a_j]`` when available,
        otherwise the supplied estimator (graph completion in full DisQ).
        """
        s_o = stats.s_o_shrunk(target, attribute)
        if s_o is None and s_o_fill is not None:
            s_o = s_o_fill(stats, target, attribute)
        if s_o is None or s_o == 0.0:
            return 0.0
        return (self.rho_constant**2) * (s_o**2) / stats.answer_variance(attribute)

    @staticmethod
    def loss(
        objectives: list[TargetObjective],
        costs: np.ndarray,
        budget_cents: float,
        unit_cost: float,
    ) -> float:
        """``L(A, u, v)``: value lost by freeing one question's budget.

        With heterogeneous prices "one question" is ``unit_cost`` cents
        (the price of the question the new attribute would receive).
        Both ``max_b`` terms come from one greedy pass
        (:func:`repro.core.budget.greedy_counts_pair`), each valued by
        the closed-form objective on its counts.
        """
        if not objectives or len(costs) == 0:
            return 0.0
        # Looked up on the module, so a test or tracer can wrap it.
        full, reduced = budget.greedy_counts_pair(
            objectives, costs, budget_cents, max(budget_cents - unit_cost, 0.0)
        )
        return max(
            total_value(objectives, full) - total_value(objectives, reduced), 0.0
        )
