"""Preprocessing budget management (Section 3.2.3).

The offline budget ``B_prc`` pays for three things:

1. ``n`` dismantling rounds (dismantle + verification questions, plus
   ``k * N_1`` value questions per accepted new attribute and paired
   pool);
2. the statistics collection itself;
3. a training set of ``N_2 = 50 + 8 * |A|`` examples per target for the
   regression, each costing an example question plus up to ``B_obj``
   cents of value questions (minus the reuse of the ``k`` statistics
   answers on the first ``N_1`` examples).

``N_1`` and ``k`` are external parameters, so the only tradeoff is
``n`` versus ``N_2``: every extra dismantling round grows ``|A|`` and
therefore the training set that must still be affordable afterwards.
``CollectingAttributesCondition`` (line 2 of Algorithm 1) is exactly
the check that the *projected* cost of stopping after one more round
still fits in the remaining budget.

This coupling is what produces the paper's Protein anomaly: at a fixed
``B_prc``, a larger ``B_obj`` inflates the projected training cost,
stops dismantling earlier, shrinks ``A_final`` and can *increase* the
final error.
"""

from __future__ import annotations

from repro.crowd.pricing import Budget, PriceSchedule
from repro.core.regression import recommended_training_size
from repro.errors import ConfigurationError


class PreprocessingBudgetManager:
    """Implements ``CollectingAttributesCondition`` for the planner.

    Parameters
    ----------
    budget:
        The live preprocessing budget (shared with the platform).
    prices:
        The platform's price schedule.
    b_obj_cents:
        The online per-object budget (drives the training-cost
        projection).
    n1:
        Number of statistics examples per target pool.
    k:
        Statistics answers per example.
    n_targets:
        Number of query targets (= number of example pools).
    expected_verification_votes:
        Expected SPRT votes per dismantling round.
    average_value_price:
        Price assumed for value questions about not-yet-seen attributes
        (numeric price is the conservative choice).
    """

    def __init__(
        self,
        budget: Budget,
        prices: PriceSchedule,
        b_obj_cents: float,
        n1: int,
        k: int,
        n_targets: int,
        expected_verification_votes: float = 6.0,
        average_value_price: float | None = None,
    ) -> None:
        if n1 < 2:
            raise ConfigurationError(f"need at least 2 examples per pool, got {n1}")
        if n_targets < 1:
            raise ConfigurationError("need at least one target")
        self.budget = budget
        self.prices = prices
        self.b_obj_cents = float(b_obj_cents)
        self.n1 = n1
        self.k = k
        self.n_targets = n_targets
        self.expected_verification_votes = expected_verification_votes
        self.average_value_price = (
            prices.numeric_value if average_value_price is None else average_value_price
        )

    # ------------------------------------------------------------------
    # Cost projections
    # ------------------------------------------------------------------

    def training_cost_estimate(self, n_attributes: int) -> float:
        """Projected cents to collect the regression training set.

        Assumes the eventual budget distribution spends the full
        ``B_obj`` per example (the greedy allocator stops only when the
        budget cannot buy another question, so this is tight), and that
        the ``k`` statistics answers on the first ``N_1`` examples are
        reused as in the paper.
        """
        n2 = recommended_training_size(n_attributes)
        extra_examples = max(0, n2 - self.n1)
        per_pool_examples = extra_examples * self.prices.example
        per_pool_fresh_values = extra_examples * self.b_obj_cents
        reuse_discount = self.k * n_attributes * self.average_value_price
        per_pool_reused_values = self.n1 * max(
            0.0, self.b_obj_cents - reuse_discount
        )
        per_pool = per_pool_examples + per_pool_fresh_values + per_pool_reused_values
        return self.n_targets * per_pool

    def next_round_cost(self, expected_pools: float = 1.0) -> float:
        """Projected cents for one more dismantling round.

        Covers the dismantling question, the expected verification
        votes, and — if the answer is new and accepted — the ``k * N_1``
        statistics value questions on each paired pool.
        """
        verification = self.expected_verification_votes * self.prices.verification
        statistics = (
            expected_pools * self.k * self.n1 * self.average_value_price
        )
        return self.prices.dismantle + verification + statistics

    # ------------------------------------------------------------------
    # The stopping condition
    # ------------------------------------------------------------------

    def should_continue(
        self, n_attributes: int, expected_pools: float = 1.0
    ) -> bool:
        """``CollectingAttributesCondition``: is one more round affordable?

        One more round may grow the attribute set to ``n_attributes+1``;
        continuing is allowed only if, after paying for the round, the
        projected training cost of the *grown* set still fits.
        """
        committed = self.next_round_cost(expected_pools)
        committed += self.training_cost_estimate(n_attributes + 1)
        return self.budget.remaining >= committed
