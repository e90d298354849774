"""Crowd task pricing, budgets and cost accounting (paper Section 5.1).

The paper's price schedule, in US cents per answer:

========================  =====
binary value question      0.1
numeric value question     0.4
dismantling question       1.5
verification question      0.1
example question           5.0
========================  =====

(The paper prices dismantling/example questions explicitly and treats a
verification question as a cheap binary task; we follow that.)

:class:`Budget` enforces a hard ceiling and raises
:class:`~repro.errors.BudgetExhaustedError` when a task cannot be
afforded, which is how both the preprocessing loop and the online phase
learn that they must stop.  :class:`CostLedger` records per-category
spending so experiments can report where the budget went.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import BudgetExhaustedError, ConfigurationError

#: Question categories known to the ledger, in reporting order.
CATEGORIES = ("value", "dismantle", "verification", "example")


@dataclass(frozen=True)
class PriceSchedule:
    """Cost in cents of each crowd question category.

    Value questions are priced per the attribute's answer type: binary
    attributes (yes/no style, values in ``[0, 1]``) are cheaper than
    general numeric ones, exactly as in the paper.
    """

    binary_value: float = 0.1
    numeric_value: float = 0.4
    dismantle: float = 1.5
    verification: float = 0.1
    example: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "binary_value",
            "numeric_value",
            "dismantle",
            "verification",
            "example",
        ):
            price = getattr(self, name)
            if price < 0 or not math.isfinite(price):
                raise ConfigurationError(
                    f"price {name}={price!r} must be a non-negative finite number"
                )

    def value_price(self, binary: bool) -> float:
        """Price of one value question for a binary or numeric attribute."""
        return self.binary_value if binary else self.numeric_value

    def scaled(self, factor: float) -> "PriceSchedule":
        """Return a schedule with every price multiplied by ``factor``.

        Used by the Section 5.4 pricing-robustness experiment.
        """
        if factor <= 0:
            raise ConfigurationError(f"price scale factor must be positive: {factor}")
        return PriceSchedule(
            binary_value=self.binary_value * factor,
            numeric_value=self.numeric_value * factor,
            dismantle=self.dismantle * factor,
            verification=self.verification * factor,
            example=self.example * factor,
        )


@dataclass
class CostLedger:
    """Running record of crowd spending, split by question category.

    Besides paid answers, the ledger counts *unpaid* operational events
    from the resilience layer: retried attempts (a worker timed out or
    answered garbage, another was asked) and abandonments.  Retries and
    abandons cost nothing — real platforms do not pay for rejected or
    expired assignments — but their counts are what fault-rate sweeps
    and :class:`~repro.crowd.faults.ResilienceReport` report.
    """

    spent_by_category: dict[str, float] = field(
        default_factory=lambda: {category: 0.0 for category in CATEGORIES}
    )
    questions_by_category: dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in CATEGORIES}
    )
    retries_by_category: dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in CATEGORIES}
    )
    abandons_by_category: dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in CATEGORIES}
    )
    saved_by_category: dict[str, float] = field(
        default_factory=lambda: {category: 0.0 for category in CATEGORIES}
    )
    saved_answers_by_category: dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in CATEGORIES}
    )
    #: Optional duck-typed observability sink (a
    #: :class:`repro.obs.metrics.MetricsRegistry`).  Every entry the
    #: ledger records is mirrored into ``crowd.*`` counters, which is
    #: what makes run manifests and the ledger agree by construction.
    #: ``None`` (the default) keeps the uninstrumented path to a single
    #: identity check.
    metrics: object | None = field(default=None, repr=False, compare=False)

    @property
    def total_spent(self) -> float:
        """Total cents spent so far across all categories."""
        return sum(self.spent_by_category.values())

    @property
    def total_questions(self) -> int:
        """Total number of crowd answers paid for so far."""
        return sum(self.questions_by_category.values())

    def record(self, category: str, cost: float, count: int = 1) -> None:
        """Record ``count`` answers of ``category`` costing ``cost`` in total."""
        if category not in self.spent_by_category:
            raise ConfigurationError(f"unknown ledger category: {category!r}")
        if cost < 0 or count < 0:
            raise ConfigurationError("ledger entries must be non-negative")
        self.spent_by_category[category] += cost
        self.questions_by_category[category] += count
        if self.metrics is not None:
            self.metrics.inc(f"crowd.spend.{category}", cost)
            self.metrics.inc(f"crowd.questions.{category}", count)

    @property
    def total_retries(self) -> int:
        """Total retried attempts recorded across all categories."""
        return sum(self.retries_by_category.values())

    @property
    def total_abandons(self) -> int:
        """Total worker abandonments recorded across all categories."""
        return sum(self.abandons_by_category.values())

    def record_retry(self, category: str, count: int = 1) -> None:
        """Record ``count`` retried (unpaid) attempts of ``category``."""
        if category not in self.retries_by_category:
            raise ConfigurationError(f"unknown ledger category: {category!r}")
        if count < 0:
            raise ConfigurationError("ledger entries must be non-negative")
        self.retries_by_category[category] += count
        if self.metrics is not None:
            self.metrics.inc(f"crowd.retries.{category}", count)

    @property
    def total_saved(self) -> float:
        """Cents *not* spent thanks to answer reuse (cache hits)."""
        return sum(self.saved_by_category.values())

    @property
    def total_saved_answers(self) -> int:
        """Answers served from a cache instead of being re-purchased."""
        return sum(self.saved_answers_by_category.values())

    def record_saving(self, category: str, cost: float, count: int = 1) -> None:
        """Record ``count`` cache-served answers worth ``cost`` cents.

        Savings are what the serving engine's answer cache avoided
        re-purchasing; they never touch the spend counters, so
        ``total_spent`` stays the money that actually left the budget.
        """
        if category not in self.saved_by_category:
            raise ConfigurationError(f"unknown ledger category: {category!r}")
        if cost < 0 or count < 0:
            raise ConfigurationError("ledger entries must be non-negative")
        self.saved_by_category[category] += cost
        self.saved_answers_by_category[category] += count
        if self.metrics is not None:
            self.metrics.inc(f"crowd.saved.{category}", cost)
            self.metrics.inc(f"crowd.saved_answers.{category}", count)

    def record_savings(
        self, category: str, entries: Sequence[tuple[float, int]]
    ) -> None:
        """Record many ``(cost, count)`` savings, in order, in one call.

        Equal, bit for bit, to one :meth:`record_saving` per entry: the
        costs are added to the running total (and, under one registry
        lock, to the metrics counter) one by one, because a sum taken
        first rounds differently.  Every entry is checked before
        anything is recorded, so a bad entry leaves the ledger
        unchanged.
        """
        if category not in self.saved_by_category:
            raise ConfigurationError(f"unknown ledger category: {category!r}")
        if any(cost < 0 or count < 0 for cost, count in entries):
            raise ConfigurationError("ledger entries must be non-negative")
        if not entries:
            return
        saved = self.saved_by_category[category]
        for cost, _ in entries:
            saved += cost
        self.saved_by_category[category] = saved
        answers = sum(count for _, count in entries)
        self.saved_answers_by_category[category] += answers
        if self.metrics is not None:
            self.metrics.inc_each(
                f"crowd.saved.{category}", [cost for cost, _ in entries]
            )
            self.metrics.inc(f"crowd.saved_answers.{category}", answers)

    def record_abandon(self, category: str, count: int = 1) -> None:
        """Record ``count`` abandoned (unpaid) assignments of ``category``."""
        if category not in self.abandons_by_category:
            raise ConfigurationError(f"unknown ledger category: {category!r}")
        if count < 0:
            raise ConfigurationError("ledger entries must be non-negative")
        self.abandons_by_category[category] += count
        if self.metrics is not None:
            self.metrics.inc(f"crowd.abandons.{category}", count)

    def snapshot(self) -> dict[str, dict]:
        """JSON-serialisable copy of the full ledger state.

        Used by the planner's checkpoints and the serve log's commit
        records; restore with :meth:`restore`.  For before/after spend
        diffs, read ``snapshot()["spent_by_category"]``.
        """
        return {
            "spent_by_category": dict(self.spent_by_category),
            "questions_by_category": dict(self.questions_by_category),
            "retries_by_category": dict(self.retries_by_category),
            "abandons_by_category": dict(self.abandons_by_category),
            "saved_by_category": dict(self.saved_by_category),
            "saved_answers_by_category": dict(self.saved_answers_by_category),
        }

    def restore(self, payload: dict) -> None:
        """Replace all counters with a :meth:`snapshot` payload (in place).

        The metrics sink does not see restored entries: it observed
        them when they were first recorded (a resumed planner merges
        the checkpointed metrics instead).
        """
        self.spent_by_category = {
            str(k): float(v) for k, v in payload["spent_by_category"].items()
        }
        self.questions_by_category = {
            str(k): int(v) for k, v in payload["questions_by_category"].items()
        }
        self.retries_by_category = {
            str(k): int(v) for k, v in payload["retries_by_category"].items()
        }
        self.abandons_by_category = {
            str(k): int(v) for k, v in payload["abandons_by_category"].items()
        }
        # Older snapshots (pre-serving-engine) carry no savings section.
        self.saved_by_category = {
            str(k): float(v)
            for k, v in payload.get(
                "saved_by_category", {category: 0.0 for category in CATEGORIES}
            ).items()
        }
        self.saved_answers_by_category = {
            str(k): int(v)
            for k, v in payload.get(
                "saved_answers_by_category",
                {category: 0 for category in CATEGORIES},
            ).items()
        }


class Budget:
    """A hard spending ceiling, in cents.

    ``charge`` debits the budget and raises
    :class:`~repro.errors.BudgetExhaustedError` if the cost cannot be
    covered; ``can_afford`` lets planners probe without spending.
    """

    def __init__(self, total_cents: float) -> None:
        if total_cents < 0 or not math.isfinite(total_cents):
            raise ConfigurationError(
                f"budget must be a non-negative finite number, got {total_cents!r}"
            )
        self._total = float(total_cents)
        self._spent = 0.0

    @property
    def total(self) -> float:
        """The initial allocation, in cents."""
        return self._total

    @property
    def spent(self) -> float:
        """Cents spent so far."""
        return self._spent

    @property
    def remaining(self) -> float:
        """Cents still available."""
        return self._total - self._spent

    def can_afford(self, cost: float) -> bool:
        """True if ``cost`` cents can be charged without overdraft.

        A tiny epsilon absorbs floating-point accumulation error so a
        budget of exactly ``n`` questions is not rejected on the last one.
        """
        return cost <= self.remaining + 1e-9

    def charge(self, cost: float) -> None:
        """Debit ``cost`` cents, raising if the budget cannot cover it."""
        if cost < 0:
            raise ConfigurationError(f"cannot charge a negative cost: {cost}")
        if not self.can_afford(cost):
            raise BudgetExhaustedError(requested=cost, remaining=self.remaining)
        self._spent += cost

    def restore_spent(self, spent: float) -> None:
        """Reset the spent amount to a checkpointed value."""
        spent = float(spent)
        if not math.isfinite(spent) or spent < 0 or spent > self._total + 1e-9:
            raise ConfigurationError(
                f"checkpointed spend {spent!r} is outside budget "
                f"[0, {self._total}]"
            )
        self._spent = spent

    def __repr__(self) -> str:
        return f"Budget(total={self._total:.2f}c, remaining={self.remaining:.2f}c)"
