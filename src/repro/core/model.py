"""Core value objects: queries, budget distributions, formulas, plans.

These are the inputs and outputs of the preprocessing phase.  A
:class:`Query` names the target attributes and their error weights; the
planner returns a :class:`PreprocessingPlan` bundling the discovered
attribute set, the online :class:`BudgetDistribution` ``b`` and one
:class:`EstimationFormula` ``l`` per target — exactly the ``(l, b)``
pair Algorithm 1 outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crowd.faults import ResilienceReport
from repro.data.query import ParsedQuery
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Query:
    """A crowd query: target attributes plus error weights.

    The paper's default weighting (Section 5.1) is
    ``w_t = 1 / Var(O.a_t)``, which normalizes all target errors to a
    comparable standard-deviation scale; weights here are free-form and
    default to 1.
    """

    targets: tuple[str, ...]
    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.targets:
            raise ConfigurationError("a query needs at least one target attribute")
        if len(set(self.targets)) != len(self.targets):
            raise ConfigurationError("duplicate target attribute in query")
        for target, weight in self.weights.items():
            if target not in self.targets:
                raise ConfigurationError(
                    f"weight given for non-target attribute {target!r}"
                )
            if weight <= 0:
                raise ConfigurationError(f"weight for {target!r} must be positive")

    def weight(self, target: str) -> float:
        """Error weight of one target (1.0 unless specified)."""
        if target not in self.targets:
            raise ConfigurationError(f"{target!r} is not a target of this query")
        return self.weights.get(target, 1.0)

    @classmethod
    def from_parsed(cls, parsed: ParsedQuery, weights: dict[str, float] | None = None) -> "Query":
        """Build a query from a parsed SELECT statement.

        ``A(Q)`` is the union of SELECT and WHERE attributes, with
        SELECT order first (matching the paper's definition).
        """
        targets = list(parsed.select)
        for attribute in parsed.predicates:
            if attribute not in targets:
                targets.append(attribute)
        return cls(targets=tuple(targets), weights=dict(weights or {}))

    @classmethod
    def single(cls, target: str) -> "Query":
        """Convenience constructor for the Section 3 single-target case."""
        return cls(targets=(target,))


@dataclass(frozen=True)
class BudgetDistribution:
    """The function ``b``: how many value questions to ask per attribute.

    ``counts`` omits zero entries.  ``cost(prices)`` gives the per-object
    online cost in cents given per-attribute question prices.
    """

    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for attribute, count in self.counts.items():
            if count < 0:
                raise ConfigurationError(
                    f"negative question count for {attribute!r}: {count}"
                )
        # Normalize away zero entries so equality and iteration are canonical.
        object.__setattr__(
            self,
            "counts",
            {attribute: count for attribute, count in self.counts.items() if count > 0},
        )

    def __getitem__(self, attribute: str) -> int:
        return self.counts.get(attribute, 0)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes receiving at least one question."""
        return tuple(self.counts)

    @property
    def total_questions(self) -> int:
        """Total value questions per object (the paper's ``sum b(a)``)."""
        return sum(self.counts.values())

    def cost(self, price_of: dict[str, float]) -> float:
        """Per-object cost in cents under per-attribute question prices."""
        return sum(count * price_of[attribute] for attribute, count in self.counts.items())

    def with_question(self, attribute: str) -> "BudgetDistribution":
        """A copy with one more question on ``attribute``."""
        counts = dict(self.counts)
        counts[attribute] = counts.get(attribute, 0) + 1
        return BudgetDistribution(counts)


@dataclass(frozen=True)
class EstimationFormula:
    """A linear estimator for one target attribute.

    Encodes the paper's formula
    ``o.a_t^(*) = intercept + sum_a coefficients[a] * o.a^(b(a))``,
    where ``o.a^(n)`` is the average of ``n`` crowd answers.  The online
    evaluator (:meth:`~repro.core.online.OnlineEvaluator.estimate_objects`)
    applies it to many objects at once.
    """

    target: str
    coefficients: dict[str, float]
    intercept: float
    budget: BudgetDistribution

    def __str__(self) -> str:
        terms = [
            f"{coefficient:+.3g}*{attribute}^({self.budget[attribute]})"
            for attribute, coefficient in self.coefficients.items()
        ]
        terms.append(f"{self.intercept:+.3g}")
        body = " ".join(terms)
        return f"{self.target}^(*) = {body}"


@dataclass(frozen=True)
class PreprocessingPlan:
    """Everything the offline phase hands to the online phase.

    Attributes
    ----------
    query:
        The query this plan serves.
    attributes:
        The final discovered attribute set ``A_final`` in discovery order.
    budget:
        The online budget distribution ``b``.
    formulas:
        One linear estimation formula per target attribute.
    dismantle_rounds:
        Number of dismantling questions asked during preprocessing.
    preprocessing_cost:
        Total offline spend in cents.
    discovery_log:
        ``(asked_attribute, raw_answer, accepted)`` per dismantling
        round, for diagnostics and the Table 4 experiment.
    resilience:
        What the resilience layer absorbed while building this plan —
        retries, abandons, quarantined workers and any degradation
        events (``None`` for planners predating the fault layer).
    """

    query: Query
    attributes: tuple[str, ...]
    budget: BudgetDistribution
    formulas: dict[str, EstimationFormula]
    dismantle_rounds: int = 0
    preprocessing_cost: float = 0.0
    discovery_log: tuple[tuple[str, str, bool], ...] = ()
    resilience: ResilienceReport | None = None

    @property
    def degraded(self) -> bool:
        """Whether the plan had to give something up to be produced."""
        return self.resilience is not None and self.resilience.degraded

    def formula(self, target: str) -> EstimationFormula:
        """The estimation formula for one target."""
        if target not in self.formulas:
            raise ConfigurationError(f"plan has no formula for target {target!r}")
        return self.formulas[target]

    def describe(self) -> str:
        """Multi-line human-readable summary (formulas + budget)."""
        lines = [
            f"plan for targets {', '.join(self.query.targets)}",
            f"  attributes discovered: {', '.join(self.attributes)}",
            f"  online questions/object: {self.budget.total_questions}",
            f"  dismantling rounds: {self.dismantle_rounds}",
            f"  preprocessing spend: {self.preprocessing_cost / 100.0:.2f}$",
        ]
        lines.extend(f"  {self.formulas[target]}" for target in self.query.targets)
        if self.resilience is not None and self.resilience.degradations:
            lines.append("  degradations:")
            lines.extend(
                f"    - {event}" for event in self.resilience.degradations
            )
        return "\n".join(lines)
