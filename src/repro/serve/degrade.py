"""Deadline- and shortfall-aware graceful degradation for serving.

When the serving engine cannot deliver a query's full contract — the
deadline expired mid-evaluation, the budget could not fund a purchase
wave, or the crowd's retry budget lost answers — it refuses to shed the
query.  It returns whatever it *can* compute, annotated with a
:class:`DegradedResult`: widened confidence intervals, the per-term
answer shortfall, and an honest completeness/confidence figure.  This
is the posture of Selke et al.'s query-driven schema expansion (serve a
degraded answer now rather than fail) combined with Trushkowsky et
al.'s completeness estimation (report how much of the answer you
actually have).

The degradation ladder (DESIGN.md §13), in reason-precedence order:

``deadline``
    Evaluation was cut off; the evaluated prefix is returned.
``budget``
    A purchase wave could not be funded; estimates use fewer answers
    per term (possibly none — the term drops out of the formula).
``faults``
    Retries were exhausted on some answers; same estimator effect as
    ``budget``, but the money was available — the crowd was not.

Interval widening: a term ``c_a · mean(a)`` with ``n`` of ``m``
demanded answers contributes ``c_a² · s²_a / n`` to the estimate's
variance (population variance ``s²_a``; for ``n = 0`` a range-based
prior ``(span/4)²`` stands in).  The half-width is
``z · sqrt(Σ terms)`` inflated by ``sqrt(m_total / n_total)`` so a
half-served query honestly reports roughly ``sqrt(2)``-wider
intervals.  The inflation is a heuristic annotation, not a calibrated
coverage guarantee — it exists so downstream consumers can *rank*
degraded answers by trustworthiness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Normal z-score of the nominal two-sided 95% interval.
Z_CONFIDENCE = 1.96

#: Nominal coverage the intervals target at full evidence.
NOMINAL_CONFIDENCE = 0.95

#: Degradation reasons, in reporting-precedence order.
DEGRADE_REASONS = ("deadline", "budget", "faults")


@dataclass(frozen=True)
class TermShortfall:
    """One ``(object, attribute)`` term that got fewer answers than planned.

    ``effective`` (optional) is the Kish effective sample size of the
    served answers under reliability weighting — strictly less than
    ``served`` when weights are unequal, so a term served entirely by
    down-weighted workers is reported as thinner evidence than its raw
    answer count suggests.  ``None`` (uniform aggregation) keeps the
    historical serialized shape.
    """

    object_id: int
    attribute: str
    demanded: int
    served: int
    effective: float | None = None

    def to_dict(self) -> dict:
        payload = {
            "object_id": self.object_id,
            "attribute": self.attribute,
            "demanded": self.demanded,
            "served": self.served,
        }
        if self.effective is not None:
            payload["effective"] = self.effective
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TermShortfall":
        effective = payload.get("effective")
        return cls(
            object_id=int(payload["object_id"]),
            attribute=str(payload["attribute"]),
            demanded=int(payload["demanded"]),
            served=int(payload["served"]),
            effective=None if effective is None else float(effective),
        )


@dataclass
class DegradedResult:
    """The degradation annotation attached to a degraded query result.

    Attributes
    ----------
    reason:
        The primary degradation reason (first of :data:`DEGRADE_REASONS`
        that applies).
    reasons:
        Every reason that applied, in precedence order.
    completeness:
        Fraction of the query's contract that was delivered:
        ``(objects evaluated / objects requested) × (answers served /
        answers demanded over the evaluated objects)``.  1.0 means the
        only thing degraded was timing.
    confidence:
        Nominal interval coverage scaled by the evidence fraction —
        ``0.95`` at full evidence, lower when answers are missing.
    answers_demanded / answers_served:
        Answer counts over the evaluated objects.
    objects_requested / objects_evaluated:
        Object counts (differ only under ``deadline``).
    shortfalls:
        Per-term deficits, sorted by ``(object_id, attribute)``.
    intervals:
        ``target -> [[lo, hi], ...]`` aligned with the result's
        ``object_ids``: widened 95%-style intervals around each
        estimate.
    """

    reason: str
    reasons: tuple[str, ...]
    completeness: float
    confidence: float
    answers_demanded: int = 0
    answers_served: int = 0
    objects_requested: int = 0
    objects_evaluated: int = 0
    shortfalls: list[TermShortfall] = field(default_factory=list)
    intervals: dict[str, list[list[float]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "reasons": list(self.reasons),
            "completeness": self.completeness,
            "confidence": self.confidence,
            "answers_demanded": self.answers_demanded,
            "answers_served": self.answers_served,
            "objects_requested": self.objects_requested,
            "objects_evaluated": self.objects_evaluated,
            "shortfalls": [shortfall.to_dict() for shortfall in self.shortfalls],
            "intervals": {
                target: [list(bounds) for bounds in rows]
                for target, rows in self.intervals.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DegradedResult":
        return cls(
            reason=str(payload["reason"]),
            reasons=tuple(str(reason) for reason in payload.get("reasons", ())),
            completeness=float(payload["completeness"]),
            confidence=float(payload["confidence"]),
            answers_demanded=int(payload.get("answers_demanded", 0)),
            answers_served=int(payload.get("answers_served", 0)),
            objects_requested=int(payload.get("objects_requested", 0)),
            objects_evaluated=int(payload.get("objects_evaluated", 0)),
            shortfalls=[
                TermShortfall.from_dict(entry)
                for entry in payload.get("shortfalls", [])
            ],
            intervals={
                str(target): [[float(bounds[0]), float(bounds[1])] for bounds in rows]
                for target, rows in payload.get("intervals", {}).items()
            },
        )


def order_reasons(reasons: set[str]) -> tuple[str, ...]:
    """Sort a reason set into :data:`DEGRADE_REASONS` precedence order."""
    return tuple(reason for reason in DEGRADE_REASONS if reason in reasons)


def population_variance(values) -> float:
    """Population (``ddof=0``) variance of a non-empty sample.

    Accepts any float sequence (list or ndarray); the left-fold sums
    keep the result byte-stable across both.
    """
    n = len(values)
    mean = sum(values) / n
    return sum((value - mean) ** 2 for value in values) / n


def widened_interval(
    estimate: float,
    terms: list,
) -> list[float]:
    """A shortfall-inflated 95%-style interval around one estimate.

    ``terms`` holds ``(coefficient, answers, demanded, prior_variance)``
    per formula term (``answers`` a float sequence — the cache now
    hands out ndarrays); ``prior_variance`` stands in for the sample
    variance of a term that got *zero* answers (a range-based bound),
    so empty terms widen the interval instead of silently vanishing
    from it.  A term may carry a fifth element — the Kish effective
    sample size of its answers under reliability weighting — which then
    replaces the raw answer count as the variance divisor: evidence
    concentrated on down-weighted workers honestly reports a wider
    interval than its answer count alone would suggest.
    """
    variance = 0.0
    demanded_total = 0
    served_total = 0
    for term in terms:
        coefficient, answers, demanded, prior_variance = term[:4]
        effective = term[4] if len(term) > 4 and term[4] is not None else None
        demanded_total += demanded
        served_total += len(answers)
        if not demanded:
            continue
        if len(answers):
            divisor = effective if effective and effective > 0 else len(answers)
            variance += coefficient**2 * population_variance(answers) / divisor
        else:
            variance += coefficient**2 * prior_variance
    half_width = Z_CONFIDENCE * math.sqrt(variance)
    if served_total < demanded_total and served_total > 0:
        half_width *= math.sqrt(demanded_total / served_total)
    return [estimate - half_width, estimate + half_width]


def evidence_confidence(answers_served: int, answers_demanded: int) -> float:
    """Nominal coverage scaled by the fraction of evidence present."""
    if answers_demanded <= 0:
        return NOMINAL_CONFIDENCE
    return NOMINAL_CONFIDENCE * (answers_served / answers_demanded)
