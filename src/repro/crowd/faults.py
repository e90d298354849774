"""Operational fault injection and resilience primitives.

The paper's Section 5.4 robustness study perturbs *statistical*
assumptions (attribute quality, normalization, rho, pricing); a
deployed crowd system must additionally survive *operational* faults —
workers who time out, abandon a task, or return malformed answers
(NaN, out-of-range, wrong type), all after an unpredictable latency.
Related systems treat non-response and task latency as first-class
(Trushkowsky et al., "Getting It All from the Crowd"; the T-Crowd
model of unreliable tabular answers); this module is our equivalent.

Components:

* :class:`FaultProfile` / :class:`FaultRates` — declarative per
  question-category fault probabilities.  ``FaultProfile.none()`` is
  the exact no-op: the platform skips the entire fault machinery, so
  disabled runs stay byte-identical to the fault-free code path.
* :class:`FaultInjector` — draws fault outcomes from a profile with a
  private RNG (seeded independently of the answer streams, so enabling
  faults never perturbs the recorded answers themselves).
* :class:`RetryPolicy` — bounded retries with exponential backoff,
  jitter and a per-question timeout, all on a :class:`SimulatedClock`.
* :class:`ResilienceReport` — what actually happened: retries,
  abandons, quarantined workers, and any plan degradation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: Question categories faults can be configured for (ledger categories).
FAULT_CATEGORIES = ("value", "dismantle", "verification", "example")


class SimulatedClock:
    """A monotonic simulated clock, advanced by latencies and backoff.

    All resilience timing (worker latency, retry backoff, quarantine
    cooldown) runs on this clock, never on wall time, so experiments
    stay deterministic and instant.
    """

    def __init__(self, start: float = 0.0) -> None:
        if not math.isfinite(start):
            raise ConfigurationError(f"clock start must be finite: {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward (negative advances are configuration bugs).

        NaN and infinity are rejected explicitly: ``nan < 0`` is False,
        so without the finiteness check a NaN advance would silently
        poison the clock and every timing-based decision after it.
        """
        if not math.isfinite(seconds) or seconds < 0:
            raise ConfigurationError(f"cannot advance clock by {seconds!r}")
        self._now += float(seconds)
        return self._now

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the clock."""
        return {"now": self._now}

    def restore_state(self, payload: dict) -> None:
        """Restore the clock from :meth:`state_dict`."""
        now = float(payload["now"])
        if not math.isfinite(now):
            raise ConfigurationError(f"checkpointed clock is not finite: {now!r}")
        self._now = now


class FaultKind(enum.Enum):
    """What went wrong with one worker interaction."""

    OK = "ok"
    TIMEOUT = "timeout"
    ABANDON = "abandon"
    GARBAGE = "garbage"


@dataclass(frozen=True)
class FaultRates:
    """Fault probabilities for one question category.

    Attributes
    ----------
    timeout:
        Probability the worker never responds within the deadline.
    abandon:
        Probability the worker accepts the task but walks away.
    garbage:
        Probability the answer is malformed (NaN / out-of-range /
        wrong type for value questions, an unknown token for
        dismantling answers).
    latency_mean:
        Mean simulated response latency in seconds (exponential).
    """

    timeout: float = 0.0
    abandon: float = 0.0
    garbage: float = 0.0
    latency_mean: float = 0.0

    def __post_init__(self) -> None:
        for name in ("timeout", "abandon", "garbage"):
            rate = getattr(self, name)
            # isfinite first: NaN fails chained comparisons anyway, but
            # the explicit check gives an unambiguous error message.
            if not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {name}={rate!r} must be finite and lie in [0, 1]"
                )
        if self.timeout + self.abandon + self.garbage > 1.0 + 1e-12:
            raise ConfigurationError(
                "timeout + abandon + garbage must not exceed 1"
            )
        if self.latency_mean < 0 or not math.isfinite(self.latency_mean):
            raise ConfigurationError(
                f"latency_mean must be non-negative and finite: {self.latency_mean!r}"
            )

    @property
    def any_fault(self) -> bool:
        """Whether this category can produce any fault or latency."""
        return (
            self.timeout > 0
            or self.abandon > 0
            or self.garbage > 0
            or self.latency_mean > 0
        )


@dataclass(frozen=True)
class FaultProfile:
    """Declarative fault configuration, per question category.

    ``default`` applies to every category unless an entry in
    ``overrides`` (category name -> :class:`FaultRates`) replaces it.

    ``FaultProfile.none()`` (or any profile whose rates are all zero)
    disables the fault machinery entirely — the platform takes the
    original code path and produces byte-identical results.
    """

    default: FaultRates = field(default_factory=FaultRates)
    overrides: tuple[tuple[str, FaultRates], ...] = ()

    def __post_init__(self) -> None:
        for category, _ in self.overrides:
            if category not in FAULT_CATEGORIES:
                raise ConfigurationError(
                    f"unknown fault category {category!r}; "
                    f"choose from {FAULT_CATEGORIES}"
                )

    @classmethod
    def none(cls) -> "FaultProfile":
        """The all-zero profile: fault injection fully disabled."""
        return cls()

    @classmethod
    def uniform(
        cls,
        rate: float,
        latency_mean: float = 0.0,
        timeout_share: float = 0.4,
        abandon_share: float = 0.3,
    ) -> "FaultProfile":
        """A profile faulting every category with total probability ``rate``.

        The rate is split across timeout / abandon / garbage by the
        given shares (garbage takes the remainder).
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"fault rate must lie in [0, 1]: {rate}")
        if timeout_share < 0 or abandon_share < 0 or timeout_share + abandon_share > 1:
            raise ConfigurationError("fault shares must be non-negative and sum <= 1")
        garbage_share = 1.0 - timeout_share - abandon_share
        return cls(
            default=FaultRates(
                timeout=rate * timeout_share,
                abandon=rate * abandon_share,
                garbage=rate * garbage_share,
                latency_mean=latency_mean,
            )
        )

    def with_override(self, category: str, rates: FaultRates) -> "FaultProfile":
        """Copy with one category's rates replaced."""
        kept = tuple(
            (name, value) for name, value in self.overrides if name != category
        )
        return FaultProfile(default=self.default, overrides=kept + ((category, rates),))

    def rates_for(self, category: str) -> FaultRates:
        """The effective rates for one question category."""
        for name, rates in self.overrides:
            if name == category:
                return rates
        return self.default

    @property
    def enabled(self) -> bool:
        """Whether any category can fault (False for ``none()``)."""
        if self.default.any_fault:
            return True
        return any(rates.any_fault for _, rates in self.overrides)


@dataclass(frozen=True)
class FaultOutcome:
    """One drawn interaction outcome: what happened and how long it took."""

    kind: FaultKind
    latency: float = 0.0


#: Validation margin for value answers, in answer-range spans.  Honest
#: noise can stray a little outside the plausible range; injected
#: garbage lands at least 10 spans out, so the margin separates them
#: deterministically.
VALUE_MARGIN_SPANS = 5.0


def plausible_value(answer: object, low: float, high: float) -> bool:
    """Whether one value answer passes the platform's validation.

    Finite, numeric (bool excluded) and within :data:`VALUE_MARGIN_SPANS`
    answer-range spans of ``[low, high]``.  This is the single
    definition both the offline platform and the serving engine's fault
    layer use, so garbage is rejected identically everywhere.
    """
    if not isinstance(answer, (int, float)) or isinstance(answer, bool):
        return False
    if not math.isfinite(float(answer)):
        return False
    margin = VALUE_MARGIN_SPANS * max(high - low, 1.0)
    return low - margin <= float(answer) <= high + margin


def draw_outcome(
    rates: FaultRates, proneness: float, rng: np.random.Generator
) -> FaultOutcome:
    """Draw one interaction outcome from explicit rates and an RNG.

    The pure core of :meth:`FaultInjector.draw`: all randomness comes
    from the caller's generator, so callers that derive the generator
    from coordinates (the serving engine's per-answer streams) get
    outcomes that are pure functions of those coordinates.  Draw order
    (latency first, then the fault roll) is load-bearing: it must match
    the injector's historical order so enabling the shared-RNG path
    reproduces old runs.
    """
    latency = 0.0
    if rates.latency_mean > 0:
        latency = float(rng.exponential(rates.latency_mean))
    p_timeout = min(rates.timeout * proneness, 1.0)
    p_abandon = min(rates.abandon * proneness, 1.0)
    p_garbage = min(rates.garbage * proneness, 1.0)
    roll = float(rng.random())
    if roll < p_timeout:
        kind = FaultKind.TIMEOUT
    elif roll < p_timeout + p_abandon:
        kind = FaultKind.ABANDON
    elif roll < p_timeout + p_abandon + p_garbage:
        kind = FaultKind.GARBAGE
    else:
        kind = FaultKind.OK
    return FaultOutcome(kind=kind, latency=latency)


def corrupted_value(
    answer_range: tuple[float, float], rng: np.random.Generator
) -> float:
    """A malformed value answer drawn from an explicit RNG.

    All corruption modes are *detectably* malformed —
    :func:`plausible_value` rejects every one of them, so garbage
    manifests as retries rather than silent estimate poisoning
    (in-range plausible garbage is left to reliability-weighted
    aggregation, which down-weights the workers who give it).
    """
    low, high = answer_range
    span = max(high - low, 1.0)
    mode = int(rng.integers(0, 3))
    if mode == 0:
        return float("nan")
    if mode == 1:
        return float(high + span * float(rng.uniform(10.0, 100.0)))
    return float(low - span * float(rng.uniform(10.0, 100.0)))


class FaultInjector:
    """Draws fault outcomes and corrupts answers, per a profile.

    The injector owns a private RNG so enabling faults never disturbs
    the worker answer streams (they keep their own generators), and two
    runs with the same profile and seed fault identically.

    Parameters
    ----------
    profile:
        The fault configuration.
    seed:
        Seed of the injector's private RNG.
    """

    def __init__(self, profile: FaultProfile, seed: int = 0) -> None:
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        self.counts: dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        #: Optional duck-typed metrics sink; non-OK draws increment
        #: ``crowd.faults.<kind>`` (same counts as :attr:`counts`).
        self.metrics: object | None = None

    @property
    def enabled(self) -> bool:
        """Whether this injector can produce any fault."""
        return self.profile.enabled

    @property
    def rng(self) -> np.random.Generator:
        """The injector's private RNG (shared with retry jitter)."""
        return self._rng

    def draw(self, category: str, proneness: float = 1.0) -> FaultOutcome:
        """Draw the outcome of one worker interaction.

        ``proneness`` scales the per-worker fault probabilities (see
        ``Worker.fault_proneness``); 1.0 is an average worker.
        """
        outcome = draw_outcome(self.profile.rates_for(category), proneness, self._rng)
        self.counts[outcome.kind] += 1
        if self.metrics is not None and outcome.kind is not FaultKind.OK:
            self.metrics.inc(f"crowd.faults.{outcome.kind.value}")
        return outcome

    def corrupt_value(self, answer_range: tuple[float, float]) -> float:
        """A malformed value answer: NaN or far out of plausible range.

        Delegates to :func:`corrupted_value` with the injector's private
        RNG; see there for why every mode is detectably malformed.
        """
        return corrupted_value(answer_range, self._rng)

    def corrupt_token(self) -> str:
        """A malformed dismantling answer (an unknown token)."""
        return f"__garbage_{int(self._rng.integers(0, 10**6))}__"

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the injector's mutable state."""
        return {
            "rng": self._rng.bit_generator.state,
            "counts": {kind.value: count for kind, count in self.counts.items()},
        }

    def restore_state(self, payload: dict) -> None:
        """Restore RNG and fault counts from :meth:`state_dict`."""
        self._rng.bit_generator.state = payload["rng"]
        self.counts = {
            kind: int(payload["counts"].get(kind.value, 0)) for kind in FaultKind
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff on the simulated clock.

    Attributes
    ----------
    max_retries:
        Retries allowed after the first attempt (so a question is asked
        at most ``max_retries + 1`` times).
    base_delay:
        Backoff before the first retry, in simulated seconds.
    multiplier:
        Exponential growth factor of the backoff.
    max_delay:
        Ceiling on a single backoff interval.
    jitter:
        Fraction of the interval drawn uniformly at random and added,
        to decorrelate retry storms (0 disables jitter).
    question_timeout:
        Simulated seconds after which a silent worker counts as timed
        out (advances the clock on every timeout fault).
    """

    max_retries: int = 4
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    question_timeout: float = 60.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.max_retries) or self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0: {self.max_retries!r}")
        for name in ("base_delay", "max_delay", "question_timeout"):
            delay = getattr(self, name)
            # NaN passes a bare `< 0` guard and inf makes backoff never
            # terminate in simulated time; both are configuration bugs.
            if not math.isfinite(delay) or delay < 0:
                raise ConfigurationError(
                    f"retry delay {name}={delay!r} must be non-negative and finite"
                )
        if not math.isfinite(self.multiplier) or self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be finite and >= 1: {self.multiplier!r}"
            )
        if not math.isfinite(self.jitter) or not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be finite and lie in [0, 1]: {self.jitter!r}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts allowed per question."""
        return self.max_retries + 1

    def backoff(self, retry_index: int) -> float:
        """Deterministic backoff before retry ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ConfigurationError(f"retry index must be >= 0: {retry_index}")
        return min(self.base_delay * self.multiplier**retry_index, self.max_delay)

    def delay(self, retry_index: int, rng: np.random.Generator | None = None) -> float:
        """Backoff plus jitter for retry ``retry_index``."""
        interval = self.backoff(retry_index)
        if self.jitter > 0 and rng is not None:
            interval += interval * self.jitter * float(rng.random())
        return interval


@dataclass
class ResilienceReport:
    """What the resilience layer absorbed during one run.

    Attributes
    ----------
    retries_by_category:
        Extra attempts per question category (beyond the first).
    abandons_by_category:
        Worker abandonments per question category.
    timeouts / abandons / garbage_answers:
        Fault counts as drawn by the injector.
    quarantined_workers:
        Worker ids currently quarantined by the circuit breaker.
    degradations:
        Human-readable degradation events (plan salvage, dropped
        attributes, skipped online terms).
    simulated_seconds:
        Total simulated time spent on latency, timeouts and backoff.
    """

    retries_by_category: dict[str, int] = field(default_factory=dict)
    abandons_by_category: dict[str, int] = field(default_factory=dict)
    timeouts: int = 0
    abandons: int = 0
    garbage_answers: int = 0
    quarantined_workers: tuple[int, ...] = ()
    degradations: list[str] = field(default_factory=list)
    simulated_seconds: float = 0.0

    @property
    def total_retries(self) -> int:
        """Total retried attempts across categories."""
        return sum(self.retries_by_category.values())

    @property
    def total_abandons(self) -> int:
        """Total abandonments across categories."""
        return sum(self.abandons_by_category.values())

    @property
    def degraded(self) -> bool:
        """Whether the plan had to give something up."""
        return bool(self.degradations)

    def add_degradation(self, event: str) -> None:
        """Record one degradation event."""
        self.degradations.append(event)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            "resilience report",
            f"  retries: {self.total_retries} "
            f"({dict(self.retries_by_category)})",
            f"  abandons: {self.total_abandons} "
            f"({dict(self.abandons_by_category)})",
            f"  faults drawn: {self.timeouts} timeouts, "
            f"{self.abandons} abandons, {self.garbage_answers} garbage",
            f"  quarantined workers: {list(self.quarantined_workers)}",
            f"  simulated seconds: {self.simulated_seconds:.1f}",
        ]
        if self.degradations:
            lines.append("  degradations:")
            lines.extend(f"    - {event}" for event in self.degradations)
        else:
            lines.append("  degradations: none")
        return "\n".join(lines)
