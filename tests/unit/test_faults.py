"""Unit tests for the fault-injection and resilience primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.crowd.faults import (
    FAULT_CATEGORIES,
    FaultInjector,
    FaultKind,
    FaultProfile,
    FaultRates,
    ResilienceReport,
    RetryPolicy,
    SimulatedClock,
)
from repro.crowd.quality import BreakerState, WorkerCircuitBreaker
from repro.errors import ConfigurationError

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# SimulatedClock
# ----------------------------------------------------------------------


class TestSimulatedClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimulatedClock()
        assert clock.now == 0.0
        assert clock.advance(2.5) == 2.5
        clock.advance(0.5)
        assert clock.now == 3.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock().advance(-1.0)


# ----------------------------------------------------------------------
# FaultRates / FaultProfile
# ----------------------------------------------------------------------


class TestFaultRates:
    def test_defaults_are_no_fault(self):
        assert not FaultRates().any_fault

    def test_any_fault_detects_each_channel(self):
        assert FaultRates(timeout=0.1).any_fault
        assert FaultRates(abandon=0.1).any_fault
        assert FaultRates(garbage=0.1).any_fault
        assert FaultRates(latency_mean=1.0).any_fault

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultRates(timeout=1.5)
        with pytest.raises(ConfigurationError):
            FaultRates(garbage=-0.1)
        with pytest.raises(ConfigurationError):
            FaultRates(timeout=0.5, abandon=0.4, garbage=0.3)
        with pytest.raises(ConfigurationError):
            FaultRates(latency_mean=-2.0)


class TestFaultProfile:
    def test_none_is_disabled(self):
        assert not FaultProfile.none().enabled

    def test_uniform_splits_rate_by_shares(self):
        profile = FaultProfile.uniform(0.2, latency_mean=3.0)
        rates = profile.rates_for("value")
        assert rates.timeout == pytest.approx(0.2 * 0.4)
        assert rates.abandon == pytest.approx(0.2 * 0.3)
        assert rates.garbage == pytest.approx(0.2 * 0.3)
        assert rates.latency_mean == 3.0
        assert profile.enabled

    def test_uniform_zero_rate_with_latency_is_still_enabled(self):
        # Latency alone exercises the clock, so it counts as enabled.
        assert FaultProfile.uniform(0.0, latency_mean=1.0).enabled
        assert not FaultProfile.uniform(0.0).enabled

    def test_override_applies_to_one_category(self):
        profile = FaultProfile.none().with_override(
            "dismantle", FaultRates(garbage=0.5)
        )
        assert profile.rates_for("dismantle").garbage == 0.5
        assert not profile.rates_for("value").any_fault
        assert profile.enabled

    def test_with_override_replaces_existing(self):
        profile = (
            FaultProfile.none()
            .with_override("value", FaultRates(timeout=0.1))
            .with_override("value", FaultRates(timeout=0.4))
        )
        assert profile.rates_for("value").timeout == 0.4
        assert len(profile.overrides) == 1

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultProfile(overrides=(("bogus", FaultRates()),))
        with pytest.raises(ConfigurationError):
            FaultProfile.uniform(2.0)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_disabled_profile_never_faults(self):
        injector = FaultInjector(FaultProfile.none(), seed=1)
        for _ in range(50):
            outcome = injector.draw("value")
            assert outcome.kind is FaultKind.OK
            assert outcome.latency == 0.0
        assert injector.counts[FaultKind.OK] == 50

    def test_deterministic_given_seed(self):
        profile = FaultProfile.uniform(0.3, latency_mean=2.0)
        a = FaultInjector(profile, seed=42)
        b = FaultInjector(profile, seed=42)
        outcomes_a = [(o.kind, o.latency) for o in (a.draw("value") for _ in range(100))]
        outcomes_b = [(o.kind, o.latency) for o in (b.draw("value") for _ in range(100))]
        assert outcomes_a == outcomes_b

    def test_rates_approximately_respected(self):
        profile = FaultProfile.uniform(0.5)
        injector = FaultInjector(profile, seed=7)
        n = 4000
        for _ in range(n):
            injector.draw("value")
        faults = n - injector.counts[FaultKind.OK]
        assert faults / n == pytest.approx(0.5, abs=0.05)
        assert sum(injector.counts.values()) == n

    def test_proneness_scales_fault_probability(self):
        profile = FaultProfile.uniform(0.1)
        prone = FaultInjector(profile, seed=3)
        calm = FaultInjector(profile, seed=3)
        n = 3000
        for _ in range(n):
            prone.draw("value", proneness=3.0)
            calm.draw("value", proneness=0.2)
        assert prone.counts[FaultKind.OK] < calm.counts[FaultKind.OK]

    def test_corrupt_value_is_detectably_malformed(self):
        injector = FaultInjector(FaultProfile.uniform(0.5), seed=9)
        low, high = 0.0, 10.0
        for _ in range(100):
            garbage = injector.corrupt_value((low, high))
            if math.isfinite(garbage):
                # At least 10 spans outside the plausible range.
                assert garbage > high + 10 * (high - low) or garbage < low - 10 * (
                    high - low
                )

    def test_corrupt_token_is_unknown(self):
        injector = FaultInjector(FaultProfile.uniform(0.5), seed=9)
        token = injector.corrupt_token()
        assert token.startswith("__garbage_")


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0)
        assert policy.backoff(0) == 1.0
        assert policy.backoff(1) == 2.0
        assert policy.backoff(2) == 4.0
        assert policy.backoff(3) == 5.0  # capped
        assert policy.backoff(10) == 5.0

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=4).max_attempts == 5

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=2.0, multiplier=1.0, jitter=0.5)
        rng = np.random.default_rng(0)
        for index in range(20):
            delay = policy.delay(0, rng)
            assert 2.0 <= delay <= 3.0, delay

    def test_no_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay=2.0, jitter=0.0)
        assert policy.delay(0, np.random.default_rng(0)) == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy.backoff(RetryPolicy(), -1)


# ----------------------------------------------------------------------
# WorkerCircuitBreaker
# ----------------------------------------------------------------------


class TestWorkerCircuitBreaker:
    def make(self, **overrides) -> WorkerCircuitBreaker:
        defaults = dict(
            fault_threshold=0.5,
            window=10,
            min_observations=4,
            cooldown=100.0,
            probation_successes=2,
        )
        defaults.update(overrides)
        return WorkerCircuitBreaker(**defaults)

    def test_unknown_worker_is_closed(self):
        breaker = self.make()
        assert breaker.state(7, now=0.0) is BreakerState.CLOSED
        assert breaker.allows(7, now=0.0)
        assert breaker.fault_rate(7) == 0.0

    def test_trips_open_after_min_observations(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_outcome(1, fault=True, now=0.0)
        # Below min_observations: still closed despite 100% fault rate.
        assert breaker.state(1, now=0.0) is BreakerState.CLOSED
        breaker.record_outcome(1, fault=True, now=0.0)
        assert breaker.state(1, now=0.0) is BreakerState.OPEN
        assert not breaker.allows(1, now=0.0)
        assert breaker.quarantined(now=0.0) == (1,)
        assert breaker.ever_quarantined() == (1,)

    def test_clean_worker_stays_closed(self):
        breaker = self.make()
        for _ in range(20):
            breaker.record_outcome(2, fault=False, now=0.0)
        assert breaker.state(2, now=0.0) is BreakerState.CLOSED

    def test_cooldown_moves_open_to_half_open(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record_outcome(1, fault=True, now=0.0)
        assert breaker.state(1, now=50.0) is BreakerState.OPEN
        assert breaker.state(1, now=100.0) is BreakerState.HALF_OPEN
        assert breaker.allows(1, now=100.0)
        assert breaker.quarantined(now=100.0) == ()

    def test_probation_successes_close_the_breaker(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record_outcome(1, fault=True, now=0.0)
        breaker.record_outcome(1, fault=False, now=100.0)
        assert breaker.state(1, now=100.0) is BreakerState.HALF_OPEN
        breaker.record_outcome(1, fault=False, now=101.0)
        assert breaker.state(1, now=101.0) is BreakerState.CLOSED
        # The window was cleared: old faults no longer count.
        assert breaker.fault_rate(1) == 0.0
        assert breaker.ever_quarantined() == (1,)

    def test_probation_fault_retrips_immediately(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record_outcome(1, fault=True, now=0.0)
        breaker.record_outcome(1, fault=False, now=100.0)  # half-open
        breaker.record_outcome(1, fault=True, now=101.0)
        assert breaker.state(1, now=101.0) is BreakerState.OPEN
        # A fresh cooldown applies from the re-trip.
        assert breaker.state(1, now=150.0) is BreakerState.OPEN
        assert breaker.state(1, now=201.0) is BreakerState.HALF_OPEN

    def test_sliding_window_forgets_old_faults(self):
        breaker = self.make(window=4, min_observations=4)
        breaker.record_outcome(1, fault=True, now=0.0)
        for _ in range(10):
            breaker.record_outcome(1, fault=False, now=0.0)
        # The early fault slid out of the window entirely.
        assert breaker.fault_rate(1) == 0.0
        assert breaker.state(1, now=0.0) is BreakerState.CLOSED

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerCircuitBreaker(fault_threshold=0.0)
        with pytest.raises(ConfigurationError):
            WorkerCircuitBreaker(window=0)
        with pytest.raises(ConfigurationError):
            WorkerCircuitBreaker(window=5, min_observations=6)
        with pytest.raises(ConfigurationError):
            WorkerCircuitBreaker(cooldown=-1.0)
        with pytest.raises(ConfigurationError):
            WorkerCircuitBreaker(probation_successes=0)


# ----------------------------------------------------------------------
# ResilienceReport
# ----------------------------------------------------------------------


class TestResilienceReport:
    def test_totals_and_degraded(self):
        report = ResilienceReport(
            retries_by_category={"value": 3, "example": 1},
            abandons_by_category={"value": 2},
        )
        assert report.total_retries == 4
        assert report.total_abandons == 2
        assert not report.degraded
        report.add_degradation("dropped attribute 'x'")
        assert report.degraded

    def test_describe_mentions_everything(self):
        report = ResilienceReport(
            retries_by_category={c: 0 for c in FAULT_CATEGORIES},
            timeouts=5,
            quarantined_workers=(3, 9),
        )
        report.add_degradation("salvaged plan")
        text = report.describe()
        assert "5 timeouts" in text
        assert "[3, 9]" in text
        assert "salvaged plan" in text


# ----------------------------------------------------------------------
# Non-finite configuration values (NaN/inf)
# ----------------------------------------------------------------------


class TestNonFiniteRejection:
    def test_clock_rejects_nan_and_inf_advance(self):
        # NaN passes a plain `< 0` guard; it must still be rejected.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                SimulatedClock().advance(bad)

    def test_clock_rejects_non_finite_start(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock(start=math.nan)

    def test_fault_rates_reject_non_finite(self):
        for field in ("timeout", "abandon", "garbage"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ConfigurationError):
                    FaultRates(**{field: bad})
        with pytest.raises(ConfigurationError):
            FaultRates(latency_mean=math.nan)

    def test_retry_policy_rejects_non_finite(self):
        for kwargs in (
            {"max_retries": math.nan},
            {"base_delay": math.nan},
            {"base_delay": math.inf},
            {"max_delay": math.nan},
            {"question_timeout": math.nan},
            {"multiplier": math.inf},
            {"jitter": math.nan},
        ):
            with pytest.raises(ConfigurationError):
                RetryPolicy(**kwargs)
