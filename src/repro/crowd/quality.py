"""Runtime worker quarantine: the per-worker circuit breaker.

The paper assumes "spam filters are employed to avoid malicious
workers" and cites Ipeirotis et al.'s quality-management work on
Mechanical Turk.  Answer quality is left to reliability-weighted
aggregation (:mod:`repro.agg`); this module is the operational
complement: :class:`WorkerCircuitBreaker` watches outcomes (timeouts,
abandons, malformed answers) per worker and quarantines workers whose
fault rate crosses a threshold, with half-open re-admission after a
cooldown on the simulated clock.  It needs no ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class BreakerState(enum.Enum):
    """Circuit-breaker state of one worker."""

    CLOSED = "closed"        # serving normally
    OPEN = "open"            # quarantined: not served at all
    HALF_OPEN = "half_open"  # probation: served, watched closely


@dataclass
class _WorkerRecord:
    """Sliding fault statistics and breaker state for one worker."""

    state: BreakerState = BreakerState.CLOSED
    outcomes: list[bool] = field(default_factory=list)  # True = fault
    opened_at: float = 0.0
    probation_successes: int = 0
    times_quarantined: int = 0


class WorkerCircuitBreaker:
    """Quarantines workers whose operational fault rate spikes.

    Fault events (timeouts, abandonments, malformed answers) are
    recorded per worker over a sliding window.  A worker whose windowed
    fault rate crosses ``fault_threshold`` trips OPEN and stops being
    served; after ``cooldown`` simulated seconds it transitions to
    HALF_OPEN and is re-admitted on probation.  ``probation_successes`` consecutive
    clean interactions close the breaker again; any fault during
    probation re-opens it immediately.

    Parameters
    ----------
    fault_threshold:
        Windowed fault-rate above which a worker is quarantined.
    window:
        Number of recent interactions considered per worker.
    min_observations:
        Interactions required before the threshold is applied (avoids
        quarantining a worker on their first unlucky task).
    cooldown:
        Simulated seconds a worker stays OPEN before probation.
    probation_successes:
        Consecutive clean probation interactions required to close.
    """

    def __init__(
        self,
        fault_threshold: float = 0.5,
        window: int = 20,
        min_observations: int = 5,
        cooldown: float = 300.0,
        probation_successes: int = 3,
    ) -> None:
        if not 0.0 < fault_threshold <= 1.0:
            raise ConfigurationError(
                f"fault_threshold must lie in (0, 1]: {fault_threshold}"
            )
        if window < 1 or min_observations < 1:
            raise ConfigurationError("window and min_observations must be >= 1")
        if min_observations > window:
            raise ConfigurationError("min_observations cannot exceed window")
        if cooldown < 0:
            raise ConfigurationError(f"cooldown must be non-negative: {cooldown}")
        if probation_successes < 1:
            raise ConfigurationError("probation_successes must be >= 1")
        self.fault_threshold = fault_threshold
        self.window = window
        self.min_observations = min_observations
        self.cooldown = cooldown
        self.probation_successes = probation_successes
        self._records: dict[int, _WorkerRecord] = {}
        #: Optional duck-typed metrics sink; every OPEN transition
        #: increments ``crowd.quarantine.trips``.
        self.metrics: object | None = None

    # -- state inspection ------------------------------------------------

    def _record(self, worker_id: int) -> _WorkerRecord:
        if worker_id not in self._records:
            self._records[worker_id] = _WorkerRecord()
        return self._records[worker_id]

    def state(self, worker_id: int, now: float) -> BreakerState:
        """Current breaker state, applying any due OPEN -> HALF_OPEN move."""
        record = self._records.get(worker_id)
        if record is None:
            return BreakerState.CLOSED
        if (
            record.state is BreakerState.OPEN
            and now - record.opened_at >= self.cooldown
        ):
            record.state = BreakerState.HALF_OPEN
            record.probation_successes = 0
        return record.state

    def allows(self, worker_id: int, now: float) -> bool:
        """Whether the worker may be served at simulated time ``now``."""
        return self.state(worker_id, now) is not BreakerState.OPEN

    def fault_rate(self, worker_id: int) -> float:
        """Windowed fault rate of one worker (0.0 if unobserved)."""
        record = self._records.get(worker_id)
        if record is None or not record.outcomes:
            return 0.0
        return sum(record.outcomes) / len(record.outcomes)

    def quarantined(self, now: float) -> tuple[int, ...]:
        """Worker ids currently OPEN (after due probation moves), sorted.

        Only an OPEN record can be returned, and :meth:`state` moves
        only OPEN records, so the scan calls it for those alone: the
        same tuple and the same transitions as asking every record.
        """
        open_state = BreakerState.OPEN
        return tuple(
            worker_id
            for worker_id in sorted(
                worker_id
                for worker_id, record in self._records.items()
                if record.state is open_state
            )
            if self.state(worker_id, now) is open_state
        )

    def ever_quarantined(self) -> tuple[int, ...]:
        """Worker ids that have ever been quarantined."""
        return tuple(
            worker_id
            for worker_id in sorted(self._records)
            if self._records[worker_id].times_quarantined > 0
        )

    # -- event recording -------------------------------------------------

    def record_outcome(self, worker_id: int, fault: bool, now: float) -> None:
        """Record one interaction outcome and update the breaker."""
        state = self.state(worker_id, now)  # applies due probation moves
        record = self._record(worker_id)
        record.outcomes.append(bool(fault))
        if len(record.outcomes) > self.window:
            del record.outcomes[: len(record.outcomes) - self.window]
        if state is BreakerState.HALF_OPEN:
            if fault:
                self._trip(record, now)
            else:
                record.probation_successes += 1
                if record.probation_successes >= self.probation_successes:
                    record.state = BreakerState.CLOSED
                    record.outcomes.clear()
            return
        if state is BreakerState.CLOSED:
            if (
                len(record.outcomes) >= self.min_observations
                and sum(record.outcomes) / len(record.outcomes)
                >= self.fault_threshold
            ):
                self._trip(record, now)

    def _trip(self, record: _WorkerRecord, now: float) -> None:
        record.state = BreakerState.OPEN
        record.opened_at = now
        record.probation_successes = 0
        record.times_quarantined += 1
        if self.metrics is not None:
            self.metrics.inc("crowd.quarantine.trips")

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of every worker's breaker record."""
        return {
            "records": [
                [
                    worker_id,
                    record.state.value,
                    [bool(outcome) for outcome in record.outcomes],
                    record.opened_at,
                    record.probation_successes,
                    record.times_quarantined,
                ]
                for worker_id, record in sorted(self._records.items())
            ]
        }

    def restore_state(self, payload: dict) -> None:
        """Restore breaker records from :meth:`state_dict` (in place)."""
        records: dict[int, _WorkerRecord] = {}
        for worker_id, state, outcomes, opened_at, successes, trips in payload[
            "records"
        ]:
            records[int(worker_id)] = _WorkerRecord(
                state=BreakerState(state),
                outcomes=[bool(outcome) for outcome in outcomes],
                opened_at=float(opened_at),
                probation_successes=int(successes),
                times_quarantined=int(trips),
            )
        self._records = records
