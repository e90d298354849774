"""Chaos harness: deterministic simulated process crashes.

:class:`CrashInjector` kills a run at a configurable point — after a
given number of paid crowd interactions, or at a named phase boundary
(immediately *after* that phase's checkpoint is written).  It raises
:class:`SimulatedCrash`, which deliberately does **not** derive from
:class:`~repro.errors.ReproError`: the planner's resilience layer
catches ``ReproError`` subclasses (budget exhaustion, crowd faults) and
degrades gracefully, but a process crash must tear the whole run down
exactly as a real ``kill -9`` would — nothing may absorb it.
"""

from __future__ import annotations

from repro.core.disq import PHASES
from repro.errors import ConfigurationError

#: Kill points inside the serving engine's wave loop, in wave order.
#: ``serve.need`` fires after the serial need-computation, ``serve.
#: generate`` after batched answer generation (before any side
#: effect), ``serve.commit`` after the per-key charge/log/insert loop,
#: ``serve.evaluate`` after query evaluation, and ``serve.wave`` after
#: the wave's commit record is synced — mirroring the offline
#: pipeline's post-checkpoint phase boundaries.
SERVE_PHASES = (
    "serve.need",
    "serve.generate",
    "serve.commit",
    "serve.evaluate",
    "serve.wave",
)


class SimulatedCrash(Exception):
    """A simulated process death (not a :class:`~repro.errors.ReproError`).

    Attributes
    ----------
    where:
        Human-readable description of the kill point.
    interactions:
        Paid crowd interactions completed when the crash fired.
    """

    def __init__(self, where: str, interactions: int) -> None:
        super().__init__(f"simulated crash {where}")
        self.where = where
        self.interactions = interactions


class CrashInjector:
    """Raises :class:`SimulatedCrash` at one configured kill point.

    Parameters
    ----------
    at_interactions:
        Crash once this many crowd answers have been paid for (the
        platform notes every charged batch).  The crash fires *after*
        the batch that crosses the threshold is charged, mimicking a
        process death between two interactions; the answers bought
        since the last checkpoint die with it, and resume asks for
        them again.
    at_phase:
        Crash at this phase boundary (one of
        :data:`~repro.core.disq.PHASES` for the offline pipeline, or
        :data:`SERVE_PHASES` for the serving engine's wave loop),
        after its checkpoint is saved.

    The injector fires at most once (``crashed`` stays True after), so
    a resumed run that re-crosses the recorded interaction count — as a
    bit-identical resume necessarily does — is not killed again when
    the same injector object is reused.
    """

    def __init__(
        self,
        at_interactions: int | None = None,
        at_phase: str | None = None,
    ) -> None:
        if at_interactions is None and at_phase is None:
            raise ConfigurationError(
                "CrashInjector needs at_interactions and/or at_phase"
            )
        if at_interactions is not None and at_interactions < 1:
            raise ConfigurationError(
                f"at_interactions must be >= 1: {at_interactions}"
            )
        if at_phase is not None and at_phase not in PHASES + SERVE_PHASES:
            raise ConfigurationError(
                f"unknown phase {at_phase!r}; choose from "
                f"{PHASES + SERVE_PHASES}"
            )
        self.at_interactions = at_interactions
        self.at_phase = at_phase
        self.interactions = 0
        self.crashed = False

    def note_interactions(self, count: int) -> None:
        """Count ``count`` paid answers; crash when the threshold is crossed."""
        self.interactions += int(count)
        if (
            not self.crashed
            and self.at_interactions is not None
            and self.interactions >= self.at_interactions
        ):
            self.crashed = True
            raise SimulatedCrash(
                f"after {self.interactions} crowd interactions",
                self.interactions,
            )

    def phase_boundary(self, phase: str) -> None:
        """Crash at the configured phase boundary (post-checkpoint)."""
        if not self.crashed and self.at_phase == phase:
            self.crashed = True
            raise SimulatedCrash(
                f"at the {phase!r} phase boundary", self.interactions
            )
