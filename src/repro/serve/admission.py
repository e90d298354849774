"""Async admission control in front of the serving engine.

The engine already has one bounded queue (``max_queue``, shedding
``overflow`` past it).  :class:`AsyncAdmission` puts a second, *async*
bounded queue ahead of it — the front door a network handler would
``await`` on — and an :class:`AdmissionPolicy` that grades every
arrival down a backpressure ladder **before** it touches engine state
(DESIGN.md §15):

``admit``
    Queue depth is healthy and the deadline has headroom: the query
    enters the engine queue with full purchase rights.
``degrade``
    The tier is under pressure (depth at/above ``degrade_depth``) or
    the deadline is too thin to be worth buying for (headroom below
    ``min_headroom_s``): the query is admitted *cache-only* — it is
    served from whatever the shared cache holds, costs nothing, and
    any shortfall degrades with reason ``"admission"`` instead of
    being dropped.  Degrading beats shedding: the caller still gets
    estimates, intervals and an honest completeness figure.
``reject``
    Depth reached ``reject_depth`` (or the deadline is already
    unmeetable): a 429-style refusal.  The engine records a
    ``shed``/``rejected`` result so the report never silently loses a
    query.

The ladder itself is pure arithmetic over ``(depth, headroom)`` — the
admission *decision* sequence for a given arrival order is therefore
deterministic, which is what the bench gates rely on.  Only the
``await`` points are asynchronous: :meth:`AsyncAdmission.offer`
applies backpressure by blocking (asynchronously) when the front
queue is full, and :meth:`AsyncAdmission.serve` runs the engine's
synchronous wave loop in an executor so an event loop serving other
traffic is never blocked by wave execution.

:func:`admit_and_serve` is the synchronous convenience used by the CLI
and benchmarks: it spins up an event loop, pushes a prepared arrival
list through the front door (producer/consumer, so backpressure is
actually exercised), and returns the report plus the decision tally.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.model import PreprocessingPlan
from repro.errors import ConfigurationError
from repro.serve.report import QueryRequest, ServeReport

if TYPE_CHECKING:
    from repro.serve.engine import ServeEngine

#: Admission decisions, one per ladder rung.
ADMIT = "admit"
DEGRADE = "degrade"
REJECT = "reject"
DECISIONS = (ADMIT, DEGRADE, REJECT)

#: End-of-arrivals sentinel for the producer/consumer pump.
_DONE = object()


@dataclass(frozen=True)
class AdmissionPolicy:
    """The backpressure ladder's thresholds.

    Parameters
    ----------
    reject_depth:
        Combined queue depth (front queue + engine queue) at which new
        arrivals are rejected outright.
    degrade_depth:
        Depth at which arrivals are admitted cache-only.  Must not
        exceed ``reject_depth`` — the ladder degrades before it
        rejects.
    min_headroom_s:
        Deadline headroom below which an arrival is degraded even at a
        healthy depth: a query without enough time left to wait for a
        purchase wave is served from cache instead.  ``0.0`` (default)
        disables the rung; a deadline of exactly zero is always
        rejected (it is unmeetable by construction).
    """

    reject_depth: int = 64
    degrade_depth: int = 32
    min_headroom_s: float = 0.0

    def __post_init__(self) -> None:
        if self.reject_depth < 1:
            raise ConfigurationError(
                f"reject_depth must be >= 1, got {self.reject_depth}"
            )
        if self.degrade_depth < 1:
            raise ConfigurationError(
                f"degrade_depth must be >= 1, got {self.degrade_depth}"
            )
        if self.degrade_depth > self.reject_depth:
            raise ConfigurationError(
                f"degrade_depth ({self.degrade_depth}) must not exceed "
                f"reject_depth ({self.reject_depth}): the ladder degrades "
                f"before it rejects"
            )
        if not math.isfinite(self.min_headroom_s) or self.min_headroom_s < 0:
            raise ConfigurationError(
                f"min_headroom_s must be finite and >= 0, "
                f"got {self.min_headroom_s!r}"
            )

    def decide(self, depth: int, deadline_s: float | None = None) -> str:
        """One arrival's rung: pure arithmetic over depth and headroom."""
        if depth >= self.reject_depth:
            return REJECT
        if deadline_s is not None:
            if deadline_s <= 0:
                return REJECT
            if deadline_s < self.min_headroom_s:
                return DEGRADE
        if depth >= self.degrade_depth:
            return DEGRADE
        return ADMIT


class AsyncAdmission:
    """The asyncio front door: bounded queue + ladder + engine hand-off.

    Parameters
    ----------
    engine:
        The serving engine behind the door.
    policy:
        The backpressure ladder; defaults to :class:`AdmissionPolicy`'s
        defaults.
    queue_limit:
        Capacity of the front queue; :meth:`offer` blocks
        (asynchronously — that *is* the backpressure) when it is full.
        Defaults to the policy's ``reject_depth``.
    """

    def __init__(
        self,
        engine: "ServeEngine",
        policy: AdmissionPolicy | None = None,
        queue_limit: int | None = None,
    ) -> None:
        self.engine = engine
        self.policy = policy if policy is not None else AdmissionPolicy()
        if queue_limit is None:
            queue_limit = self.policy.reject_depth
        if queue_limit < 1:
            raise ConfigurationError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.decisions: dict[str, int] = {decision: 0 for decision in DECISIONS}

    @property
    def depth(self) -> int:
        """Combined pending depth: front queue plus engine queue."""
        return self._queue.qsize() + self.engine.queue_depth

    async def offer(
        self,
        request: QueryRequest,
        plans: PreprocessingPlan | Sequence[PreprocessingPlan],
    ) -> str:
        """Grade one arrival and enqueue (or reject) it; returns the rung.

        Blocks — asynchronously, never the event loop — while the front
        queue is full, which is how backpressure propagates to callers.
        """
        decision = self.policy.decide(self.depth, request.deadline_s)
        self.decisions[decision] += 1
        self.engine.obs.metrics.inc(f"serve.admission.{decision}")
        if decision == REJECT:
            self.engine.reject(request)
            return decision
        await self._queue.put((request, plans, decision))
        return decision

    async def pump(self) -> int:
        """Drain the front queue into the engine queue; returns the count.

        Sentinel-free drain of whatever is queued *now* — the
        producer/consumer pairing in :meth:`run` uses the sentinel
        protocol instead so it never busy-waits.
        """
        moved = 0
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is _DONE:
                continue
            request, plans, decision = item
            self.engine.submit(request, plans, cache_only=decision == DEGRADE)
            moved += 1
        return moved

    async def run(
        self,
        arrivals: Iterable[
            tuple[QueryRequest, PreprocessingPlan | Sequence[PreprocessingPlan]]
        ],
    ) -> ServeReport:
        """Push a whole arrival sequence through the door, then serve.

        A producer task offers each arrival (feeling backpressure when
        the front queue fills) while a consumer task drains admitted
        queries into the engine; once the arrivals are exhausted the
        engine's wave loop runs in an executor.
        """

        async def produce() -> None:
            for request, plans in arrivals:
                await self.offer(request, plans)
            await self._queue.put(_DONE)

        async def consume() -> None:
            while True:
                item = await self._queue.get()
                if item is _DONE:
                    return
                request, plans, decision = item
                self.engine.submit(request, plans, cache_only=decision == DEGRADE)

        await asyncio.gather(produce(), consume())
        return await self.serve()

    async def serve(self) -> ServeReport:
        """Drain stragglers and run the engine off the event loop."""
        await self.pump()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.engine.run)


def admit_and_serve(
    engine: "ServeEngine",
    arrivals: Iterable[
        tuple[QueryRequest, PreprocessingPlan | Sequence[PreprocessingPlan]]
    ],
    policy: AdmissionPolicy | None = None,
    queue_limit: int | None = None,
) -> tuple[ServeReport, dict[str, int]]:
    """Synchronous front-door serve: returns the report and decision tally.

    The CLI/bench entry point: builds an :class:`AsyncAdmission`, runs
    the producer/consumer/serve pipeline on a private event loop, and
    hands back ``(report, {"admit": n, "degrade": n, "reject": n})``.
    """
    admission = AsyncAdmission(engine, policy, queue_limit)
    report = asyncio.run(admission.run(arrivals))
    return report, dict(admission.decisions)
