"""Requests, per-query results and the serve report.

The serving engine's unit of work is a :class:`QueryRequest` — target
attributes, an optional selection predicate, the object set to
evaluate, and an optional deadline.  Each produces a
:class:`QueryResult` whose ``status`` says how the engine treated it:

``completed``
    Every requested object was estimated with its full ``b(a)``
    answers.
``degraded``
    Something was given up — the deadline expired mid-evaluation,
    budget exhaustion cut a purchase wave short, or crowd faults
    exhausted an answer's retry budget — and ``degraded_reason`` says
    which (the ``degraded`` payload carries widened intervals and the
    per-term shortfall; see :mod:`repro.serve.degrade`).  Whatever was
    estimated is still returned (flagged, never silently truncated).
``shed``
    The query was refused outright and cost nothing; ``shed_reason``
    distinguishes backpressure (``"overflow"`` — the queue was full at
    admission) from expiry (``"deadline"`` — the deadline had already
    passed when its wave formed, and the engine was configured to shed
    rather than degrade such queries).

A :class:`ServeReport` aggregates one :meth:`~repro.serve.engine.
ServeEngine.run` call: all results plus the cache/batching economics
(answers purchased vs. saved, cents spent vs. avoided), queue peak
depth and throughput.  Everything serializes to JSON for the manifest's
``serve`` section and for checkpointing completed queries.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.serve.degrade import DEGRADE_REASONS, DegradedResult

#: Comparison operators a predicate may use against an estimate.
PREDICATE_OPS = {
    ">=": lambda value, threshold: value >= threshold,
    ">": lambda value, threshold: value > threshold,
    "<=": lambda value, threshold: value <= threshold,
    "<": lambda value, threshold: value < threshold,
}

#: Legal values of :attr:`QueryResult.status`.
STATUSES = ("completed", "degraded", "shed")

#: Legal values of :attr:`QueryResult.shed_reason`.
SHED_REASONS = ("overflow", "deadline")

#: Tolerance under which a measured saving is considered exactly zero.
#: Savings are differences of independently summed float spend totals,
#: so a zero-overlap run can land a hair *below* zero (the committed
#: BENCH_serve.json once recorded ``-1.1e-13``); reporting that as a
#: negative saving is noise, not signal.
SAVING_EPSILON = 1e-9


def saving_percent(
    baseline_cents: float,
    actual_cents: float,
    tolerance: float = SAVING_EPSILON,
) -> float:
    """Spend saved vs. a baseline, as a percentage, clamped at zero.

    ``100 * (1 - actual/baseline)``, floored at ``0.0``: the engine
    structurally cannot spend *more* than the independent baseline (it
    buys at most each key's maximum demand once), so any negative value
    is float noise from differencing independently summed spend totals
    — a zero-overlap run once recorded ``-1.1e-13``.  ``tolerance``
    additionally snaps near-zero positives to exactly ``0.0`` so report
    consumers can compare against zero without their own epsilon.
    """
    if baseline_cents <= 0:
        return 0.0
    saving = 100.0 * (1.0 - actual_cents / baseline_cents)
    if saving <= tolerance:
        return 0.0
    return saving


@dataclass(frozen=True)
class Predicate:
    """A threshold filter over one target's estimates (``a >= 0.5``)."""

    target: str
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in PREDICATE_OPS:
            raise ConfigurationError(
                f"unknown predicate operator {self.op!r}; "
                f"choose from {sorted(PREDICATE_OPS)}"
            )

    def matches(self, value: float) -> bool:
        return bool(PREDICATE_OPS[self.op](value, self.threshold))

    def to_dict(self) -> dict:
        return {"target": self.target, "op": self.op, "threshold": self.threshold}

    @classmethod
    def from_dict(cls, payload, query_id: str) -> "Predicate":
        """Query ``query_id``'s predicate from its JSON object.

        ``target`` and ``op`` must be strings and ``threshold`` a finite
        number (not a bool; JSON ``NaN`` would match nothing); any other
        shape is refused, naming the query.
        """
        where = f"query {query_id!r}: predicate"
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("target"), str)
            or not isinstance(payload.get("op"), str)
        ):
            raise ConfigurationError(
                f'{where} must be an object {{"target": name, "op": operator, '
                f'"threshold": number}}, got {payload!r}'
            )
        threshold = payload.get("threshold")
        if not _is_number(threshold) or not math.isfinite(threshold):
            raise ConfigurationError(
                f"{where} threshold must be a finite number, got {threshold!r}"
            )
        return cls(
            target=payload["target"], op=payload["op"], threshold=float(threshold)
        )


@dataclass(frozen=True)
class QueryRequest:
    """One query to serve: targets, object set, optional predicate."""

    query_id: str
    targets: tuple[str, ...]
    object_ids: tuple[int, ...]
    predicate: Predicate | None = None
    #: Wall-clock budget from admission to the wave's evaluation: an
    #: object polled past it is not evaluated; ``None`` disables the
    #: deadline.  Estimates stay deterministic either way (answers are
    #: pure per-key streams); only *how many* objects made the cutoff
    #: can vary with machine speed.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.query_id:
            raise ConfigurationError("a query request needs a non-empty id")
        if not self.targets:
            raise ConfigurationError(f"query {self.query_id!r} has no targets")
        if not self.object_ids:
            raise ConfigurationError(f"query {self.query_id!r} has no objects")
        if self.deadline_s is not None and (
            not math.isfinite(self.deadline_s) or self.deadline_s < 0
        ):
            # NaN passes a bare `< 0` check and would silently disable
            # the deadline comparison; reject it at admission, matching
            # the SimulatedClock/RetryPolicy NaN/inf hardening.
            raise ConfigurationError(
                f"query {self.query_id!r} deadline must be finite and "
                f">= 0, got {self.deadline_s!r}"
            )
        if self.predicate is not None and self.predicate.target not in self.targets:
            raise ConfigurationError(
                f"query {self.query_id!r} filters on non-target "
                f"{self.predicate.target!r}"
            )


def _is_integer(value) -> bool:
    """A JSON integer: an ``int`` that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number: an ``int`` or ``float`` that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_object_spec(spec, query_id: str) -> tuple[int, ...]:
    """Object ids from a query-file entry: a list, or a range spec.

    A list must hold JSON integers; a range spec ``{"range": [start,
    stop]}`` or ``{"range": [start, stop, step]}`` takes integers and a
    non-zero step.  Anything else (floats, bools, strings, nulls) is a
    :class:`~repro.errors.ConfigurationError` naming the query, never a
    silently truncated id.  Shared with the declarative catalog
    front-end (:mod:`repro.catalog.query`), whose request specs use the
    same object grammar as ``queries.json`` workloads.
    """
    if isinstance(spec, dict):
        bounds = spec.get("range") if set(spec) == {"range"} else None
        if (
            not isinstance(bounds, list)
            or len(bounds) not in (2, 3)
            or not all(_is_integer(bound) for bound in bounds)
            or bounds[2:] == [0]
        ):
            raise ConfigurationError(
                f"query {query_id!r}: objects must be a list of integer ids or "
                f'{{"range": [start, stop]}} / {{"range": [start, stop, step]}} '
                f"of integers with a non-zero step, got {spec!r}"
            )
        return tuple(range(*bounds))
    if not isinstance(spec, (list, tuple)) or not all(
        _is_integer(object_id) for object_id in spec
    ):
        raise ConfigurationError(
            f"query {query_id!r}: objects must be a list of integer ids or "
            f'{{"range": [start, stop]}}, got {spec!r}'
        )
    return tuple(spec)


def parse_targets(value, query_id: str) -> tuple[str, ...]:
    """A query entry's ``targets``: a list of attribute names."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(target, str) for target in value
    ):
        raise ConfigurationError(
            f"query {query_id!r}: targets must be a list of attribute names, "
            f"got {value!r}"
        )
    return tuple(value)


def parse_deadline(value, query_id: str) -> float | None:
    """A query entry's ``deadline_s``: a number of seconds, or absent."""
    if value is None:
        return None
    if not _is_number(value):
        raise ConfigurationError(
            f"query {query_id!r}: deadline_s must be a number of seconds, "
            f"got {value!r}"
        )
    return float(value)


def check_object_ids(
    query_id: str, object_ids: Sequence[int], n_objects: int
) -> None:
    """Refuse object ids outside the domain's ``[0, n_objects)``."""
    if min(object_ids) < 0 or max(object_ids) >= n_objects:
        bad = next(oid for oid in object_ids if not 0 <= oid < n_objects)
        raise ConfigurationError(
            f"query {query_id!r} names object {bad}, outside the domain's "
            f"{n_objects} objects (ids 0..{n_objects - 1})"
        )


def load_query_file(path: str | Path) -> list[QueryRequest]:
    """Parse a ``queries.json`` workload into query requests.

    The file is either a list of query objects or ``{"queries": [...]}``;
    each query object looks like::

        {"id": "q1", "targets": ["protein"],
         "objects": [0, 1, 2] | {"range": [0, 60]},
         "predicate": {"target": "protein", "op": ">=", "threshold": 20},
         "deadline_s": 5.0}

    ``predicate`` and ``deadline_s`` are optional.  A field of the
    wrong type is a :class:`~repro.errors.ConfigurationError` naming the
    query and the field (see :func:`parse_object_spec`).
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"no query file at {path}") from None
    except ValueError as exc:
        raise ConfigurationError(f"query file {path} is not valid JSON: {exc}") from exc
    entries = payload.get("queries") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError(
            f"query file {path} must hold a non-empty list of queries"
        )
    requests = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"query file {path}: entry {position} is not an object"
            )
        query_id = str(entry.get("id", f"q{position}"))
        predicate = entry.get("predicate")
        requests.append(
            QueryRequest(
                query_id=query_id,
                targets=parse_targets(entry.get("targets", ()), query_id),
                object_ids=parse_object_spec(entry.get("objects", ()), query_id),
                predicate=(
                    Predicate.from_dict(predicate, query_id)
                    if predicate is not None
                    else None
                ),
                deadline_s=parse_deadline(entry.get("deadline_s"), query_id),
            )
        )
    return requests


@dataclass
class QueryResult:
    """What the engine produced for one request."""

    query_id: str
    status: str = "completed"
    #: Why the result is degraded (see :data:`~repro.serve.degrade.
    #: DEGRADE_REASONS`); ``None`` unless ``status == "degraded"``.
    degraded_reason: str | None = None
    #: Why the query was shed; ``None`` unless ``status == "shed"``.
    shed_reason: str | None = None
    #: Widened intervals / shortfall / completeness annotation for
    #: degraded results (``None`` otherwise).
    degraded: DegradedResult | None = None
    #: Object ids actually evaluated, in request order (a prefix of the
    #: request's objects when a deadline expired).
    object_ids: list[int] = field(default_factory=list)
    #: target -> estimates aligned with :attr:`object_ids`.
    estimates: dict[str, list[float]] = field(default_factory=dict)
    #: Objects passing the predicate (``None`` without a predicate).
    selected: list[int] | None = None
    fresh_answers: int = 0
    saved_answers: int = 0
    spent_cents: float = 0.0
    saved_cents: float = 0.0
    #: True when a resumed run served this result from its checkpoint.
    from_checkpoint: bool = False

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ConfigurationError(f"unknown result status {self.status!r}")
        if (
            self.degraded_reason is not None
            and self.degraded_reason not in DEGRADE_REASONS
        ):
            raise ConfigurationError(f"unknown degrade reason {self.degraded_reason!r}")
        if self.shed_reason is not None and self.shed_reason not in SHED_REASONS:
            raise ConfigurationError(f"unknown shed reason {self.shed_reason!r}")

    def to_dict(self) -> dict:
        payload: dict = {
            "query_id": self.query_id,
            "status": self.status,
            "object_ids": list(self.object_ids),
            "estimates": {
                target: list(values) for target, values in self.estimates.items()
            },
            "fresh_answers": self.fresh_answers,
            "saved_answers": self.saved_answers,
            "spent_cents": self.spent_cents,
            "saved_cents": self.saved_cents,
            "from_checkpoint": self.from_checkpoint,
        }
        if self.degraded_reason is not None:
            payload["degraded_reason"] = self.degraded_reason
        if self.shed_reason is not None:
            payload["shed_reason"] = self.shed_reason
        if self.degraded is not None:
            payload["degraded"] = self.degraded.to_dict()
        if self.selected is not None:
            payload["selected"] = list(self.selected)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResult":
        degraded = payload.get("degraded")
        return cls(
            query_id=str(payload["query_id"]),
            status=str(payload["status"]),
            degraded_reason=payload.get("degraded_reason"),
            shed_reason=payload.get("shed_reason"),
            degraded=(
                DegradedResult.from_dict(degraded) if degraded is not None else None
            ),
            object_ids=[int(oid) for oid in payload.get("object_ids", [])],
            estimates={
                str(target): [float(v) for v in values]
                for target, values in payload.get("estimates", {}).items()
            },
            selected=(
                [int(oid) for oid in payload["selected"]]
                if payload.get("selected") is not None
                else None
            ),
            fresh_answers=int(payload.get("fresh_answers", 0)),
            saved_answers=int(payload.get("saved_answers", 0)),
            spent_cents=float(payload.get("spent_cents", 0.0)),
            saved_cents=float(payload.get("saved_cents", 0.0)),
            from_checkpoint=bool(payload.get("from_checkpoint", False)),
        )


@dataclass
class ServeReport:
    """Aggregate outcome of one engine run."""

    results: list[QueryResult] = field(default_factory=list)
    batches: int = 0
    coalesced_questions: int = 0
    peak_queue_depth: int = 0
    wall_seconds: float = 0.0

    def result(self, query_id: str) -> QueryResult:
        for result in self.results:
            if result.query_id == query_id:
                return result
        raise ConfigurationError(f"no result for query {query_id!r}")

    def _count(self, status: str) -> int:
        return sum(1 for result in self.results if result.status == status)

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def degraded(self) -> int:
        return self._count("degraded")

    @property
    def shed(self) -> int:
        return self._count("shed")

    def shed_by_reason(self, reason: str) -> int:
        """Shed results with one :data:`SHED_REASONS` reason."""
        return sum(
            1
            for result in self.results
            if result.status == "shed" and result.shed_reason == reason
        )

    def degraded_by_reason(self, reason: str) -> int:
        """Degraded results whose *primary* reason is ``reason``."""
        return sum(
            1
            for result in self.results
            if result.status == "degraded" and result.degraded_reason == reason
        )

    @property
    def fresh_answers(self) -> int:
        return sum(result.fresh_answers for result in self.results)

    @property
    def saved_answers(self) -> int:
        return sum(result.saved_answers for result in self.results)

    @property
    def spent_cents(self) -> float:
        return sum(result.spent_cents for result in self.results)

    @property
    def saved_cents(self) -> float:
        return sum(result.saved_cents for result in self.results)

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return (self.completed + self.degraded) / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "queries": len(self.results),
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "batches": self.batches,
            "coalesced_questions": self.coalesced_questions,
            "fresh_answers": self.fresh_answers,
            "saved_answers": self.saved_answers,
            "spent_cents": self.spent_cents,
            "saved_cents": self.saved_cents,
            "peak_queue_depth": self.peak_queue_depth,
            "wall_seconds": self.wall_seconds,
            "results": [result.to_dict() for result in self.results],
        }

    def render(self) -> str:
        """Human-readable summary table for the CLI."""
        lines = [
            f"served {len(self.results)} queries: "
            f"{self.completed} completed, {self.degraded} degraded, "
            f"{self.shed} shed",
            f"  spend: {self.spent_cents:.1f}c fresh "
            f"({self.fresh_answers} answers), "
            f"{self.saved_cents:.1f}c saved via cache "
            f"({self.saved_answers} answers)",
            f"  batching: {self.batches} dispatch wave(s), "
            f"{self.coalesced_questions} questions coalesced away, "
            f"peak queue depth {self.peak_queue_depth}",
        ]
        for result in self.results:
            flag = ""
            if result.status == "degraded":
                flag = f" [degraded: {result.degraded_reason}"
                if result.degraded is not None:
                    flag += f", completeness {result.degraded.completeness:.0%}"
                flag += "]"
            elif result.status == "shed":
                flag = f" [shed: {result.shed_reason or 'overflow'}]"
            elif result.from_checkpoint:
                flag = " [from checkpoint]"
            selected = (
                f", {len(result.selected)} selected"
                if result.selected is not None
                else ""
            )
            lines.append(
                f"  {result.query_id}: {len(result.object_ids)} objects"
                f"{selected}, {result.spent_cents:.1f}c spent, "
                f"{result.saved_cents:.1f}c saved{flag}"
            )
        return "\n".join(lines)
