"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  The sub-classes mirror the main
failure categories of the system: budget exhaustion on the crowd
platform, malformed queries, and misconfigured domains or algorithms.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class BudgetExhaustedError(ReproError):
    """Raised when a crowd task would exceed the remaining budget.

    Attributes
    ----------
    requested:
        Cost (in cents) of the task that could not be afforded.
    remaining:
        Budget (in cents) that was left when the task was attempted.
    """

    def __init__(self, requested: float, remaining: float) -> None:
        super().__init__(
            f"crowd task costing {requested:.2f}c exceeds remaining "
            f"budget of {remaining:.2f}c"
        )
        self.requested = requested
        self.remaining = remaining


class CrowdFaultError(ReproError):
    """Base class for operational crowd faults (timeouts, bad answers).

    Raised by the platform's resilience layer once its retry policy is
    exhausted; planners may catch this to degrade gracefully instead of
    aborting the whole run.
    """


class CrowdTimeoutError(CrowdFaultError):
    """Raised when workers repeatedly time out or abandon a question.

    Attributes
    ----------
    category:
        Question category ("value", "dismantle", ...).
    attempts:
        How many times the question was attempted before giving up.
    """

    def __init__(self, category: str, attempts: int) -> None:
        super().__init__(
            f"{category} question failed: no usable answer after "
            f"{attempts} attempt(s)"
        )
        self.category = category
        self.attempts = attempts


class MalformedAnswerError(CrowdFaultError):
    """Raised when a crowd answer is unusable (NaN, out-of-range, wrong type).

    Attributes
    ----------
    category:
        Question category the bad answer came from.
    answer:
        The offending raw answer (or a description of it).
    """

    def __init__(self, category: str, answer: object) -> None:
        super().__init__(f"malformed {category} answer: {answer!r}")
        self.category = category
        self.answer = answer


class QueryError(ReproError):
    """Raised when a query string cannot be parsed or is semantically invalid."""


class DomainError(ReproError):
    """Raised when a domain is queried about an unknown object or attribute."""


class UnknownAttributeError(DomainError):
    """Raised when an attribute name is not part of the domain's universe."""

    def __init__(self, attribute: str) -> None:
        super().__init__(f"unknown attribute: {attribute!r}")
        self.attribute = attribute


class UnknownObjectError(DomainError):
    """Raised when an object identifier is not part of the domain."""

    def __init__(self, object_id: object) -> None:
        super().__init__(f"unknown object: {object_id!r}")
        self.object_id = object_id


class ConfigurationError(ReproError):
    """Raised when an algorithm or experiment is configured inconsistently."""


class DurabilityError(ReproError):
    """Base class for crash-safety failures (journal and checkpoints)."""


class JournalCorruptionError(DurabilityError):
    """Raised when a journal (the serving engine's log) cannot be read.

    A *trailing* half-written record is not corruption — the journal
    detects it by checksum and truncates it on open.  This error means
    the damage is unrecoverable: a bad checksum or sequence gap in the
    middle of the file, or records the engine cannot fold (an unknown
    kind, a purchase that contradicts the records before it).
    """


class CheckpointError(DurabilityError):
    """Raised when a pipeline checkpoint cannot be loaded or applied.

    Typical causes: a schema-version mismatch, or resuming with a
    different query/budget/seed configuration than the checkpointed run.
    """


class PlanningError(ReproError):
    """Raised when the preprocessing phase cannot produce a valid plan."""


class CatalogError(ReproError):
    """Base class for plan-catalog failures (load, refresh, integrity).

    The CLI maps every catalog error to exit code 2: a broken catalog
    is a configuration problem the operator must resolve — the system
    never silently re-plans over (or serves from) an entry it cannot
    trust.
    """


class CatalogCorruptionError(CatalogError):
    """Raised when a catalog entry file cannot be read back intact.

    Covers torn or truncated files (invalid JSON), checksum mismatches
    and schema-version drift.  Unlike the serve log's torn *tail*
    — which is expected after a crash and repaired on open — a catalog
    entry is written atomically, so any damage means the file was
    tampered with or the storage failed; the entry must be rebuilt
    explicitly, never trusted.
    """


class CatalogMismatchError(CatalogError):
    """Raised when an entry's recorded key disagrees with the request.

    The entry file decoded cleanly but was written for a different
    (domain, targets, config-fingerprint) key than the one that
    resolved to it — a renamed or copied file, or a digest collision.
    Serving it would silently answer with a plan built under different
    budgets, seed or planner parameters.
    """


class CatalogLockError(CatalogError):
    """Raised when a refresh lock is already held for an entry.

    Two processes noticing the same stale entry must not both re-spend
    ``B_prc`` re-planning it; the loser surfaces this error instead of
    silently serving the stale plan it just declared unfit.
    """
