"""The persistent plan catalog: preprocessing plans as served artifacts.

The paper's economics hinge on amortization: the offline ``B_prc``
investment pays for itself only when its :class:`~repro.core.model.
PreprocessingPlan` is reused across many queries.  Before this module,
plans lived only in process memory — every serve workload re-bought its
preprocessing after a restart.  A :class:`PlanCatalog` makes plans
first-class durable artifacts:

* **Keying.**  An entry is addressed by a :class:`CatalogKey` — the
  domain name, the target tuple and a *config fingerprint* (budgets,
  seed, planner parameters; the same repr-normalization trick the
  durability layer's checkpoint fingerprint uses).  Any configuration
  change lands on a different key, so a lookup can never confuse plans
  built under different economics.
* **Integrity.**  Entries are single JSON documents written atomically
  (temp file + ``os.replace``, the durability layer's
  :func:`~repro.durability.checkpoint.atomic_write_text`) and carry a
  SHA-256 checksum over their canonical body.  A torn, truncated or
  edited file raises :class:`~repro.errors.CatalogCorruptionError`; an
  entry whose recorded key disagrees with the request raises
  :class:`~repro.errors.CatalogMismatchError`.  The catalog never
  guesses: damage is surfaced, not served.
* **Staleness.**  A :class:`StalenessPolicy` marks entries stale by
  *age* (wall-clock seconds since they were built) or by *statistics
  drift* — each entry records the per-target mean/sigma of the world it
  was trained against, and a lookup compares them with the world's
  current moments.  A domain whose ground truth moved under an
  unchanged configuration is exactly the case the fingerprint cannot
  catch, and exactly the case a cached regression plan silently decays
  under.
* **Refresh locking.**  Re-planning a stale entry takes an exclusive
  on-disk lock; a concurrent refresher gets a typed
  :class:`~repro.errors.CatalogLockError` instead of double-spending
  ``B_prc`` or serving the plan it just declared unfit.

Hits, misses, staleness verdicts and stores are mirrored into the obs
:class:`~repro.obs.metrics.MetricsRegistry` (``catalog.*``), from which
the run manifest's ``catalog`` section (schema v5) is derived.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.faults import ResilienceReport
from repro.durability.checkpoint import atomic_write_text
from repro.errors import (
    CatalogCorruptionError,
    CatalogError,
    CatalogLockError,
    CatalogMismatchError,
)

#: Schema version written into every catalog entry document.
CATALOG_VERSION = 1

#: Hex digits of the SHA-256 config digest used in entry file names.
DIGEST_LENGTH = 16

#: Lookup outcomes (`PlanCatalog.lookup` returns one of these).
LOOKUP_REASONS = ("hit", "miss", "stale_age", "stale_drift")

#: Characters allowed verbatim in entry file names; everything else in
#: a domain or attribute name is folded to ``_``.
_SAFE_NAME = re.compile(r"[^A-Za-z0-9_+.-]")


def _canonical(payload: Any) -> str:
    """Canonical JSON for hashing: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(body: dict[str, Any]) -> str:
    """SHA-256 over the canonical body JSON."""
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def config_fingerprint(
    domain_name: str,
    n_objects: int,
    targets: tuple[str, ...],
    b_obj_cents: float,
    b_prc_cents: float,
    seed: int,
    params: object,
    n1: int | None = None,
) -> dict[str, Any]:
    """The configuration a cached plan must match to be reusable.

    Mirrors the durability layer's checkpoint fingerprint: the params
    repr is normalized by stripping ``at 0x...`` object addresses so
    equal configurations hash equally across processes.  Target
    *weights* are deliberately excluded — they are derived from the
    domain's current ground-truth moments, so they move with the world;
    the staleness policy's drift check, not the key, decides when that
    movement warrants a re-plan.
    """
    params_repr = re.sub(r" at 0x[0-9a-f]+", "", repr(params))
    fingerprint: dict[str, Any] = {
        "domain": str(domain_name),
        "n_objects": int(n_objects),
        "targets": list(targets),
        "b_obj_cents": float(b_obj_cents),
        "b_prc_cents": float(b_prc_cents),
        "seed": int(seed),
        "params": params_repr,
    }
    if n1 is not None:
        fingerprint["n1"] = int(n1)
    return fingerprint


def fingerprint_digest(fingerprint: dict[str, Any]) -> str:
    """Stable short digest of a config fingerprint (file-name key)."""
    digest = hashlib.sha256(_canonical(fingerprint).encode("utf-8"))
    return digest.hexdigest()[:DIGEST_LENGTH]


@dataclass(frozen=True)
class CatalogKey:
    """Address of one catalog entry: (domain, targets, fingerprint)."""

    domain: str
    targets: tuple[str, ...]
    fingerprint: dict[str, Any] = field(hash=False)

    @property
    def digest(self) -> str:
        """The fingerprint digest this key files under."""
        return fingerprint_digest(self.fingerprint)

    @property
    def entry_name(self) -> str:
        """File name of the entry: ``<domain>.<targets>.<digest>.json``."""
        domain = _SAFE_NAME.sub("_", self.domain)
        targets = _SAFE_NAME.sub("_", "+".join(self.targets))
        return f"{domain}.{targets}.{self.digest}.json"

    def describe(self) -> str:
        return f"{self.domain}/{'+'.join(self.targets)}@{self.digest}"


def drift_stats(domain: Any, targets: tuple[str, ...]) -> dict[str, dict[str, float]]:
    """Per-target ground-truth moments used as the drift baseline.

    The simulation's domains expose their true values for free, so the
    baseline costs nothing to record or to re-measure at lookup time.
    A production deployment would substitute the platform's running
    answer statistics here; the policy interface is the same.
    """
    stats: dict[str, dict[str, float]] = {}
    for target in targets:
        values = domain.true_values(target)
        stats[target] = {
            "mean": float(values.mean()),
            "sigma": float(values.std()),
        }
    return stats


@dataclass(frozen=True)
class StalenessPolicy:
    """When a cached plan is too old — or too wrong — to serve.

    Attributes
    ----------
    max_age_s:
        Entries older than this many seconds are stale (``None``
        disables the age check).
    max_drift:
        Maximum tolerated shift of any target's ground-truth mean,
        measured in units of the *recorded* sigma (a z-score of the
        new mean under the old moments).  Sigma movement counts too:
        a relative sigma change beyond this fraction is also drift.
        ``None`` disables the drift check.
    """

    max_age_s: float | None = None
    max_drift: float | None = None

    def is_stale(
        self,
        entry: "CatalogEntry",
        now: float,
        current_stats: dict[str, dict[str, float]] | None,
    ) -> str | None:
        """``"stale_age"`` / ``"stale_drift"`` verdict, or ``None``."""
        if self.max_age_s is not None and now - entry.created_at > self.max_age_s:
            return "stale_age"
        if self.max_drift is None or current_stats is None:
            return None
        for target, recorded in entry.stats.items():
            current = current_stats.get(target)
            if current is None:
                continue
            sigma = max(abs(recorded["sigma"]), 1e-12)
            mean_shift = abs(current["mean"] - recorded["mean"]) / sigma
            sigma_shift = abs(current["sigma"] - recorded["sigma"]) / sigma
            if mean_shift > self.max_drift or sigma_shift > self.max_drift:
                return "stale_drift"
        return None


# ---------------------------------------------------------------------------
# Plan (de)serialization
# ---------------------------------------------------------------------------


def _pairs(mapping: dict) -> list[list[Any]]:
    """A dict as an explicit ``[[key, value], ...]`` list.

    JSON objects written with ``sort_keys=True`` would alphabetize the
    keys; for formula coefficients that changes float summation order
    in the evaluator — a one-ULP drift that breaks cold-vs-warm
    byte-identity.  Pair lists keep insertion order explicit *and*
    checksummed (a reordered file fails the integrity check instead of
    silently evaluating differently)."""
    return [[key, value] for key, value in mapping.items()]


def serialize_plan(plan: PreprocessingPlan) -> dict[str, Any]:
    """A JSON document from which :func:`deserialize_plan` rebuilds the
    plan bit-for-bit (floats survive the JSON round trip exactly, and
    order-sensitive maps travel as pair lists).
    """
    resilience = plan.resilience
    return {
        "query": {
            "targets": list(plan.query.targets),
            "weights": _pairs(plan.query.weights),
        },
        "attributes": list(plan.attributes),
        "budget": _pairs(plan.budget.counts),
        "formulas": _pairs(
            {
                target: {
                    "coefficients": _pairs(formula.coefficients),
                    "intercept": formula.intercept,
                    "budget": _pairs(formula.budget.counts),
                }
                for target, formula in plan.formulas.items()
            }
        ),
        "dismantle_rounds": plan.dismantle_rounds,
        "preprocessing_cost": plan.preprocessing_cost,
        "discovery_log": [list(event) for event in plan.discovery_log],
        "resilience": (
            None
            if resilience is None
            else {
                "retries_by_category": dict(resilience.retries_by_category),
                "abandons_by_category": dict(resilience.abandons_by_category),
                "timeouts": resilience.timeouts,
                "abandons": resilience.abandons,
                "garbage_answers": resilience.garbage_answers,
                "quarantined_workers": list(resilience.quarantined_workers),
                "degradations": list(resilience.degradations),
                "simulated_seconds": resilience.simulated_seconds,
            }
        ),
    }


def _unpairs(pairs: Any) -> list[tuple[Any, Any]]:
    """Decode a pair list back to ordered ``(key, value)`` tuples."""
    return [(key, value) for key, value in pairs]


def deserialize_plan(payload: dict[str, Any]) -> PreprocessingPlan:
    """Rebuild a :class:`~repro.core.model.PreprocessingPlan`."""
    try:
        query = Query(
            targets=tuple(str(t) for t in payload["query"]["targets"]),
            weights={
                str(k): float(v)
                for k, v in _unpairs(payload["query"].get("weights", []))
            },
        )
        formulas = {
            str(target): EstimationFormula(
                target=str(target),
                coefficients={
                    str(a): float(c)
                    for a, c in _unpairs(spec["coefficients"])
                },
                intercept=float(spec["intercept"]),
                budget=BudgetDistribution(
                    {str(a): int(n) for a, n in _unpairs(spec["budget"])}
                ),
            )
            for target, spec in _unpairs(payload["formulas"])
        }
        resilience_payload = payload.get("resilience")
        resilience = (
            None
            if resilience_payload is None
            else ResilienceReport(
                retries_by_category={
                    str(k): int(v)
                    for k, v in resilience_payload["retries_by_category"].items()
                },
                abandons_by_category={
                    str(k): int(v)
                    for k, v in resilience_payload["abandons_by_category"].items()
                },
                timeouts=int(resilience_payload["timeouts"]),
                abandons=int(resilience_payload["abandons"]),
                garbage_answers=int(resilience_payload["garbage_answers"]),
                quarantined_workers=tuple(
                    int(w) for w in resilience_payload["quarantined_workers"]
                ),
                degradations=[
                    str(e) for e in resilience_payload["degradations"]
                ],
                simulated_seconds=float(
                    resilience_payload["simulated_seconds"]
                ),
            )
        )
        return PreprocessingPlan(
            query=query,
            attributes=tuple(str(a) for a in payload["attributes"]),
            budget=BudgetDistribution(
                {str(a): int(n) for a, n in _unpairs(payload["budget"])}
            ),
            formulas=formulas,
            dismantle_rounds=int(payload["dismantle_rounds"]),
            preprocessing_cost=float(payload["preprocessing_cost"]),
            discovery_log=tuple(
                (str(a), str(b), bool(c)) for a, b, c in payload["discovery_log"]
            ),
            resilience=resilience,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogCorruptionError(
            f"catalog entry holds an undecodable plan payload: {exc!r}"
        ) from exc


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One decoded catalog entry (key, provenance, drift baseline, plan)."""

    domain: str
    targets: tuple[str, ...]
    fingerprint: dict[str, Any]
    created_at: float
    stats: dict[str, dict[str, float]]
    preprocessing_cost: float
    plan: PreprocessingPlan
    refreshes: int = 0

    def body(self) -> dict[str, Any]:
        """The checksummed document body this entry serializes to."""
        return {
            "domain": self.domain,
            "targets": list(self.targets),
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "stats": self.stats,
            "preprocessing_cost": self.preprocessing_cost,
            "plan": serialize_plan(self.plan),
            "refreshes": self.refreshes,
        }


def _decode_entry(path: Path, document: Any) -> CatalogEntry:
    if not isinstance(document, dict):
        raise CatalogCorruptionError(f"catalog entry {path} is not an object")
    version = document.get("version")
    if version != CATALOG_VERSION:
        raise CatalogCorruptionError(
            f"catalog entry {path} has schema version {version!r}; "
            f"this build reads version {CATALOG_VERSION}"
        )
    body = document.get("body")
    if not isinstance(body, dict):
        raise CatalogCorruptionError(f"catalog entry {path} has no body")
    recorded = document.get("checksum")
    actual = _checksum(body)
    if recorded != actual:
        raise CatalogCorruptionError(
            f"catalog entry {path} failed its integrity check "
            f"(recorded {recorded!r}, computed {actual!r}); the file was "
            f"truncated or edited after it was written"
        )
    try:
        return CatalogEntry(
            domain=str(body["domain"]),
            targets=tuple(str(t) for t in body["targets"]),
            fingerprint=dict(body["fingerprint"]),
            created_at=float(body["created_at"]),
            stats={
                str(target): {str(k): float(v) for k, v in moments.items()}
                for target, moments in body["stats"].items()
            },
            preprocessing_cost=float(body["preprocessing_cost"]),
            plan=deserialize_plan(body["plan"]),
            refreshes=int(body.get("refreshes", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogCorruptionError(
            f"catalog entry {path} is missing or mistypes a field: {exc!r}"
        ) from exc


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------


class PlanCatalog:
    """A directory of checksummed, atomically written plan entries.

    Parameters
    ----------
    directory:
        Where entries live; created on first store.
    policy:
        Staleness policy applied by :meth:`lookup` (default: never
        stale — entries live until their configuration changes).
    obs:
        Optional :class:`~repro.obs.Observability`; hit/miss/staleness
        /store counts mirror into its registry as ``catalog.*``.
    clock:
        Injectable wall clock (seconds) for age-based staleness tests.
    """

    def __init__(
        self,
        directory: str | Path,
        policy: StalenessPolicy | None = None,
        obs: Any = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        from repro.obs import NULL_OBS

        self.directory = Path(directory)
        self.policy = policy if policy is not None else StalenessPolicy()
        self.obs = obs if obs is not None else NULL_OBS
        self.clock = clock

    # -- paths -----------------------------------------------------------

    def path_for(self, key: CatalogKey) -> Path:
        """The entry file a key resolves to."""
        return self.directory / key.entry_name

    def entry_paths(self) -> list[Path]:
        """All entry files currently in the catalog, sorted by name."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path
            for path in self.directory.glob("*.json")
            if not path.name.startswith(".")
        )

    def _gauge_entries(self) -> None:
        self.obs.metrics.gauge("catalog.entries", len(self.entry_paths()))

    # -- store / load ----------------------------------------------------

    def store(
        self,
        key: CatalogKey,
        plan: PreprocessingPlan,
        stats: dict[str, dict[str, float]] | None = None,
        preprocessing_cost: float | None = None,
        refresh: bool = False,
        now: float | None = None,
    ) -> Path:
        """Atomically persist one plan under ``key``.

        ``refresh=True`` marks the write as a staleness refresh (the
        entry's refresh count carries over and ``catalog.refreshes``
        ticks instead of ``catalog.stores``).
        """
        previous_refreshes = 0
        if refresh:
            try:
                previous = self.load_entry(self.path_for(key))
                previous_refreshes = previous.refreshes
            except CatalogError:
                previous_refreshes = 0
        entry = CatalogEntry(
            domain=key.domain,
            targets=key.targets,
            fingerprint=dict(key.fingerprint),
            created_at=float(self.clock() if now is None else now),
            stats=dict(stats or {}),
            preprocessing_cost=float(
                plan.preprocessing_cost
                if preprocessing_cost is None
                else preprocessing_cost
            ),
            plan=plan,
            refreshes=previous_refreshes + (1 if refresh else 0),
        )
        body = entry.body()
        document = {
            "version": CATALOG_VERSION,
            "checksum": _checksum(body),
            "body": body,
        }
        path = self.path_for(key)
        atomic_write_text(path, json.dumps(document, sort_keys=True, indent=2))
        metrics = self.obs.metrics
        metrics.inc("catalog.refreshes" if refresh else "catalog.stores")
        self._gauge_entries()
        self.obs.tracer.event(
            "catalog.store", key=key.describe(), refresh=refresh
        )
        return path

    def load_entry(self, path: Path) -> CatalogEntry:
        """Decode and integrity-check one entry file."""
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise CatalogCorruptionError(f"no catalog entry at {path}") from None
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise CatalogCorruptionError(
                f"catalog entry {path} is not valid JSON (torn or "
                f"truncated write?): {exc}"
            ) from exc
        return _decode_entry(path, document)

    def lookup(
        self,
        key: CatalogKey,
        current_stats: dict[str, dict[str, float]] | None = None,
    ) -> tuple[CatalogEntry | None, str]:
        """Resolve ``key`` to ``(entry, reason)``.

        Reasons (:data:`LOOKUP_REASONS`): ``"hit"`` — a fresh entry
        (returned); ``"miss"`` — no entry under this key; ``"stale_age"``
        / ``"stale_drift"`` — an entry exists but the policy rejects it
        (returned so callers can warm-start a re-plan from it, but it
        must not be served).  Integrity failures raise; they are never
        folded into a miss.
        """
        path = self.path_for(key)
        metrics = self.obs.metrics
        self._gauge_entries()
        if not path.exists():
            metrics.inc("catalog.misses")
            return None, "miss"
        entry = self.load_entry(path)
        if entry.fingerprint != key.fingerprint or entry.targets != key.targets:
            raise CatalogMismatchError(
                f"catalog entry {path} was written for "
                f"{entry.domain}/{'+'.join(entry.targets)} with a different "
                f"configuration than requested ({key.describe()}); refusing "
                f"to serve a plan built under different economics"
            )
        verdict = self.policy.is_stale(entry, self.clock(), current_stats)
        if verdict is not None:
            metrics.inc(f"catalog.{verdict}")
            self.obs.tracer.event(
                "catalog.stale", key=key.describe(), reason=verdict
            )
            return entry, verdict
        metrics.inc("catalog.hits")
        metrics.inc("catalog.avoided_cents", entry.preprocessing_cost)
        self.obs.tracer.event("catalog.hit", key=key.describe())
        return entry, "hit"

    # -- refresh locking -------------------------------------------------

    @contextmanager
    def refresh_lock(self, key: CatalogKey) -> Iterator[None]:
        """Exclusive on-disk lock around a stale-entry re-plan.

        A concurrent holder raises :class:`~repro.errors.
        CatalogLockError` immediately — the contender must either wait
        and re-lookup (the winner's fresh entry will then hit) or
        surface the error; it must never serve the stale plan.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_path = self.directory / f"{key.entry_name}.lock"
        try:
            descriptor = os.open(
                lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            raise CatalogLockError(
                f"refresh of {key.describe()} is already in progress "
                f"(lock {lock_path} held); retry after the holder finishes"
            ) from None
        try:
            os.write(descriptor, str(os.getpid()).encode("ascii"))
            yield
        finally:
            os.close(descriptor)
            lock_path.unlink(missing_ok=True)
