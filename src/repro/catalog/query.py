"""The declarative query front-end: decompose, route, serve.

``repro query`` accepts a *request spec* — a small declarative JSON
document naming one or more multi-target requests — and turns each into
served answers in three steps:

1. **Decompose** (:func:`decompose`).  A multi-target request splits
   into one :class:`SubQuery` per target (the decomposer/router shape:
   a response is a list of sub-queries, each mapped to exactly one
   routing destination, plus the reasoning for the split).  The split
   is by *plan boundary*: the catalog keys plans by target tuple, so
   per-target sub-queries are the unit that can hit independently.
2. **Route** (:class:`PlanRouter`).  Each sub-query resolves against
   the persistent :class:`~repro.catalog.store.PlanCatalog`:

   ``hit``
       A fresh entry exists — serve its cached plan and spend nothing
       from ``B_prc`` (the avoided spend is recorded per sub-query).
   ``refresh``
       An entry exists but the staleness policy rejects it — take the
       refresh lock, re-plan (warm-started from the platform's shared
       recorder tapes), store the replacement, serve the new plan.
   ``fresh``
       No entry — run preprocessing, store the result, serve it.

3. **Serve.**  The routed sub-queries go through the ordinary
   :class:`~repro.serve.engine.ServeEngine` — sharing its answer cache,
   wave batching and degradation ladder — so the front-end adds plan
   amortization *on top of* answer amortization, not instead of it.

Every route decision is recorded (``catalog.route.<route>`` counters
and a per-sub-query :class:`RoutedSubQuery`), from which the manifest's
``catalog`` section and the CLI's route table are built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.catalog.store import (
    CatalogKey,
    PlanCatalog,
    config_fingerprint,
    drift_stats,
)
from repro.core.model import PreprocessingPlan, Query
from repro.errors import ConfigurationError
from repro.serve.report import (
    Predicate,
    QueryRequest,
    parse_deadline,
    parse_object_spec,
    parse_targets,
)

#: Routing destinations, in cost order (a hit is free).
ROUTES = ("hit", "refresh", "fresh")


@dataclass(frozen=True)
class RequestSpec:
    """One declarative multi-target request, as parsed from a spec file."""

    request_id: str
    targets: tuple[str, ...]
    object_ids: tuple[int, ...]
    predicates: tuple[Predicate, ...] = ()
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ConfigurationError("a request spec needs a non-empty id")
        if not self.targets:
            raise ConfigurationError(
                f"request {self.request_id!r} names no targets"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ConfigurationError(
                f"request {self.request_id!r} repeats a target"
            )
        if not self.object_ids:
            raise ConfigurationError(
                f"request {self.request_id!r} selects no objects"
            )
        for predicate in self.predicates:
            if predicate.target not in self.targets:
                raise ConfigurationError(
                    f"request {self.request_id!r} filters on non-target "
                    f"{predicate.target!r}"
                )


@dataclass(frozen=True)
class SubQuery:
    """One routed unit of work: a single-target slice of a request."""

    sub_id: str
    target: str
    object_ids: tuple[int, ...]
    predicate: Predicate | None = None
    deadline_s: float | None = None
    #: Why this sub-query exists as its own routing unit.
    reasoning: str = ""

    def to_request(self) -> QueryRequest:
        """The serving-engine request this sub-query submits as."""
        return QueryRequest(
            query_id=self.sub_id,
            targets=(self.target,),
            object_ids=self.object_ids,
            predicate=self.predicate,
            deadline_s=self.deadline_s,
        )


def parse_request_spec(payload: Any, position: int = 0) -> RequestSpec:
    """One :class:`RequestSpec` from its JSON object.

    Objects, targets, predicates and the deadline follow
    :func:`~repro.serve.report.load_query_file`'s rules: a field of the
    wrong type is a :class:`~repro.errors.ConfigurationError` naming
    the request and the field.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"request spec entry {position} is not an object"
        )
    request_id = str(payload.get("id", f"r{position}"))
    entries = payload.get("predicates", ())
    if not isinstance(entries, (list, tuple)):
        raise ConfigurationError(
            f"query {request_id!r}: predicates must be a list of objects, "
            f"got {entries!r}"
        )
    return RequestSpec(
        request_id=request_id,
        targets=parse_targets(payload.get("targets", ()), request_id),
        object_ids=parse_object_spec(payload.get("objects", ()), request_id),
        predicates=tuple(
            Predicate.from_dict(entry, request_id) for entry in entries
        ),
        deadline_s=parse_deadline(payload.get("deadline_s"), request_id),
    )


def load_request_file(path: str | Path) -> list[RequestSpec]:
    """Parse a request-spec file into :class:`RequestSpec` values.

    The file is either a list of request objects or
    ``{"requests": [...]}``; each request looks like::

        {"id": "r0", "targets": ["protein", "calories"],
         "objects": [0, 1, 2] | {"range": [0, 40]},
         "predicates": [{"target": "protein", "op": ">=", "threshold": 20}],
         "deadline_s": 5.0}

    ``predicates`` and ``deadline_s`` are optional.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"no request spec at {path}") from None
    except ValueError as exc:
        raise ConfigurationError(
            f"request spec {path} is not valid JSON: {exc}"
        ) from exc
    entries = payload.get("requests") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError(
            f"request spec {path} must hold a non-empty list of requests"
        )
    return [
        parse_request_spec(entry, position)
        for position, entry in enumerate(entries)
    ]


def decompose(spec: RequestSpec) -> list[SubQuery]:
    """Split one multi-target request into per-target sub-queries.

    Each sub-query inherits the request's object set and deadline and
    picks up the predicate filtering on its target (if any).  Sub-query
    ids are ``<request_id>.<target>`` so route records stay legible.
    """
    predicate_of = {p.target: p for p in spec.predicates}
    return [
        SubQuery(
            sub_id=f"{spec.request_id}.{target}",
            target=target,
            object_ids=spec.object_ids,
            predicate=predicate_of.get(target),
            deadline_s=spec.deadline_s,
            reasoning=(
                f"plan boundary: catalog keys plans per target tuple, so "
                f"{target!r} routes independently of the other "
                f"{len(spec.targets) - 1} target(s)"
                if len(spec.targets) > 1
                else "single-target request; no decomposition needed"
            ),
        )
        for target in spec.targets
    ]


@dataclass(frozen=True)
class RoutedPlan:
    """Where one target tuple's plan came from, and at what cost."""

    targets: tuple[str, ...]
    plan: PreprocessingPlan
    route: str
    #: ``B_prc`` cents *not* spent because the plan was cached.
    avoided_cents: float = 0.0
    #: ``B_prc`` cents actually spent (``refresh`` and ``fresh`` routes).
    spent_cents: float = 0.0
    #: The staleness verdict that forced a refresh, when one did.
    stale_reason: str | None = None

    def describe(self) -> str:
        if self.route == "hit":
            return f"hit (avoided {self.avoided_cents:.1f}c)"
        if self.route == "refresh":
            return (
                f"refresh [{self.stale_reason}] "
                f"(spent {self.spent_cents:.1f}c)"
            )
        return f"fresh (spent {self.spent_cents:.1f}c)"


@dataclass(frozen=True)
class RoutedSubQuery:
    """One sub-query together with its routing outcome."""

    sub: SubQuery
    routed: RoutedPlan

    @property
    def plan(self) -> PreprocessingPlan:
        return self.routed.plan


class PlanRouter:
    """Routes target tuples to cached, refreshed or fresh plans.

    Parameters
    ----------
    catalog:
        The persistent plan store (carries the staleness policy).
    domain:
        The ground-truth world (names the key, supplies drift stats
        and query weights).
    platform:
        Crowd access for routes that must actually plan.
    b_obj_cents / b_prc_cents / params:
        The planning economics; part of the config fingerprint.
    planner:
        Injectable planning function ``(platform, query, b_obj, b_prc,
        params) -> plan`` (defaults to the crash-safe
        :func:`~repro.durability.recovery.run_disq`); tests stub it to
        count invocations without touching the crowd.
    """

    def __init__(
        self,
        catalog: PlanCatalog,
        domain: Any,
        platform: Any,
        b_obj_cents: float,
        b_prc_cents: float,
        params: Any = None,
        planner: Callable[..., PreprocessingPlan] | None = None,
    ) -> None:
        self.catalog = catalog
        self.domain = domain
        self.platform = platform
        self.b_obj_cents = float(b_obj_cents)
        self.b_prc_cents = float(b_prc_cents)
        self.params = params
        self._planner = planner if planner is not None else self._default_planner
        #: Route tally and per-tuple memo for this router's lifetime
        #: (one wave of sub-queries may share a target tuple; the
        #: catalog is consulted once per tuple per run).
        self.decisions: list[RoutedPlan] = []
        self._memo: dict[tuple[str, ...], RoutedPlan] = {}

    @staticmethod
    def _default_planner(
        platform: Any, query: Query, b_obj: float, b_prc: float, params: Any
    ) -> PreprocessingPlan:
        from repro.durability import run_disq

        return run_disq(platform, query, b_obj, b_prc, params).plan

    def key_for(self, targets: tuple[str, ...]) -> CatalogKey:
        """The catalog key a target tuple resolves to under this router."""
        fingerprint = config_fingerprint(
            domain_name=self.domain.name,
            n_objects=self.domain.n_objects(),
            targets=targets,
            b_obj_cents=self.b_obj_cents,
            b_prc_cents=self.b_prc_cents,
            seed=self.platform._seed,
            params=self.params,
        )
        return CatalogKey(
            domain=self.domain.name, targets=targets, fingerprint=fingerprint
        )

    def _query_for(self, targets: tuple[str, ...]) -> Query:
        from repro.experiments.runner import make_query

        return make_query(self.domain, targets)

    def _plan(self, targets: tuple[str, ...]) -> PreprocessingPlan:
        return self._planner(
            self.platform,
            self._query_for(targets),
            self.b_obj_cents,
            self.b_prc_cents,
            self.params,
        )

    def acquire(self, targets: tuple[str, ...]) -> RoutedPlan:
        """Resolve one target tuple to a plan, through the catalog.

        Route decisions are memoized per tuple for the router's
        lifetime, so a request wave sharing targets consults the
        catalog (and, on a miss, the crowd) exactly once.
        """
        targets = tuple(targets)
        memoized = self._memo.get(targets)
        if memoized is not None:
            return memoized
        key = self.key_for(targets)
        stats = drift_stats(self.domain, targets)
        entry, reason = self.catalog.lookup(key, stats)
        metrics = self.catalog.obs.metrics
        if reason == "hit":
            assert entry is not None
            routed = RoutedPlan(
                targets=targets,
                plan=entry.plan,
                route="hit",
                avoided_cents=entry.preprocessing_cost,
            )
        elif entry is not None:
            # Stale: re-plan under the refresh lock; a concurrent
            # refresher raises CatalogLockError rather than letting
            # either party serve the plan the policy just rejected.
            with self.catalog.refresh_lock(key):
                plan = self._plan(targets)
                self.catalog.store(key, plan, stats=stats, refresh=True)
            routed = RoutedPlan(
                targets=targets,
                plan=plan,
                route="refresh",
                spent_cents=plan.preprocessing_cost,
                stale_reason=reason,
            )
        else:
            plan = self._plan(targets)
            self.catalog.store(key, plan, stats=stats)
            routed = RoutedPlan(
                targets=targets,
                plan=plan,
                route="fresh",
                spent_cents=plan.preprocessing_cost,
            )
        metrics.inc(f"catalog.route.{routed.route}")
        self.decisions.append(routed)
        self._memo[targets] = routed
        return routed

    def route(self, sub: SubQuery) -> RoutedSubQuery:
        """Route one decomposed sub-query (a single-target tuple)."""
        return RoutedSubQuery(sub=sub, routed=self.acquire((sub.target,)))

    def route_all(self, subs: list[SubQuery]) -> list[RoutedSubQuery]:
        """Route a decomposed request wave, in submission order."""
        return [self.route(sub) for sub in subs]

    def plan_source(self, request: QueryRequest) -> list[PreprocessingPlan]:
        """Adapter for :class:`~repro.serve.engine.ServeEngine`'s
        ``plan_source`` hook.

        The whole target tuple routes as one key — the same one-plan-
        per-target-set shape ``repro serve`` has always used — so a
        catalog-backed serve run is byte-identical to a catalog-less
        one on a cold catalog.  (The declarative front-end decomposes
        to single-target tuples before routing, so its keys are
        per-target by construction.)
        """
        return [self.acquire(request.targets).plan]
