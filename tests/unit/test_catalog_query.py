"""Unit tests for the declarative query layer: parse, decompose, route."""

import json

import pytest

from repro.catalog.query import (
    PlanRouter,
    RequestSpec,
    decompose,
    load_request_file,
    parse_request_spec,
)
from repro.catalog.store import PlanCatalog, StalenessPolicy, drift_stats
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.errors import CatalogLockError, ConfigurationError
from repro.obs import Observability

pytestmark = pytest.mark.catalog


def stub_plan(targets: tuple[str, ...], cost: float = 40.0) -> PreprocessingPlan:
    return PreprocessingPlan(
        query=Query(targets=targets, weights={t: 1.0 for t in targets}),
        attributes=("helper",),
        budget=BudgetDistribution({"helper": 2}),
        formulas={
            target: EstimationFormula(
                target=target,
                coefficients={"helper": 1.0},
                intercept=0.0,
                budget=BudgetDistribution({"helper": 2}),
            )
            for target in targets
        },
        preprocessing_cost=cost,
    )


class CountingPlanner:
    """A planner stub: returns canned plans, counts crowd-touching calls."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, ...]] = []

    def __call__(self, platform, query, b_obj, b_prc, params):
        self.calls.append(query.targets)
        return stub_plan(query.targets)


@pytest.fixture
def router_parts(tmp_path, tiny_domain, tiny_platform):
    catalog = PlanCatalog(tmp_path / "cat", obs=Observability.collecting())
    planner = CountingPlanner()
    router = PlanRouter(
        catalog,
        tiny_domain,
        tiny_platform,
        b_obj_cents=2.0,
        b_prc_cents=500.0,
        params="params-repr",
        planner=planner,
    )
    return catalog, planner, router


class TestRequestSpecParsing:
    def test_full_document(self):
        spec = parse_request_spec(
            {
                "id": "r7",
                "targets": ["target", "helper"],
                "objects": {"range": [0, 5]},
                "predicates": [
                    {"target": "target", "op": ">=", "threshold": 9.0}
                ],
                "deadline_s": 2.5,
            }
        )
        assert spec.request_id == "r7"
        assert spec.targets == ("target", "helper")
        assert spec.object_ids == (0, 1, 2, 3, 4)
        assert spec.predicates[0].target == "target"
        assert spec.deadline_s == 2.5

    def test_defaults_and_positional_id(self):
        spec = parse_request_spec(
            {"targets": ["target"], "objects": [3, 1]}, position=4
        )
        assert spec.request_id == "r4"
        assert spec.predicates == ()
        assert spec.deadline_s is None

    @pytest.mark.parametrize(
        "payload",
        [
            {"targets": [], "objects": [0]},
            {"targets": ["target"], "objects": []},
            {"targets": ["target", "target"], "objects": [0]},
            {
                "targets": ["target"],
                "objects": [0],
                "predicates": [
                    {"target": "other", "op": ">=", "threshold": 1}
                ],
            },
        ],
    )
    def test_invalid_specs_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            parse_request_spec(payload)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"objects": [1.5, 2]}, "objects"),
            ({"objects": [True]}, "objects"),
            ({"objects": "12"}, "objects"),
            ({"objects": [None]}, "objects"),
            ({"objects": {"range": [0, 2.7]}}, "objects"),
            ({"objects": {"range": [0, 3, 0]}}, "objects"),
            ({"targets": "target"}, "targets"),
            ({"deadline_s": False}, "deadline_s"),
            ({"deadline_s": "soon"}, "deadline_s"),
            ({"predicates": {"target": "target", "op": ">=", "threshold": 1}},
             "predicates"),
            ({"predicates": ["target>3"]}, "predicate"),
            ({"predicates": [{"target": "target", "op": ">=", "threshold": True}]},
             "threshold"),
        ],
    )
    def test_field_types_refused(self, fields, field):
        """The catalog front-end shares the query file's field rules."""
        payload = {"id": "r3", "targets": ["target"], "objects": [0], **fields}
        with pytest.raises(ConfigurationError, match=f"query 'r3'.*{field}"):
            parse_request_spec(payload)

    def test_load_request_file_accepts_both_shapes(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([{"targets": ["t"], "objects": [0]}]))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(
            json.dumps({"requests": [{"targets": ["t"], "objects": [0]}]})
        )
        assert len(load_request_file(bare)) == 1
        assert len(load_request_file(wrapped)) == 1

    def test_load_request_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="valid JSON"):
            load_request_file(path)
        with pytest.raises(ConfigurationError, match="no request spec"):
            load_request_file(tmp_path / "absent.json")


class TestDecompose:
    def test_one_sub_query_per_target_with_reasoning(self):
        spec = RequestSpec(
            request_id="r0",
            targets=("target", "helper"),
            object_ids=(0, 1),
        )
        subs = decompose(spec)
        assert [s.sub_id for s in subs] == ["r0.target", "r0.helper"]
        assert all(s.object_ids == (0, 1) for s in subs)
        assert all("plan boundary" in s.reasoning for s in subs)

    def test_predicate_follows_its_target(self):
        spec = parse_request_spec(
            {
                "id": "r0",
                "targets": ["target", "helper"],
                "objects": [0],
                "predicates": [
                    {"target": "helper", "op": "<", "threshold": 4}
                ],
            }
        )
        subs = {s.target: s for s in decompose(spec)}
        assert subs["target"].predicate is None
        assert subs["helper"].predicate is not None
        request = subs["helper"].to_request()
        assert request.query_id == "r0.helper"
        assert request.targets == ("helper",)


class TestPlanRouter:
    def test_fresh_then_hit(self, router_parts):
        catalog, planner, router = router_parts
        first = router.acquire(("target",))
        assert first.route == "fresh"
        assert first.spent_cents == pytest.approx(40.0)
        assert planner.calls == [("target",)]
        # Same tuple again, new router over the same catalog: a hit
        # that spends nothing and avoids the recorded cost.
        second = PlanRouter(
            catalog,
            router.domain,
            router.platform,
            b_obj_cents=2.0,
            b_prc_cents=500.0,
            params="params-repr",
            planner=planner,
        ).acquire(("target",))
        assert second.route == "hit"
        assert second.avoided_cents == pytest.approx(40.0)
        assert planner.calls == [("target",)]  # no second crowd touch

    def test_memoized_within_one_router(self, router_parts):
        _, planner, router = router_parts
        router.acquire(("target",))
        router.acquire(("target",))
        assert planner.calls == [("target",)]
        assert len(router.decisions) == 1

    def test_stale_entry_refreshes_under_lock(
        self, tmp_path, tiny_domain, tiny_platform
    ):
        now = [0.0]
        catalog = PlanCatalog(
            tmp_path / "cat",
            policy=StalenessPolicy(max_age_s=10.0),
            obs=Observability.collecting(),
            clock=lambda: now[0],
        )
        planner = CountingPlanner()
        router = PlanRouter(
            catalog, tiny_domain, tiny_platform, 2.0, 500.0, "p", planner
        )
        assert router.acquire(("target",)).route == "fresh"
        now[0] += 11.0
        fresh_router = PlanRouter(
            catalog, tiny_domain, tiny_platform, 2.0, 500.0, "p", planner
        )
        routed = fresh_router.acquire(("target",))
        assert routed.route == "refresh"
        assert routed.stale_reason == "stale_age"
        assert len(planner.calls) == 2
        entry, reason = catalog.lookup(
            router.key_for(("target",)),
            drift_stats(tiny_domain, ("target",)),
        )
        assert reason == "hit"
        assert entry is not None and entry.refreshes == 1

    def test_contended_refresh_raises_never_serves_stale(
        self, tmp_path, tiny_domain, tiny_platform
    ):
        now = [0.0]
        catalog = PlanCatalog(
            tmp_path / "cat",
            policy=StalenessPolicy(max_age_s=10.0),
            clock=lambda: now[0],
        )
        planner = CountingPlanner()
        router = PlanRouter(
            catalog, tiny_domain, tiny_platform, 2.0, 500.0, "p", planner
        )
        router.acquire(("target",))
        now[0] += 11.0
        contender = PlanRouter(
            catalog, tiny_domain, tiny_platform, 2.0, 500.0, "p", planner
        )
        with catalog.refresh_lock(router.key_for(("target",))):
            with pytest.raises(CatalogLockError):
                contender.acquire(("target",))

    def test_route_metrics_and_plan_source(self, router_parts):
        catalog, _, router = router_parts
        subs = decompose(
            RequestSpec(
                request_id="r0",
                targets=("target", "helper"),
                object_ids=(0,),
            )
        )
        routed = router.route_all(subs)
        assert [r.routed.route for r in routed] == ["fresh", "fresh"]
        counters = catalog.obs.metrics.counters()
        assert counters["catalog.route.fresh"] == 2
        # The engine hook routes the whole tuple as one key.
        plans = router.plan_source(subs[0].to_request())
        assert len(plans) == 1
        assert plans[0].query.targets == ("target",)
