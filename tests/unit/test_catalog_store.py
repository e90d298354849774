"""Unit tests for the persistent plan catalog (store layer).

Covers the contract DESIGN.md §17 promises: byte-exact plan round
trips, fingerprint-keyed addressing, typed corruption surfacing (torn
tail, checksum tamper, renamed entry), staleness by age and drift, and
refresh-lock contention.  Damage must always raise a
:class:`~repro.errors.CatalogError` subtype — never come back as a
silent miss or a served stale plan.
"""

import json

import pytest

from repro.catalog.store import (
    CATALOG_VERSION,
    CatalogKey,
    PlanCatalog,
    StalenessPolicy,
    config_fingerprint,
    deserialize_plan,
    drift_stats,
    fingerprint_digest,
    serialize_plan,
)
from repro.core.model import (
    BudgetDistribution,
    EstimationFormula,
    PreprocessingPlan,
    Query,
)
from repro.crowd.faults import ResilienceReport
from repro.errors import (
    CatalogCorruptionError,
    CatalogLockError,
    CatalogMismatchError,
)
from repro.obs import Observability

pytestmark = pytest.mark.catalog


def make_plan(
    targets: tuple[str, ...] = ("target",),
    cost: float = 123.456,
    with_resilience: bool = False,
) -> PreprocessingPlan:
    """A small hand-built plan with awkward floats and a discovery log."""
    # Deliberately non-alphabetical coefficient order: round-trip tests
    # must prove insertion order (and hence summation order) survives.
    formulas = {
        target: EstimationFormula(
            target=target,
            coefficients={"helper": 1.0 / 3.0, "flag_a": -0.1},
            intercept=0.7071067811865476,
            budget=BudgetDistribution({"helper": 3, "flag_a": 2}),
        )
        for target in targets
    }
    resilience = None
    if with_resilience:
        resilience = ResilienceReport(
            retries_by_category={"value": 2},
            abandons_by_category={"dismantle": 1},
            timeouts=1,
            abandons=1,
            garbage_answers=3,
            quarantined_workers=(7, 11),
            degradations=["verification degraded to majority"],
            simulated_seconds=4.5,
        )
    return PreprocessingPlan(
        query=Query(targets=targets, weights={t: 0.25 for t in targets}),
        attributes=("helper", "flag_a"),
        budget=BudgetDistribution({"helper": 3, "flag_a": 2}),
        formulas=formulas,
        dismantle_rounds=4,
        preprocessing_cost=cost,
        discovery_log=(
            ("target", "helper", True),
            ("target", "nonsense", False),
        ),
        resilience=resilience,
    )


def make_key(
    targets: tuple[str, ...] = ("target",), b_prc: float = 800.0
) -> CatalogKey:
    fingerprint = config_fingerprint(
        domain_name="tiny",
        n_objects=200,
        targets=targets,
        b_obj_cents=2.0,
        b_prc_cents=b_prc,
        seed=3,
        params="DisQParams(n1=20)",
    )
    return CatalogKey(domain="tiny", targets=targets, fingerprint=fingerprint)


class TestFingerprint:
    def test_digest_is_stable_across_calls(self):
        assert fingerprint_digest(make_key().fingerprint) == fingerprint_digest(
            make_key().fingerprint
        )

    def test_any_config_change_moves_the_key(self):
        base = make_key()
        assert make_key(b_prc=900.0).digest != base.digest
        assert make_key(targets=("target", "helper")).digest != base.digest

    def test_object_addresses_normalized_out_of_params(self):
        class Weird:
            def __repr__(self) -> str:
                return f"Weird(fn=<function f at 0x{id(self):x}>)"

        prints = {
            fingerprint_digest(
                config_fingerprint("d", 10, ("t",), 1.0, 2.0, 0, Weird())
            )
            for _ in range(2)
        }
        assert len(prints) == 1

    def test_entry_name_sanitizes_hostile_characters(self):
        key = CatalogKey(
            domain="a/b",
            targets=("x y", "z"),
            fingerprint=make_key().fingerprint,
        )
        assert "/" not in key.entry_name
        assert " " not in key.entry_name
        assert key.entry_name.endswith(".json")


class TestPlanRoundTrip:
    def test_round_trip_is_byte_exact(self):
        plan = make_plan(with_resilience=True)
        rebuilt = deserialize_plan(
            json.loads(json.dumps(serialize_plan(plan)))
        )
        assert rebuilt == plan

    def test_round_trip_preserves_coefficient_order(self):
        # sort_keys on the file would alphabetize {"helper", "flag_a"};
        # order must survive because it is float-summation order.
        plan = make_plan()
        payload = json.loads(
            json.dumps(serialize_plan(plan), sort_keys=True)
        )
        rebuilt = deserialize_plan(payload)
        assert list(rebuilt.formulas["target"].coefficients) == [
            "helper",
            "flag_a",
        ]

    def test_undecodable_payload_raises_corruption(self):
        payload = serialize_plan(make_plan())
        del payload["formulas"]
        with pytest.raises(CatalogCorruptionError):
            deserialize_plan(payload)


class TestStoreAndLookup:
    def test_store_then_hit(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        key = make_key()
        plan = make_plan()
        path = catalog.store(key, plan)
        assert path.exists()
        entry, reason = catalog.lookup(key)
        assert reason == "hit"
        assert entry is not None
        assert entry.plan == plan
        assert entry.preprocessing_cost == plan.preprocessing_cost

    def test_missing_entry_is_a_miss_not_an_error(self, tmp_path):
        entry, reason = PlanCatalog(tmp_path / "cat").lookup(make_key())
        assert (entry, reason) == (None, "miss")

    def test_config_change_lands_on_a_different_entry(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        catalog.store(make_key(), make_plan())
        # Same domain and targets, different economics: clean miss.
        entry, reason = catalog.lookup(make_key(b_prc=900.0))
        assert (entry, reason) == (None, "miss")

    def test_metrics_mirror_traffic(self, tmp_path):
        obs = Observability.collecting()
        catalog = PlanCatalog(tmp_path / "cat", obs=obs)
        key = make_key()
        catalog.lookup(key)
        catalog.store(key, make_plan(cost=50.0))
        catalog.lookup(key)
        counters = obs.metrics.counters()
        assert counters["catalog.misses"] == 1
        assert counters["catalog.stores"] == 1
        assert counters["catalog.hits"] == 1
        assert counters["catalog.avoided_cents"] == pytest.approx(50.0)
        assert obs.metrics.gauges()["catalog.entries"] == 1


class TestCorruption:
    def test_truncated_entry_raises_typed_corruption(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        key = make_key()
        path = catalog.store(key, make_plan())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn tail
        with pytest.raises(CatalogCorruptionError, match="torn or"):
            catalog.lookup(key)

    def test_checksum_tamper_raises_typed_corruption(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        key = make_key()
        path = catalog.store(key, make_plan())
        document = json.loads(path.read_text())
        document["body"]["preprocessing_cost"] = 0.0  # cooked books
        path.write_text(json.dumps(document))
        with pytest.raises(CatalogCorruptionError, match="integrity"):
            catalog.lookup(key)

    def test_wrong_schema_version_raises_corruption(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        key = make_key()
        path = catalog.store(key, make_plan())
        document = json.loads(path.read_text())
        document["version"] = CATALOG_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(CatalogCorruptionError, match="schema version"):
            catalog.lookup(key)

    def test_renamed_entry_raises_mismatch_not_served(self, tmp_path):
        # An entry copied/renamed onto another key's file name must be
        # refused: its recorded fingerprint disagrees with the request.
        catalog = PlanCatalog(tmp_path / "cat")
        old_key = make_key(b_prc=700.0)
        new_key = make_key(b_prc=800.0)
        path = catalog.store(old_key, make_plan())
        path.rename(catalog.path_for(new_key))
        with pytest.raises(CatalogMismatchError, match="different"):
            catalog.lookup(new_key)


class TestStaleness:
    def test_age_staleness(self, tmp_path):
        now = [1000.0]
        catalog = PlanCatalog(
            tmp_path / "cat",
            policy=StalenessPolicy(max_age_s=60.0),
            clock=lambda: now[0],
        )
        key = make_key()
        catalog.store(key, make_plan())
        entry, reason = catalog.lookup(key)
        assert reason == "hit"
        now[0] += 61.0
        entry, reason = catalog.lookup(key)
        assert reason == "stale_age"
        # The stale entry is returned for warm-starting, never served.
        assert entry is not None

    def test_drift_staleness(self, tmp_path, tiny_domain):
        catalog = PlanCatalog(
            tmp_path / "cat", policy=StalenessPolicy(max_drift=0.5)
        )
        key = make_key()
        stats = drift_stats(tiny_domain, ("target",))
        catalog.store(key, make_plan(), stats=stats)
        _, reason = catalog.lookup(key, stats)
        assert reason == "hit"
        sigma = stats["target"]["sigma"]
        moved = {
            "target": {
                "mean": stats["target"]["mean"] + sigma,  # 1.0 z > 0.5
                "sigma": sigma,
            }
        }
        _, reason = catalog.lookup(key, moved)
        assert reason == "stale_drift"

    def test_refresh_carries_the_refresh_count(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        key = make_key()
        catalog.store(key, make_plan())
        catalog.store(key, make_plan(cost=99.0), refresh=True)
        catalog.store(key, make_plan(cost=98.0), refresh=True)
        entry, _ = catalog.lookup(key)
        assert entry is not None
        assert entry.refreshes == 2
        assert entry.preprocessing_cost == pytest.approx(98.0)


class TestRefreshLock:
    def test_concurrent_refresh_raises_lock_error(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        key = make_key()
        with catalog.refresh_lock(key):
            with pytest.raises(CatalogLockError, match="in progress"):
                with catalog.refresh_lock(key):
                    pass  # pragma: no cover - loser must not get here

    def test_lock_released_after_use_and_on_error(self, tmp_path):
        catalog = PlanCatalog(tmp_path / "cat")
        key = make_key()
        with pytest.raises(RuntimeError):
            with catalog.refresh_lock(key):
                raise RuntimeError("planning blew up")
        # The lock file is gone; the next refresher proceeds.
        with catalog.refresh_lock(key):
            pass
