"""Plan-catalog benchmark: preprocessing amortization across restarts.

The economics the catalog exists for: DisQ's ``B_prc`` preprocessing
spend only amortizes when its plans are *reused*.  This bench serves the
same declarative multi-target workload twice against one catalog
directory —

* **cold**: an empty catalog, so every target tuple routes ``fresh``
  and pays full preprocessing (examples, dismantling, verification);
* **warm**: a brand-new platform and router over the same directory,
  simulating a process restart — every tuple must route ``hit``.

Built-in correctness gates (hard failures, not just numbers):

* the warm run re-purchases **zero** preprocessing answers — no
  example, dismantle or verification questions reach the crowd;
* the warm run spends **0c** from ``B_prc`` — cache hits are free;
* warm serve answers are **byte-identical** to the cold run's (a cached
  plan is the plan, not an approximation of it);
* the warm run's recorded ``avoided_cents`` equals the cold run's
  preprocessing spend — the catalog's savings claim is audited against
  the ledger, not self-reported.

Results land in ``BENCH_catalog.json`` at the repo root (EXPERIMENTS.md
quotes it); ``--quick`` (CI's ``catalog-smoke`` job) writes
``benchmarks/out/BENCH_catalog.quick.json`` instead::

    PYTHONPATH=src python benchmarks/bench_catalog.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.catalog import PlanCatalog, PlanRouter, decompose, parse_request_spec
from repro.core.disq import DisQParams
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.obs import Observability
from repro.serve import ServeEngine

from common import recipes_domain, results_path, write_report


SEED = 3

#: The ledger categories ``B_prc`` pays for (everything except "value",
#: which is the per-object serving budget ``B_obj``).
PREPROCESSING = ("example", "dismantle", "verification")

#: Cents of slack allowed when auditing avoided-vs-spent totals: both
#: sides are sums of the same float plan costs, so anything beyond
#: accumulation noise is a real accounting bug.
CENTS_TOLERANCE = 1e-6


def request_specs(n_objects: int) -> list:
    """The declarative workload: two requests sharing one target.

    ``r0`` wants (protein, calories), ``r1`` wants (protein, healthy) —
    so even the cold run exercises the router's per-tuple memo (protein
    plans once, not twice) before the warm run exercises the disk.
    """
    window = {"range": [0, n_objects]}
    return [
        parse_request_spec(
            {
                "id": "r0",
                "targets": ["protein", "calories"],
                "objects": window,
                "predicates": [
                    {"target": "protein", "op": ">=", "threshold": 15}
                ],
            }
        ),
        parse_request_spec(
            {"id": "r1", "targets": ["protein", "healthy"], "objects": window},
            position=1,
        ),
    ]


def run_pass(
    catalog_dir: Path,
    specs: list,
    b_obj: float,
    b_prc: float,
    n1: int,
) -> dict:
    """One decompose→route→serve pass over the catalog directory.

    A fresh platform and router per pass: the only state that may carry
    between passes is the catalog directory itself, exactly like a
    process restart.
    """
    obs = Observability.collecting()
    domain = recipes_domain()
    platform = CrowdPlatform(
        domain, recorder=AnswerRecorder(), seed=SEED, obs=obs
    )
    catalog = PlanCatalog(catalog_dir, obs=obs)
    router = PlanRouter(
        catalog, domain, platform, b_obj, b_prc, DisQParams(n1=n1)
    )
    subs = [sub for spec in specs for sub in decompose(spec)]
    routed = router.route_all(subs)
    # Snapshot between routing and serving: the planner forks the
    # platform with its own B_prc ledger, and only the shared obs
    # registry accumulates across forks — so every crowd cent and
    # question counted here is preprocessing (B_prc) spend, including
    # the value-priced statistics samples planning buys.
    planning = obs.metrics.counters()
    preprocessing_spend = sum(
        value
        for name, value in planning.items()
        if name.startswith("crowd.spend.")
    )
    preprocessing_questions = sum(
        int(value)
        for name, value in planning.items()
        if name.startswith("crowd.questions.")
    )
    with ServeEngine(platform, plan_source=router.plan_source) as engine:
        for item in routed:
            engine.submit(item.sub.to_request())
        report = engine.run()
    counters = obs.metrics.counters()
    return {
        "routes": [item.routed.route for item in routed],
        "avoided_cents": sum(d.avoided_cents for d in router.decisions),
        "spent_cents": sum(d.spent_cents for d in router.decisions),
        "preprocessing_spend_cents": preprocessing_spend,
        "preprocessing_questions": preprocessing_questions,
        "value_spend_cents": counters.get("crowd.spend.value", 0.0)
        - planning.get("crowd.spend.value", 0.0),
        "catalog_counters": {
            name: value
            for name, value in counters.items()
            if name.startswith("catalog.")
        },
        "results": report.to_dict()["results"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized variant (smaller plans)"
    )
    args = parser.parse_args()
    output = results_path("catalog", args.quick)
    if args.quick:
        n_objects, b_obj, b_prc, n1 = 20, 2.0, 700.0, 25
    else:
        n_objects, b_obj, b_prc, n1 = 40, 4.0, 1500.0, 60

    specs = request_specs(n_objects)
    with tempfile.TemporaryDirectory(prefix="bench_catalog.") as tmp:
        catalog_dir = Path(tmp) / "catalog"
        cold = run_pass(catalog_dir, specs, b_obj, b_prc, n1)
        warm = run_pass(catalog_dir, specs, b_obj, b_prc, n1)

    # Route shape: cold plans each distinct tuple once (protein is
    # shared, so 3 distinct tuples across 4 sub-queries); warm hits all.
    if any(route != "fresh" for route in cold["routes"]):
        raise SystemExit(f"FAIL: cold routes are not all fresh: {cold['routes']}")
    if any(route != "hit" for route in warm["routes"]):
        raise SystemExit(f"FAIL: warm routes are not all hits: {warm['routes']}")

    # Gate 1: the warm run re-purchases zero preprocessing answers.
    if warm["preprocessing_questions"] != 0:
        raise SystemExit(
            f"FAIL: warm run asked {warm['preprocessing_questions']} "
            f"preprocessing questions (must be 0)"
        )

    # Gate 2: cache hits spend nothing from B_prc.
    if warm["preprocessing_spend_cents"] != 0.0 or warm["spent_cents"] != 0.0:
        raise SystemExit(
            f"FAIL: warm run spent {warm['preprocessing_spend_cents']:.2f}c "
            f"of B_prc on cache hits (must be 0)"
        )

    # Gate 3: cold and warm serve answers are byte-identical.
    cold_bytes = json.dumps(cold["results"], sort_keys=True)
    warm_bytes = json.dumps(warm["results"], sort_keys=True)
    if cold_bytes != warm_bytes:
        raise SystemExit(
            "FAIL: warm serve answers diverge from the cold run's"
        )

    # Gate 4: the savings claim matches the ledger.
    audit_gap = abs(warm["avoided_cents"] - cold["preprocessing_spend_cents"])
    if audit_gap > CENTS_TOLERANCE:
        raise SystemExit(
            f"FAIL: warm avoided_cents {warm['avoided_cents']:.4f} != cold "
            f"preprocessing spend {cold['preprocessing_spend_cents']:.4f} "
            f"(gap {audit_gap:.2e}c)"
        )

    sub_queries = len(cold["routes"])
    lines = [
        "plan catalog: cold-vs-warm preprocessing spend "
        f"({len(specs)} requests, {sub_queries} sub-queries, "
        f"B_prc={b_prc:.0f}c, n1={n1})",
        f"{'pass':>6} {'routes':>24} {'B_prc spent(c)':>15} "
        f"{'questions':>10} {'avoided(c)':>11}",
    ]
    for name, row in (("cold", cold), ("warm", warm)):
        lines.append(
            f"{name:>6} {'/'.join(row['routes']):>24} "
            f"{row['preprocessing_spend_cents']:>15.1f} "
            f"{row['preprocessing_questions']:>10d} "
            f"{row['avoided_cents']:>11.1f}"
        )
    lines.append(
        "gates: warm requests 0 preprocessing questions, spends 0c of "
        "B_prc, serves byte-identical answers, and avoided_cents "
        f"audits against the cold ledger "
        f"({warm['avoided_cents']:.1f}c == "
        f"{cold['preprocessing_spend_cents']:.1f}c)"
    )
    write_report("bench_catalog", "\n".join(lines))

    output.write_text(
        json.dumps(
            {
                "config": {
                    "domain": "recipes",
                    "requests": len(specs),
                    "sub_queries": sub_queries,
                    "objects_per_request": n_objects,
                    "b_obj_cents": b_obj,
                    "b_prc_cents": b_prc,
                    "n1": n1,
                    "seed": SEED,
                    "quick": args.quick,
                },
                "cold": {k: v for k, v in cold.items() if k != "results"},
                "warm": {k: v for k, v in warm.items() if k != "results"},
                "gates": {
                    "warm_preprocessing_questions": warm[
                        "preprocessing_questions"
                    ],
                    "warm_b_prc_spend_cents": warm[
                        "preprocessing_spend_cents"
                    ],
                    "cold_warm_answers_identical": True,
                    "avoided_cents_audit_gap": audit_gap,
                    "cents_tolerance": CENTS_TOLERANCE,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"results written to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
