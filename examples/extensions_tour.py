"""Tour of the extension features (the paper's Section 7 future work).

Two extensions on top of the core reproduction:

1. precision/recall metrics for boolean targets (is_dessert);
2. automatic splitting of one total budget into (B_prc, B_obj).

Run:  python examples/extensions_tour.py
"""

from repro import (
    CrowdPlatform,
    DisQParams,
    DisQPlanner,
    OnlineEvaluator,
    Query,
    default_weights,
    make_recipes_domain,
)
from repro.core.metrics import boolean_report
from repro.core.tuning import optimize_budget_split
from repro.crowd.recording import AnswerRecorder


def metrics_demo(domain) -> None:
    print("=== 1. precision/recall for a boolean target ===")
    platform = CrowdPlatform(domain, seed=3)
    query = Query(targets=("dessert",))
    plan = DisQPlanner(
        platform, query, 2.0, 1500.0, DisQParams(n1=60)
    ).preprocess()
    recipes = range(80)
    estimates = OnlineEvaluator(platform.fork(), plan).evaluate(recipes)
    print(boolean_report(domain, estimates["dessert"], recipes, "dessert"))


def tuning_demo(domain) -> None:
    print("\n=== 2. automatic budget splitting ===")
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=4)
    query = Query(targets=("protein",), weights=default_weights(domain, ("protein",)))
    best, grid = optimize_budget_split(
        platform,
        domain,
        query,
        total_cents=6000.0,
        n_objects=800,
        params=DisQParams(n1=50),
        b_obj_grid=(1.0, 2.0, 4.0),
        pilot_objects=30,
        repetitions=1,
    )
    for split in grid:
        marker = " <- best" if split is best else ""
        print(
            f"  B_obj={split.b_obj_cents:>4.1f}c  B_prc={split.b_prc_cents:>7.0f}c"
            f"  pilot error={split.pilot_error:.4f}{marker}"
        )
    print(f"chosen: {best.b_obj_cents:g}c/object with B_prc={best.b_prc_cents:g}c")


def main() -> None:
    domain = make_recipes_domain(n_objects=250, seed=2)
    metrics_demo(domain)
    tuning_demo(domain)


if __name__ == "__main__":
    main()
