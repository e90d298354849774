"""Reliability-weighted aggregation benchmark: accuracy per cent.

Runs the full DisQ pipeline (preprocessing + online evaluation) on the
recipes domain against three simulated crowds and compares the
``uniform`` baseline (the paper's plain mean) with the ``reliability``
aggregator (DESIGN.md §16) on *accuracy per cent spent*:

* an honest crowd — every worker draws from the same noise model;
* a 20% spammer crowd — one in five workers answers uniformly at
  random, ignoring the object;
* a 20% collusion ring — one in five workers shares a correlated bias,
  the coordinated-attack shape majority voting cannot see.

Per (crowd, strategy) cell the bench averages mean-absolute-error
against the domain's ground truth over several seeds and divides by
online spend: ``score = 1 / (mae * cents)``.  Higher is better.

Hard gates (process exit != 0 on failure):

* under both adversarial crowds the reliability aggregator must beat
  uniform on accuracy-per-cent (strictly, by the configured margin);
* under the honest crowd the two strategies must tie within tolerance
  — down-weighting honest workers may not cost accuracy;
* the serving tier with a reliability aggregator is byte-identical
  across a crash/resume cycle vs straight-through: estimates, spend
  and the learned model state all match exactly.

Results land in ``BENCH_aggregation.json`` at the repo root (CI's
``agg-smoke`` job and EXPERIMENTS.md quote it)::

    PYTHONPATH=src python benchmarks/bench_aggregation.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.agg import ReliabilityModel, make_aggregator
from repro.core.disq import DisQParams
from repro.core.online import OnlineEvaluator
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import WorkerPool
from repro.crowd.recording import AnswerRecorder
from repro.durability import CrashInjector, SimulatedCrash, run_disq
from repro.experiments.runner import make_query
from repro.serve import QueryRequest, ServeEngine

from common import recipes_domain, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_aggregation.json"

TARGET = "calories"
B_OBJ = 4.0

#: Answers per statistics question: k = 4 gives the planner three
#: prefix residuals per tape instead of one, which is what makes the
#: per-worker precision estimates sharp enough to matter.
K = 4

#: The three crowd profiles; fractions are WorkerPool persona bands.
CROWDS = (
    ("honest", {}),
    ("spam-20%", {"spam_fraction": 0.2}),
    ("ring-20%", {"colluding_fraction": 0.2, "collusion_bias_scale": 2.0}),
)


def run_pipeline(
    crowd_kwargs: dict, strategy: str, seed: int, b_prc: float, n1: int, n_eval: int
) -> dict:
    """One planner + online run; returns error and online spend."""
    domain = recipes_domain()
    pool = WorkerPool(size=20, seed=seed, **crowd_kwargs)
    platform = CrowdPlatform(domain, pool, recorder=AnswerRecorder(), seed=seed)
    run = run_disq(
        platform,
        make_query(domain, (TARGET,)),
        B_OBJ,
        b_prc,
        DisQParams(n1=n1, k=K, aggregator=strategy),
    )
    # The planner spends on its own fork; the outer platform's ledger
    # meters the online phase alone, which is what the score divides by.
    aggregator = run.planner.params.build_aggregator(
        model=run.planner.reliability_model
    )
    evaluator = OnlineEvaluator(platform, run.plan, aggregator=aggregator)
    estimates = evaluator.evaluate(range(n_eval))[TARGET]
    truth = recipes_domain().true_values(TARGET)[:n_eval]
    return {
        "mae": float(np.mean(np.abs(estimates - truth))),
        "online_cents": float(platform.ledger.total_spent),
    }


def crowd_cell(
    crowd_kwargs: dict, strategy: str, seeds: range, b_prc: float, n1: int, n_eval: int
) -> dict:
    """Average one (crowd, strategy) cell over the seed set."""
    runs = [
        run_pipeline(crowd_kwargs, strategy, seed, b_prc, n1, n_eval)
        for seed in seeds
    ]
    mae = float(np.mean([run["mae"] for run in runs]))
    cents = float(np.mean([run["online_cents"] for run in runs]))
    return {
        "strategy": strategy,
        "mae": mae,
        "online_cents": cents,
        "accuracy_per_cent": 1.0 / (mae * cents),
        "seeds": len(runs),
    }


# -- serving-tier determinism gates -------------------------------------


def make_serve_plan(b_prc: float, n1: int):
    domain = recipes_domain()
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
    run = run_disq(
        platform, make_query(domain, (TARGET,)), B_OBJ, b_prc, DisQParams(n1=n1)
    )
    return run.plan


SERVE_REQUESTS = (
    QueryRequest("q1", (TARGET,), tuple(range(0, 8))),
    QueryRequest("q2", (TARGET,), tuple(range(4, 12))),
    QueryRequest("q3", (TARGET,), tuple(range(8, 16))),
)


def drive_serve(plan, tmp: Path, label: str, crash: bool = False) -> dict:
    """Serve the fixed workload with a fresh reliability aggregator.

    With ``crash=True`` the engine crashes at its first ``serve.wave``
    boundary, right after the first wave commits; a second engine then
    resumes from its log and serves the whole workload.
    """
    domain = recipes_domain()

    def fresh(resume: bool, chaos=None):
        platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
        engine = ServeEngine(
            platform,
            wave_size=1,
            checkpoint_dir=tmp / label,
            resume=resume,
            chaos=chaos,
            aggregator=make_aggregator("reliability", model=ReliabilityModel()),
        )
        return engine, platform

    if crash:
        # wave_size=1 keeps wave boundaries aligned with the
        # straight-through run.
        crashed, _ = fresh(resume=False, chaos=CrashInjector(at_phase="serve.wave"))
        with crashed:
            for request in SERVE_REQUESTS:
                crashed.submit(request, plan)
            try:
                crashed.run()
            except SimulatedCrash:
                pass
            else:
                raise SystemExit(f"FAIL: {label} engine did not crash")
        engine, platform = fresh(resume=True)
        if not engine.resumed:
            raise SystemExit(f"FAIL: {label} engine did not resume")
    else:
        engine, platform = fresh(resume=False)
    for request in SERVE_REQUESTS:
        engine.submit(request, plan)
    report = engine.run()
    engine.close()
    return {
        "estimates": {
            request.query_id: report.result(request.query_id).estimates
            for request in SERVE_REQUESTS
        },
        "model": engine.aggregator.model.state_dict(),
        "spend": platform.ledger.total_spent,
    }


def assert_identical(reference: dict, other: dict, gate: str) -> None:
    for field in ("estimates", "model", "spend"):
        if reference[field] != other[field]:
            raise SystemExit(f"FAIL: {gate}: {field} diverges")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized variant (fewer seeds)"
    )
    args = parser.parse_args()
    if args.quick:
        seeds, b_prc, n1, n_eval = range(3), 400.0, 24, 40
    else:
        seeds, b_prc, n1, n_eval = range(6), 400.0, 24, 40

    # -- accuracy per cent across crowds --------------------------------
    crowd_rows = []
    for label, crowd_kwargs in CROWDS:
        cells = {
            strategy: crowd_cell(crowd_kwargs, strategy, seeds, b_prc, n1, n_eval)
            for strategy in ("uniform", "reliability")
        }
        crowd_rows.append({"crowd": label, **cells})

    # Gates: reliability must win under attack and tie when honest.
    win_margin = 1.0  # reliability strictly better than uniform
    tie_band = 0.15  # honest crowds: within 15% either way
    for row in crowd_rows:
        uniform = row["uniform"]["accuracy_per_cent"]
        reliability = row["reliability"]["accuracy_per_cent"]
        if row["crowd"] == "honest":
            if abs(reliability - uniform) > tie_band * uniform:
                raise SystemExit(
                    f"FAIL: honest crowd: reliability {reliability:.6f} vs "
                    f"uniform {uniform:.6f} outside the ±{tie_band:.0%} tie band"
                )
        elif reliability < win_margin * uniform:
            raise SystemExit(
                f"FAIL: {row['crowd']}: reliability accuracy-per-cent "
                f"{reliability:.6f} does not beat uniform {uniform:.6f}"
            )

    # -- serving-tier determinism gates ---------------------------------
    import tempfile

    serve_plan = make_serve_plan(b_prc=300.0, n1=24)
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        assert_identical(
            drive_serve(serve_plan, tmp, "straight"),
            drive_serve(serve_plan, tmp, "resume", crash=True),
            "resume vs straight-through",
        )

    # -- report ----------------------------------------------------------
    lines = [
        f"aggregation bench: {TARGET} on recipes, n1={n1}, k={K}, "
        f"b_prc={b_prc:.0f}c, {len(seeds)} seeds, {n_eval} objects",
        f"{'crowd':>10} {'strategy':>12} {'mae':>9} {'cents':>8} "
        f"{'acc/cent':>10}",
    ]
    for row in crowd_rows:
        for strategy in ("uniform", "reliability"):
            cell = row[strategy]
            lines.append(
                f"{row['crowd']:>10} {strategy:>12} {cell['mae']:>9.1f} "
                f"{cell['online_cents']:>8.0f} "
                f"{cell['accuracy_per_cent']:>10.6f}"
            )
    lines.append("determinism: reliability serving identical across crash-resume")
    write_report("bench_aggregation", "\n".join(lines))

    OUTPUT.write_text(
        json.dumps(
            {
                "config": {
                    "domain": "recipes",
                    "target": TARGET,
                    "b_obj_cents": B_OBJ,
                    "b_prc_cents": b_prc,
                    "n1": n1,
                    "k": K,
                    "n_eval_objects": n_eval,
                    "pool_size": 20,
                    "seeds": len(seeds),
                    "quick": args.quick,
                },
                "crowds": crowd_rows,
                "gates": {
                    "honest_tie_band": tie_band,
                    "adversarial_win_margin": win_margin,
                    "honest_tie": True,
                    "spam_reliability_wins": True,
                    "ring_reliability_wins": True,
                    "resume_identical": True,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"results written to {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
