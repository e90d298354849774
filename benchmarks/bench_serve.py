"""Serving-engine benchmark: answers saved vs. query overlap.

Two queries over the same target share some of their object windows;
the serving engine's shared answer cache plus cross-query batching
should turn every shared object into purchased-once answers.  This
bench sweeps the Jaccard overlap ``|A ∩ B| / |A ∪ B|`` of a two-query
workload and reports, per point:

* the value-question spend of two *independent* ``evaluate`` calls
  (fresh cache each — the pre-serving-engine behaviour);
* the spend of the same workload through :class:`repro.serve.engine.
  ServeEngine`;
* the saving percentage and answers served from cache.

Built-in correctness gates (hard failures, not just numbers):

* the serve run's estimates for the first query are **byte-identical**
  to the independent baseline run — since the engine generates through
  the batched :class:`~repro.serve.stream.BatchedValueStream` and the
  baseline through the scalar per-answer loop, this is also the
  batched-vs-scalar parity gate;
* at 50% overlap the spend reduction is at least 30%;
* the serial engine's throughput is at least ``SPEEDUP_FLOOR``× the
  committed pre-vectorization baseline (hard gate in full mode,
  warn-only in ``--quick`` — CI treats wall-clock as advisory).

Results land in ``BENCH_serve.json`` at the repo root (CI's
``serve-smoke`` job and EXPERIMENTS.md quote it)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.disq import DisQParams
from repro.core.online import OnlineEvaluator
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.durability import run_disq
from repro.experiments.runner import make_query
from repro.obs import Observability
from repro.serve import CachedAnswerSource, QueryRequest, ServeEngine, saving_percent

from common import recipes_domain, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"

SEED = 3
TARGET = "protein"

#: Single-core throughput of the scalar (pre-vectorization) engine,
#: frozen from the last BENCH_serve.json committed before the batched
#: hot path landed, per bench configuration.
BASELINE_QPS = {"full": 19.309226330685757, "quick": 118.12716933025479}

#: The vectorized hot path must clear this speedup over the scalar
#: baseline.
SPEEDUP_FLOOR = 10.0

#: The 50%-overlap saving gate, with an explicit tolerance: measured
#: savings are percentages derived from float spend totals, so the gate
#: compares against ``floor - tolerance`` instead of raw floats.
SAVING_FLOOR_PCT = 30.0
SAVING_TOLERANCE_PCT = 1e-6


def overlap_windows(m: int, jaccard: float) -> tuple[range, range]:
    """Two ``m``-object windows with the requested Jaccard overlap.

    Shared count ``s`` solves ``s / (2m - s) = jaccard``.
    """
    shared = round(2 * m * jaccard / (1 + jaccard))
    return range(0, m), range(m - shared, 2 * m - shared)


def make_plan(b_prc: float, n1: int):
    """One DisQ plan for the bench target (planning spend excluded)."""
    domain = recipes_domain()
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=SEED)
    run = run_disq(
        platform, make_query(domain, (TARGET,)), 4.0, b_prc, DisQParams(n1=n1)
    )
    return run.plan


def fresh_platform(obs: Observability | None = None) -> CrowdPlatform:
    return CrowdPlatform(
        recipes_domain(), recorder=AnswerRecorder(), seed=SEED, obs=obs
    )


def independent_run(plan, objects) -> tuple[dict, float]:
    """One query evaluated alone with a private cache; (estimates, spend)."""
    platform = fresh_platform()
    source = CachedAnswerSource(platform)
    estimates = OnlineEvaluator(platform, plan, answer_source=source).evaluate(
        objects
    )
    return estimates, platform.ledger.spent_by_category["value"]


def serve_run(plan, windows, obs: Observability | None = None):
    """The same workload through the engine; (report, value spend)."""
    platform = fresh_platform(obs)
    with ServeEngine(platform) as engine:
        for index, window in enumerate(windows):
            engine.submit(
                QueryRequest(f"q{index}", (TARGET,), tuple(window)), plan
            )
        report = engine.run()
    return report, platform.ledger.spent_by_category["value"]


def sweep_overlaps(plan, overlaps, m: int) -> list[dict]:
    rows = []
    for jaccard in overlaps:
        window_a, window_b = overlap_windows(m, jaccard)
        est_a, spend_a = independent_run(plan, window_a)
        est_b, spend_b = independent_run(plan, window_b)
        baseline = spend_a + spend_b
        report, serve_spend = serve_run(plan, (window_a, window_b))
        # Clamped: a zero-overlap run's saving is exactly 0%, never the
        # -1.1e-13 float-differencing noise an unclamped ratio reports.
        saving_pct = saving_percent(baseline, serve_spend)
        identical = bool(
            np.array_equal(
                np.array(report.result("q0").estimates[TARGET]),
                est_a[TARGET],
            )
        )
        if not identical:
            raise SystemExit(
                f"FAIL: serve estimates diverge from the independent "
                f"baseline at overlap {jaccard}"
            )
        rows.append(
            {
                "jaccard_overlap": jaccard,
                "objects_per_query": m,
                "shared_objects": len(set(window_a) & set(window_b)),
                "baseline_spend_cents": baseline,
                "serve_spend_cents": serve_spend,
                "saving_pct": saving_pct,
                "answers_saved": report.saved_answers,
                "coalesced_questions": report.coalesced_questions,
                "baseline_query_identical": identical,
            }
        )
    return rows


def measure_throughput(plan, m: int) -> dict:
    """Serve the 50%-overlap workload once; qps and per-phase wall clock.

    The phase table (``serve.purchase``, ``serve.evaluate``, ...) says
    which slice of a wave the time went to, not just the total.
    """
    obs = Observability.collecting()
    started = time.perf_counter()
    report, _ = serve_run(plan, overlap_windows(m, 0.5), obs=obs)
    return {
        "wall_s": time.perf_counter() - started,
        "qps": report.queries_per_second,
        "phases": {
            path: round(seconds, 6)
            for path, seconds in obs.tracer.phase_seconds().items()
            if path.startswith("serve")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized variant (fewer points)"
    )
    args = parser.parse_args()
    if args.quick:
        overlaps, m, b_prc, n1 = (0.0, 0.5), 30, 800.0, 40
    else:
        overlaps, m, b_prc, n1 = (0.0, 0.25, 0.5, 0.75), 60, 1500.0, 60

    plan = make_plan(b_prc, n1)
    rows = sweep_overlaps(plan, overlaps, m)
    throughput = measure_throughput(plan, m)

    at_half = next(r for r in rows if r["jaccard_overlap"] == 0.5)
    if at_half["saving_pct"] < SAVING_FLOOR_PCT - SAVING_TOLERANCE_PCT:
        raise SystemExit(
            f"FAIL: saving at 50% overlap is {at_half['saving_pct']:.1f}% "
            f"(< {SAVING_FLOOR_PCT:.0f}% gate, "
            f"tolerance {SAVING_TOLERANCE_PCT})"
        )

    baseline_qps = BASELINE_QPS["quick" if args.quick else "full"]
    speedup = throughput["qps"] / baseline_qps
    if speedup < SPEEDUP_FLOOR:
        message = (
            f"serve throughput {throughput['qps']:.1f} qps "
            f"is {speedup:.1f}x the scalar baseline ({baseline_qps:.1f} "
            f"qps), below the {SPEEDUP_FLOOR:.0f}x floor"
        )
        if args.quick:
            # CI policy: identity gates are hard failures, wall-clock
            # on a shared runner is advisory.
            print(f"WARNING: {message}")
        else:
            raise SystemExit(f"FAIL: {message}")

    lines = [
        "serving engine: value-question spend vs. query overlap "
        f"(two {m}-object queries, target {TARGET!r})",
        f"{'overlap':>8} {'baseline(c)':>12} {'serve(c)':>10} "
        f"{'saving':>8} {'saved answers':>14}",
    ]
    for row in rows:
        lines.append(
            f"{row['jaccard_overlap']:>8.2f} "
            f"{row['baseline_spend_cents']:>12.1f} "
            f"{row['serve_spend_cents']:>10.1f} "
            f"{row['saving_pct']:>7.1f}% "
            f"{row['answers_saved']:>14d}"
        )
    lines.append(
        f"saving gate at 50% overlap: {at_half['saving_pct']:.1f}% >= 30%"
    )
    lines.append(
        f"throughput: {throughput['qps']:.1f} qps, "
        f"{speedup:.1f}x the scalar baseline ({baseline_qps:.1f} qps)"
    )
    write_report("bench_serve", "\n".join(lines))

    OUTPUT.write_text(
        json.dumps(
            {
                "config": {
                    "domain": "recipes",
                    "target": TARGET,
                    "objects_per_query": m,
                    "b_prc_cents": b_prc,
                    "n1": n1,
                    "seed": SEED,
                    "quick": args.quick,
                },
                "overlap_sweep": rows,
                "throughput": throughput,
                "gates": {
                    "saving_at_half_overlap_pct": at_half["saving_pct"],
                    "saving_floor_pct": SAVING_FLOOR_PCT,
                    "saving_tolerance_pct": SAVING_TOLERANCE_PCT,
                    "baseline_identical": True,
                    "batched_vs_scalar_identical": True,
                    "scalar_baseline_qps": baseline_qps,
                    "qps_speedup": speedup,
                    "qps_speedup_floor": SPEEDUP_FLOOR,
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
