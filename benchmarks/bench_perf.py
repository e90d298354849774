"""Perf-regression harness for the allocator and the experiment engine.

Two measurements, both with a built-in correctness gate:

* **Allocator microbenchmark** — greedy budget allocation over random
  correlated statistics (the property-test generator's regime) at
  several attribute counts, timing the naive oracle loop
  (``greedy_counts_reference`` in ``tests/allocator_oracle.py``)
  against the shipped ``greedy_counts``.  Hard-fails if the two ever
  select different counts.
* **End-to-end sweep** — a small ``B_prc`` sweep on the Pictures
  domain, serial versus the process-pool engine.  Hard-fails if the
  two series are not bit-identical.

Results land in ``BENCH_perf.json`` at the repo root so CI (the
``perf-smoke`` job) and EXPERIMENTS.md can quote machine-readable
numbers.  Run with ``--quick`` for the CI-sized variant::

    PYTHONPATH=src:. python benchmarks/bench_perf.py [--quick]

(the repo root on the path makes the oracle importable from ``tests``).

Note the recorded ``machine.cpu_count``: parallel sweep speedup is
bounded by physical cores, so on a single-core runner the parallel
engine can only demonstrate correctness (identical results), not a
wall-clock win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.budget import TargetObjective, greedy_counts
from repro.experiments import ParallelConfig, sweep_b_prc
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from tests.allocator_oracle import greedy_counts_reference

from common import BENCH_CONFIG, pictures_domain

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_perf.json"


def random_objective(n: int, seed: int) -> TargetObjective:
    """Random correlated statistics, like the property-test generator."""
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=(n + 1, 3))
    values = loadings @ rng.normal(size=(3, 200))
    target = values[0]
    attributes = values[1:]
    s_o = attributes @ target / 200
    s_a = attributes @ attributes.T / 200
    s_c = rng.uniform(0.01, 2.0, n)
    return TargetObjective(1.0, s_o, s_a, s_c)


def bench_allocator(sizes: tuple[int, ...], instances: int) -> list[dict]:
    """Time reference vs fast allocation; fail on any count mismatch."""
    rows = []
    for n in sizes:
        cases = []
        for seed in range(instances):
            objective = random_objective(n, seed=1000 * n + seed)
            rng = np.random.default_rng(seed)
            costs = rng.uniform(0.2, 1.0, n)
            budget = float(n) * 1.5
            cases.append(([objective], costs, budget))

        start = time.perf_counter()
        reference = [
            greedy_counts_reference(objs, costs, budget)
            for objs, costs, budget in cases
        ]
        reference_s = time.perf_counter() - start

        start = time.perf_counter()
        fast = [
            greedy_counts(objs, costs, budget)
            for objs, costs, budget in cases
        ]
        fast_s = time.perf_counter() - start

        for ref, fst in zip(reference, fast):
            if not np.array_equal(ref, fst):
                raise SystemExit(
                    f"FAIL: fast allocator disagrees with reference at n={n}: "
                    f"{fst.tolist()} != {ref.tolist()}"
                )
        steps = int(sum(ref.sum() for ref in reference))
        rows.append(
            {
                "n": n,
                "instances": instances,
                "grant_steps": steps,
                "reference_s": round(reference_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": round(reference_s / fast_s, 2) if fast_s else None,
            }
        )
        print(
            f"allocator n={n:3d}: reference {reference_s:7.3f}s  "
            f"fast {fast_s:7.3f}s  speedup {rows[-1]['speedup']}x  "
            f"(counts identical on {instances} instances)"
        )
    return rows


def bench_sweep(workers: int, quick: bool) -> dict:
    """Serial vs parallel sweep wall-clock; fail unless bit-identical."""
    domain = pictures_domain()
    from repro.experiments.runner import make_query

    query = make_query(domain, ("bmi",))
    config = BENCH_CONFIG.scaled(repetitions=2)
    algorithms = ("DisQ",)
    b_prc_values = (800.0, 1500.0) if quick else (800.0, 1500.0, 2500.0)

    start = time.perf_counter()
    serial = sweep_b_prc(algorithms, domain, query, 4.0, b_prc_values, config)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = sweep_b_prc(
        algorithms,
        domain,
        query,
        4.0,
        b_prc_values,
        config,
        parallel=ParallelConfig(max_workers=workers),
    )
    parallel_s = time.perf_counter() - start

    identical = serial == parallel
    if not identical:
        raise SystemExit(
            f"FAIL: parallel sweep differs from serial:\n"
            f"serial:   {serial}\nparallel: {parallel}"
        )
    speedup = round(serial_s / parallel_s, 2) if parallel_s else None
    print(
        f"sweep ({len(b_prc_values)} points x {config.repetitions} reps): "
        f"serial {serial_s:.2f}s  parallel[{workers}w] {parallel_s:.2f}s  "
        f"speedup {speedup}x  identical={identical}"
    )
    return {
        "workers": workers,
        "points": len(b_prc_values),
        "repetitions": config.repetitions,
        "serial_s": round(serial_s, 2),
        "parallel_s": round(parallel_s, 2),
        "speedup": speedup,
        "identical": identical,
    }


def bench_obs_overhead(quick: bool) -> dict:
    """Observability cost: disabled must be free, enabled must be exact.

    * Allocator: times ``greedy_counts`` with ``metrics=None``
      (the default — one ``None`` check per call, after the grant
      loop) against a recording :class:`MetricsRegistry`; hard-fails
      if the counts ever differ or the registry's grant total does not
      equal the granted questions.
    * Sweep: the same serial sweep with the default no-op bundle and
      with a collecting :class:`Observability`; hard-fails unless both
      error series are identical (instrumentation must never change
      results), and reports the disabled/enabled wall-clock ratio —
      the disabled run is the library default, so the allocator and
      sweep sections above already measure its absolute cost.
    """
    # --- allocator: metrics=None vs a live registry -------------------
    n = 20
    instances = 40 if quick else 120
    cases = []
    for seed in range(instances):
        objective = random_objective(n, seed=7000 + seed)
        rng = np.random.default_rng(seed)
        cases.append(([objective], rng.uniform(0.2, 1.0, n), float(n) * 1.5))

    start = time.perf_counter()
    disabled = [
        greedy_counts(objs, costs, budget) for objs, costs, budget in cases
    ]
    alloc_disabled_s = time.perf_counter() - start

    registry = MetricsRegistry()
    start = time.perf_counter()
    enabled = [
        greedy_counts(objs, costs, budget, metrics=registry)
        for objs, costs, budget in cases
    ]
    alloc_enabled_s = time.perf_counter() - start

    for off, on in zip(disabled, enabled):
        if not np.array_equal(off, on):
            raise SystemExit(
                f"FAIL: allocator counts change under metrics: "
                f"{on.tolist()} != {off.tolist()}"
            )
    grants = int(sum(counts.sum() for counts in disabled))
    if int(registry.counter("allocator.grants")) != grants:
        raise SystemExit(
            f"FAIL: allocator.grants={registry.counter('allocator.grants')} "
            f"!= granted {grants}"
        )

    # --- sweep: no-op bundle vs collecting bundle ---------------------
    domain = pictures_domain()
    from repro.experiments.runner import make_query

    query = make_query(domain, ("bmi",))
    config = BENCH_CONFIG.scaled(repetitions=2)
    b_prc_values = (800.0, 1500.0) if quick else (800.0, 1500.0, 2500.0)

    start = time.perf_counter()
    plain = sweep_b_prc(("DisQ",), domain, query, 4.0, b_prc_values, config)
    sweep_disabled_s = time.perf_counter() - start

    obs = Observability.collecting()
    start = time.perf_counter()
    instrumented = sweep_b_prc(
        ("DisQ",), domain, query, 4.0, b_prc_values, config, obs=obs
    )
    sweep_enabled_s = time.perf_counter() - start

    if plain != instrumented:
        raise SystemExit(
            f"FAIL: instrumentation changed sweep results:\n"
            f"disabled: {plain}\nenabled:  {instrumented}"
        )

    def overhead(disabled_s: float, enabled_s: float) -> float:
        return round(100.0 * (enabled_s - disabled_s) / disabled_s, 2)

    alloc_overhead = overhead(alloc_disabled_s, alloc_enabled_s)
    sweep_overhead = overhead(sweep_disabled_s, sweep_enabled_s)
    print(
        f"obs allocator: disabled {alloc_disabled_s:.3f}s  "
        f"enabled {alloc_enabled_s:.3f}s  overhead {alloc_overhead:+.1f}%"
    )
    print(
        f"obs sweep: disabled {sweep_disabled_s:.2f}s  "
        f"enabled {sweep_enabled_s:.2f}s  overhead {sweep_overhead:+.1f}%  "
        f"identical=True"
    )
    return {
        "allocator_disabled_s": round(alloc_disabled_s, 4),
        "allocator_enabled_s": round(alloc_enabled_s, 4),
        "allocator_overhead_pct": alloc_overhead,
        "sweep_disabled_s": round(sweep_disabled_s, 2),
        "sweep_enabled_s": round(sweep_enabled_s, 2),
        "sweep_overhead_pct": sweep_overhead,
        "identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: fewer instances, smaller sweep",
    )
    args = parser.parse_args()

    sizes = (8, 20) if args.quick else (8, 20, 40)
    instances = 10 if args.quick else 25
    cpu_count = os.cpu_count() or 1
    workers = min(4, max(2, cpu_count))

    report = {
        "quick": args.quick,
        "machine": {"cpu_count": cpu_count},
        "allocator": bench_allocator(sizes, instances),
        "sweep": bench_sweep(workers, args.quick),
        "obs": bench_obs_overhead(args.quick),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
