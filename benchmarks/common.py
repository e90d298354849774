"""Shared infrastructure for the reproduction benchmarks.

Each ``bench_*.py`` module regenerates one of the paper's tables or
figures: it runs the experiment at a documented scaled-down size,
prints the same rows/series the paper reports, asserts the paper's
qualitative *shape* (who wins, where the gaps grow), and writes the
output under ``benchmarks/out/`` so EXPERIMENTS.md can quote it.

Scaling relative to the paper (see EXPERIMENTS.md): domains hold 250
objects instead of 500, statistics pools use ``N_1 = 60`` instead of
200, points are averaged over 2-3 repetitions instead of 30, and the
``B_prc`` axis is shifted accordingly (examples cost ``N_1 x 5c``).
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from pathlib import Path

from repro.domains import (
    make_houses_domain,
    make_laptops_domain,
    make_pictures_domain,
    make_recipes_domain,
)
from repro.experiments import ExperimentConfig, ParallelConfig
from repro.obs import NULL_OBS, Observability
from repro.obs.manifest import build_manifest, write_manifest

#: Where benches drop their rendered tables.
OUT_DIR = Path(__file__).parent / "out"

#: The scaled-down default experiment configuration (see module doc).
BENCH_CONFIG = ExperimentConfig(
    n_objects=250, n1=60, repetitions=2, eval_objects=60
)

#: Budget axes used across the figure benches, in cents.
B_PRC_SWEEP = (800.0, 1500.0, 2500.0, 3500.0)
B_OBJ_SWEEP = (0.4, 1.0, 2.0, 4.0, 7.0, 10.0)
B_PRC_FIXED = 2500.0
B_OBJ_FIXED = 4.0


@lru_cache(maxsize=None)
def pictures_domain():
    """The calibrated Pictures domain, shared across benches."""
    return make_pictures_domain(n_objects=BENCH_CONFIG.n_objects, seed=1)


@lru_cache(maxsize=None)
def recipes_domain():
    """The calibrated Recipes domain, shared across benches."""
    return make_recipes_domain(n_objects=BENCH_CONFIG.n_objects, seed=1)


@lru_cache(maxsize=None)
def houses_domain():
    """The house-prices domain (coverage experiment)."""
    return make_houses_domain(n_objects=BENCH_CONFIG.n_objects, seed=1)


@lru_cache(maxsize=None)
def laptops_domain():
    """The laptop-prices domain (coverage experiment)."""
    return make_laptops_domain(n_objects=BENCH_CONFIG.n_objects, seed=1)


def bench_parallel() -> ParallelConfig | None:
    """Sweep parallelism for the figure benches, from ``BENCH_WORKERS``.

    ``BENCH_WORKERS=N`` (N > 1) makes the experiment engine
    (:func:`repro.experiments.parallel.run_grid`) fan repetitions over
    N worker processes — results are bit-identical to in-process runs,
    only the wall-clock in the report footers changes.  Unset/0/1 runs
    the repetitions in-process, one after another (the right default on
    single-core runners, where process fan-out only adds overhead).
    """
    workers = int(os.environ.get("BENCH_WORKERS", "0"))
    if workers > 1:
        return ParallelConfig(max_workers=workers)
    return None


def bench_obs() -> Observability:
    """Observability bundle for the figure benches, from ``BENCH_MANIFEST``.

    ``BENCH_MANIFEST=1`` (any non-empty value) makes each bench collect
    metrics and phase timings into a fresh registry and drop a
    ``out/<name>.manifest.json`` next to its ``.txt`` report via
    :func:`write_bench_manifest`.  Unset keeps the shared no-op bundle:
    results are byte-identical either way, instrumentation only adds
    the manifest.  Composes with ``BENCH_WORKERS``: every repetition
    records into its own registry, in a worker process or not, and the
    bundle merges them in repetition order (see
    :func:`repro.experiments.parallel.run_grid`), so the manifest's
    counters do not depend on ``BENCH_WORKERS``.  Pool workers' phase
    spans stay in the workers; in-process repetitions trace into the
    bundle.
    """
    if os.environ.get("BENCH_MANIFEST"):
        return Observability.collecting()
    return NULL_OBS


def write_bench_manifest(name: str, obs: Observability, plan=None, extra=None):
    """Write ``out/<name>.manifest.json`` when ``obs`` is recording.

    No-op (returns ``None``) for the disabled bundle, so benches can
    call it unconditionally after :func:`write_report`.
    """
    if not obs.enabled:
        return None
    OUT_DIR.mkdir(exist_ok=True)
    manifest = build_manifest(name, obs, plan=plan, extra=extra)
    return write_manifest(OUT_DIR / f"{name}.manifest.json", manifest)


#: Wall-clock checkpoint: reset by every report, so each footer shows
#: the time spent producing that figure/table since the previous one.
_report_clock = time.perf_counter()


def write_report(name: str, text: str, elapsed: float | None = None) -> None:
    """Print a bench report and persist it under ``benchmarks/out``.

    A wall-clock footer (``elapsed`` if given, otherwise the time since
    the previous report) is appended so serial-versus-parallel gains
    stay visible in ``benchmarks/out/``.
    """
    global _report_clock
    if elapsed is None:
        elapsed = time.perf_counter() - _report_clock
    workers = os.environ.get("BENCH_WORKERS", "")
    suffix = f", BENCH_WORKERS={workers}" if workers else ""
    text = text.rstrip("\n") + f"\n[wall-clock: {elapsed:.2f}s{suffix}]"
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    _report_clock = time.perf_counter()


def final_errors(series: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
    """Last-point error per algorithm (largest swept budget)."""
    return {name: points[-1][1] for name, points in series.items()}


def mean_errors(series: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
    """Mean error per algorithm across all finite sweep points."""
    import math

    result = {}
    for name, points in series.items():
        finite = [e for _, e in points if math.isfinite(e)]
        result[name] = sum(finite) / len(finite) if finite else float("inf")
    return result
